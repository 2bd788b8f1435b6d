/**
 * @file
 * vmtsim snapshot sections, byte for byte: digests of the interval-120
 * snapshot of three 4-hour, 100-server runs, pinned so that a change
 * to how a section is written or read must leave every byte in place.
 * The golden_v* fixtures pin only the container; these pin CONF,
 * GENR, CLUS, QUEU, SCHD, RSLT, FALT and OBSV. Every case runs at 1
 * and 4 threads against the same pinned value, and the values are
 * never edited.
 *
 * The RNG cases re-seal a snapshot whose generator words are all
 * zero, a state xoshiro256** never leaves: the resume must end in a
 * fatal that names the section rather than in a draw loop that never
 * returns or a run in which every server fails.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/adaptive_vmt.h"
#include "core/vmt_wa.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "reference/digest.h"
#include "reference/scratch_path.h"
#include "reference/snapshot_mutator.h"
#include "sched/round_robin.h"
#include "state/sim_snapshot.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** 100 servers for 4 hours on a trace that ramps straight to the
 *  peak, so wax is melting when the interval-120 snapshot is taken. */
SimConfig
fourHourRun()
{
    SimConfig config = bench::studyConfig(100);
    config.trace.duration = 4.0;
    config.trace.customShape = {{0.0, 0.3}, {1.5, 1.0}, {4.0, 1.0}};
    return config;
}

struct DigestCase
{
    const char *name;
    std::function<SimConfig()> config;
    std::function<std::unique_ptr<Scheduler>()> scheduler;
    bool observed;
    std::uint64_t pinned;
};

std::vector<DigestCase>
cases()
{
    std::vector<DigestCase> out;
    // Every optional part of the snapshot: a fault plan with a
    // cooling derate, stochastic failures, thermal quarantine, the
    // migration budget, heatmaps, a cooling plant and OBSV.
    out.push_back(
        {"wa_faults",
         [] {
             SimConfig config = fourHourRun();
             config.faults.plan =
                 FaultPlan::parse("0.5 server-down 7\n"
                                  "0.5 server-down 63\n"
                                  "1.0 cooling-derate 5\n"
                                  "1.5 server-up 7\n"
                                  "1.8 cooling-restore\n");
             config.faults.mtbf = 40.0;
             config.faults.repairTime = 0.5;
             config.faults.seed = 5;
             config.faults.criticalTemp = 37.5;
             config.migrationBudget = 3;
             config.recordHeatmaps = true;
             config.coolingCapacity = 30000.0;
             return config;
         },
         [] {
             return std::make_unique<VmtWaScheduler>(
                 bench::studyVmt(22.0), hotMaskFromPaper());
         },
         true, 0x179683762011682eull});
    out.push_back({"rr_recirculation",
                   [] {
                       SimConfig config = fourHourRun();
                       config.modelRecirculation = true;
                       return config;
                   },
                   [] { return std::make_unique<RoundRobinScheduler>(); },
                   false, 0x8c01c52c8c05c0dcull});
    out.push_back({"adaptive", fourHourRun,
                   [] {
                       return std::make_unique<AdaptiveVmtScheduler>(
                           bench::studyVmt(22.0), hotMaskFromPaper());
                   },
                   false, 0xe37e51da5fcb7fe2ull});
    return out;
}

/** Digest of the snapshot a run writes after interval 120. */
std::uint64_t
snapshotDigest(const DigestCase &c)
{
    const std::string path = reference::scratchPath("interval120.snap");
    SimConfig config = c.config();
    obs::Observability bundle;
    if (c.observed)
        config.obs = &bundle;
    config.checkpointHook = [&path](const SimState &state,
                                    std::size_t completed) {
        if (completed == 120)
            saveSnapshot(state, completed, path);
    };
    const std::unique_ptr<Scheduler> scheduler = c.scheduler();
    runSimulation(config, *scheduler);
    const std::uint64_t digest =
        reference::digestBytes(reference::readBytes(path));
    std::remove(path.c_str());
    return digest;
}

TEST(SimSnapshotDigests, SectionBytesMatchThePinnedDigests)
{
    for (const DigestCase &c : cases()) {
        for (const std::size_t threads : {1, 4}) {
            setGlobalThreadCount(threads);
            const std::uint64_t digest = snapshotDigest(c);
            EXPECT_EQ(digest, c.pinned)
                << c.name << " at " << threads << " threads: 0x"
                << std::hex << digest;
        }
    }
    setGlobalThreadCount(0);
}

/** 20 servers for half an hour under stochastic failures alone (an
 *  empty plan), so the fault engine's state is live. */
SimConfig
failingRun()
{
    SimConfig config = bench::studyConfig(20);
    config.trace.duration = 0.5;
    config.faults.mtbf = 5.0;
    config.faults.repairTime = 0.2;
    return config;
}

VmtWaScheduler
waScheduler()
{
    return VmtWaScheduler(bench::studyVmt(22.0), hotMaskFromPaper());
}

/** The failingRun() snapshot after interval 10, as sections. */
reference::SnapshotSections
failingSnapshot()
{
    const std::string path = reference::scratchPath("source.snap");
    SimConfig config = failingRun();
    config.checkpointHook = [&path](const SimState &state,
                                    std::size_t completed) {
        if (completed == 10)
            saveSnapshot(state, completed, path);
    };
    VmtWaScheduler sched = waScheduler();
    runSimulation(config, sched);
    reference::SnapshotSections sections(reference::readBytes(path));
    std::remove(path.c_str());
    return sections;
}

/** Resume failingRun() from @p sections: the FatalError's message, or
 *  "" when the run went to the end. */
std::string
resumeError(const reference::SnapshotSections &sections)
{
    const std::string path = reference::scratchPath("mutant.snap");
    reference::writeBytes(path, sections.encode());
    SimConfig config = failingRun();
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(config, options);
    VmtWaScheduler sched = waScheduler();
    std::string error;
    try {
        runSimulation(config, sched);
    } catch (const FatalError &e) {
        error = e.what();
    }
    std::remove(path.c_str());
    return error;
}

/** Zero the four RNG words at @p offset of section @p tag. */
reference::SnapshotSections
zeroRngWords(reference::SnapshotSections sections, const char *tag,
             std::size_t offset)
{
    std::vector<std::uint8_t> &payload = sections.payload(tag);
    bool live = false;
    for (std::size_t i = offset; i < offset + 32; ++i) {
        live = live || payload.at(i) != 0;
        payload.at(i) = 0;
    }
    EXPECT_TRUE(live) << tag << " has no RNG state at " << offset;
    return sections;
}

TEST(SimSnapshotRng, AllZeroGeneratorWordsAreANamedFatal)
{
    const reference::SnapshotSections base = failingSnapshot();
    ASSERT_EQ(resumeError(base), "");
    // GENR opens with the duration generator's words.
    EXPECT_NE(resumeError(zeroRngWords(base, "GENR", 0))
                  .find("snapshot GENR section is corrupt: all-zero "
                        "RNG state"),
              std::string::npos);
}

TEST(SimSnapshotRng, AllZeroFaultEngineWordsAreANamedFatal)
{
    const reference::SnapshotSections base = failingSnapshot();
    // With an empty plan, FALT's echo is 65 bytes (enable flag, seed,
    // six parameters, plan length), then the engine-active flag, the
    // plan cursor and the supply rise precede the engine's words.
    EXPECT_NE(resumeError(zeroRngWords(base, "FALT", 82))
                  .find("snapshot FALT section is corrupt: all-zero "
                        "RNG state"),
              std::string::npos);
}

} // namespace
} // namespace vmt
