/**
 * @file
 * The job ledger's snapshot loaders under damaged input: the QUEU
 * section of vmtsim snapshots, in the current (departure ring) layout
 * and the v1/v2 slot-table layout the loader converts. Every damaged
 * payload — truncated, byte-flipped or spliced, with its CRC
 * recomputed so the parser sees it — must end in a named FatalError
 * or a resume that runs to the end; never in a crash, an allocation
 * failure or an out-of-bounds access (the CI sanitizer job runs this
 * suite under ASan and UBSan).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_wa.h"
#include "fault/fault_plan.h"
#include "reference/scratch_path.h"
#include "reference/snapshot_mutator.h"
#include "state/serializer.h"
#include "state/sim_snapshot.h"
#include "util/logging.h"

namespace vmt {
namespace {

using reference::Mutation;
using reference::SnapshotSections;

/** 20 servers for half an hour; five of them are down from 0.1 h to
 *  0.3 h, so the saved ledgers carry evacuated jobs. */
SimConfig
ledgerRun()
{
    SimConfig config = bench::studyConfig(20);
    config.trace.duration = 0.5;
    std::string plan;
    for (int id = 0; id < 5; ++id)
        plan += "0.1 server-down " + std::to_string(id) + "\n";
    for (int id = 0; id < 5; ++id)
        plan += "0.3 server-up " + std::to_string(id) + "\n";
    config.faults.plan = FaultPlan::parse(plan);
    return config;
}

VmtWaScheduler
waScheduler()
{
    return VmtWaScheduler(bench::studyVmt(22.0), hotMaskFromPaper());
}

/** A scratch file private to the running test and process. */
std::string
scratchPath(const std::string &what)
{
    return reference::scratchPath(what + ".snap");
}

/** The snapshot ledgerRun() writes after `completed` intervals. */
std::vector<std::uint8_t>
snapshotAfter(std::size_t completed)
{
    const std::string path = scratchPath("source");
    SimConfig config = ledgerRun();
    config.checkpointHook = [&](const SimState &state,
                                std::size_t done) {
        if (done == completed)
            saveSnapshot(state, done, path);
    };
    VmtWaScheduler sched = waScheduler();
    runSimulation(config, sched);
    std::vector<std::uint8_t> image = reference::readBytes(path);
    std::remove(path.c_str());
    return image;
}

/** Resume `config` from `image`: the FatalError's message, or ""
 *  when the run went to the end. Anything else escapes and fails the
 *  test. */
std::string
resumeError(SimConfig config, const std::vector<std::uint8_t> &image)
{
    const std::string path = scratchPath("mutant");
    reference::writeBytes(path, image);
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

TEST(LedgerMutation, MutatedQueuPayloadsEndInANamedFatalOrACleanResume)
{
    SnapshotSections base(snapshotAfter(10));
    const std::vector<std::uint8_t> queu = base.payload("QUEU");
    const std::vector<std::uint8_t> donor =
        SnapshotSections(snapshotAfter(20)).payload("QUEU");
    ASSERT_EQ(resumeError(ledgerRun(), base.encode()), "");

    Rng rng(1616);
    std::array<int, 3> fatals{}, clean{};
    constexpr int kPerKind = 1000;
    for (int i = 0; i < 3 * kPerKind; ++i) {
        const auto kind = static_cast<Mutation>(i % 3);
        SnapshotSections image = base;
        image.payload("QUEU") =
            reference::mutate(queu, donor, kind, rng);
        const bool ran =
            resumeError(ledgerRun(), image.encode()).empty();
        ++(ran ? clean : fatals)[static_cast<int>(kind)];
    }
    // A cut payload always falls short of what its counts promise.
    EXPECT_EQ(fatals[0], kPerKind);
    // Flips and splices reach the checks behind the counts; a damaged
    // ledger that passes them all still resumes and runs to the end.
    for (const int kind : {1, 2}) {
        EXPECT_GT(fatals[kind], 0) << "kind " << kind;
        EXPECT_EQ(fatals[kind] + clean[kind], kPerKind)
            << "kind " << kind;
    }
}

/** driver_v1.snap (a format v1 vmtsim checkpoint: studyConfig(20),
 *  0.2 h, VMT-WA at GV 22, after interval 6) and its run config. */
SnapshotSections
driverV1()
{
    return SnapshotSections(reference::readBytes(
        std::string(VMT_TEST_DATA_DIR) + "/driver_v1.snap"));
}

SimConfig
driverV1Run()
{
    SimConfig config = bench::studyConfig(20);
    config.trace.duration = 0.2;
    return config;
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t at,
         std::uint64_t value)
{
    for (int b = 0; b < 8; ++b)
        bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
}

TEST(LedgerMutation, HugeLegacySlotCountIsANamedFatal)
{
    SnapshotSections image = driverV1();
    ASSERT_EQ(image.version(), 1u);
    ASSERT_EQ(resumeError(driverV1Run(), image.encode()), "");
    putU64At(image.payload("QUEU"), 0, std::uint64_t{1} << 60);
    EXPECT_NE(resumeError(driverV1Run(), image.encode())
                  .find("job slot count"),
              std::string::npos);
}

TEST(LedgerMutation, LegacyResidencyEntryNamingAMissingSlotIsANamedFatal)
{
    SnapshotSections image = driverV1();
    std::vector<std::uint8_t> &queu = image.payload("QUEU");
    // Walk the v1 layout to the first non-empty residency list:
    // slots (8 + 13 each), freelist (8 + 4 each), then per server and
    // type a count and that many slot ids.
    Deserializer in(queu);
    const std::size_t slots = in.getSize();
    for (std::size_t i = 0; i < 13 * slots; ++i)
        in.getU8();
    const std::size_t free = in.getSize();
    for (std::size_t i = 0; i < free; ++i)
        in.getU32();
    while (in.getSize() == 0) {
    }
    const std::size_t at = queu.size() - in.remaining();
    for (int b = 0; b < 4; ++b)
        queu[at + b] = static_cast<std::uint8_t>(1'000'000 >> (8 * b));
    EXPECT_NE(resumeError(driverV1Run(), image.encode())
                  .find("references job slot 1000000"),
              std::string::npos);
}

TEST(LedgerMutation, HugeRingBucketCountIsANamedFatal)
{
    SnapshotSections image(snapshotAfter(10));
    ASSERT_EQ(image.version(), kSnapshotFormatVersion);
    putU64At(image.payload("QUEU"), 0, std::uint64_t{1} << 60);
    EXPECT_NE(resumeError(ledgerRun(), image.encode())
                  .find("bucket count"),
              std::string::npos);
}

} // namespace
} // namespace vmt
