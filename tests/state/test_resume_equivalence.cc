/**
 * @file
 * The checkpoint/restore correctness bar: interrupting a run at any
 * interval and resuming from the snapshot must reproduce the
 * uninterrupted SimResult bitwise — every series sample and every
 * aggregate, at any thread count, and regardless of which thread
 * count wrote the checkpoint. Double
 * comparisons are deliberately exact (ASSERT_EQ, not ASSERT_NEAR).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_wa.h"
#include "reference/scratch_path.h"
#include "sched/round_robin.h"
#include "sim/simulation.h"
#include "state/serializer.h"
#include "state/sim_snapshot.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

std::string
tempSnapshotPath(const char *name)
{
    const std::string path = reference::scratchPath(name);
    std::remove(path.c_str());
    return path;
}

SimConfig
shortRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    return config;
}

VmtWaScheduler
waScheduler()
{
    return VmtWaScheduler(bench::studyVmt(22.0), hotMaskFromPaper());
}

void
expectSeriesIdentical(const char *what, const TimeSeries &a,
                      const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << what << " interval " << i;
}

void
expectHeatmapsIdentical(const char *what,
                        const std::optional<Heatmap> &a,
                        const std::optional<Heatmap> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (!a)
        return;
    ASSERT_EQ(a->rows(), b->rows()) << what;
    ASSERT_EQ(a->cols(), b->cols()) << what;
    for (std::size_t r = 0; r < a->rows(); ++r)
        for (std::size_t c = 0; c < a->cols(); ++c)
            ASSERT_EQ(a->at(r, c), b->at(r, c))
                << what << " cell (" << r << ", " << c << ")";
}

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.schedulerName, b.schedulerName);
    expectSeriesIdentical("coolingLoad", a.coolingLoad, b.coolingLoad);
    expectSeriesIdentical("totalPower", a.totalPower, b.totalPower);
    expectSeriesIdentical("waxHeatFlow", a.waxHeatFlow, b.waxHeatFlow);
    expectSeriesIdentical("meanAirTemp", a.meanAirTemp, b.meanAirTemp);
    expectSeriesIdentical("hotGroupTemp", a.hotGroupTemp,
                          b.hotGroupTemp);
    expectSeriesIdentical("hotGroupSizeSeries", a.hotGroupSizeSeries,
                          b.hotGroupSizeSeries);
    expectSeriesIdentical("meanMeltFraction", a.meanMeltFraction,
                          b.meanMeltFraction);
    expectSeriesIdentical("utilization", a.utilization,
                          b.utilization);
    expectSeriesIdentical("inletTemp", a.inletTemp, b.inletTemp);
    expectHeatmapsIdentical("airTempMap", a.airTempMap, b.airTempMap);
    expectHeatmapsIdentical("meltMap", a.meltMap, b.meltMap);
    EXPECT_EQ(a.peakCoolingLoad, b.peakCoolingLoad);
    EXPECT_EQ(a.peakPower, b.peakPower);
    EXPECT_EQ(a.maxMeltFraction, b.maxMeltFraction);
    EXPECT_EQ(a.maxAirTemp, b.maxAirTemp);
    EXPECT_EQ(a.overheatedServerIntervals,
              b.overheatedServerIntervals);
    EXPECT_EQ(a.throttledServerIntervals, b.throttledServerIntervals);
    EXPECT_EQ(a.droppedJobs, b.droppedJobs);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.placedJobs, b.placedJobs);
}

/** Checkpoint once at @p at completed intervals, into @p path. */
void
installSingleCheckpoint(SimConfig &config, std::size_t at,
                        const std::string &path)
{
    config.checkpointHook = [at, path](const SimState &state,
                                       std::size_t completed) {
        if (completed == at)
            saveSnapshot(state, completed, path);
    };
}

void
installResume(SimConfig &config, const std::string &path)
{
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(config, options);
}

/**
 * The full contract for one configuration: (a) a run that writes a
 * checkpoint at @p at is itself unperturbed, and (b) a fresh driver +
 * fresh scheduler resumed from that checkpoint finishes with a
 * bitwise-identical result.
 */
void
expectResumeReproduces(const SimConfig &base, std::size_t at,
                       const std::string &path)
{
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(base, plain);

    SimConfig saving = base;
    installSingleCheckpoint(saving, at, path);
    VmtWaScheduler interrupted = waScheduler();
    const SimResult perturbed = runSimulation(saving, interrupted);
    expectResultsIdentical(reference, perturbed);

    SimConfig resuming = base;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    const SimResult after = runSimulation(resuming, resumed);
    expectResultsIdentical(reference, after);
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, Cluster100BothThreadCounts)
{
    ThreadCountGuard guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_100.snap");
    const SimConfig config = shortRun(100, 2.0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreadCount(threads);
        expectResumeReproduces(config, 45, path);
    }
}

TEST(ResumeEquivalence, Cluster1000BothThreadCounts)
{
    ThreadCountGuard guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_1000.snap");
    // 1,000 servers takes the chunked-parallel thermal path at
    // threads=4, so this covers checkpointing both execution paths.
    const SimConfig config = shortRun(1000, 1.0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreadCount(threads);
        expectResumeReproduces(config, 20, path);
    }
}

TEST(ResumeEquivalence, CheckpointThreadCountDoesNotLeakIntoResume)
{
    ThreadCountGuard guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_cross_threads.snap");
    const SimConfig config = shortRun(1000, 1.0);

    setGlobalThreadCount(1);
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // Write the checkpoint from a 4-thread run...
    setGlobalThreadCount(4);
    SimConfig saving = config;
    installSingleCheckpoint(saving, 30, path);
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);

    // ...and resume single-threaded: still bitwise identical.
    setGlobalThreadCount(1);
    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, EveryInterruptionPointOnASmallCluster)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_every.snap");
    SimConfig config = shortRun(20, 0.2); // 12 intervals.
    config.recordHeatmaps = true;         // Cover the RSLT heatmaps.
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);
    const std::size_t intervals = reference.coolingLoad.size();
    ASSERT_EQ(intervals, 12u);

    for (std::size_t at = 1; at < intervals; ++at) {
        SCOPED_TRACE("checkpoint after interval " +
                     std::to_string(at));
        SimConfig saving = config;
        installSingleCheckpoint(saving, at, path);
        VmtWaScheduler interrupted = waScheduler();
        runSimulation(saving, interrupted);

        SimConfig resuming = config;
        installResume(resuming, path);
        VmtWaScheduler resumed = waScheduler();
        expectResultsIdentical(reference,
                               runSimulation(resuming, resumed));
    }
    std::remove(path.c_str());
}

/**
 * The hard case from the paper's physics: a checkpoint taken while
 * wax is mid-melt (fraction strictly between 0 and 1) must restore
 * the partial enthalpy exactly, or the resumed melt/freeze
 * trajectory diverges.
 */
TEST(ResumeEquivalence, MidMeltCheckpointRestoresPartialEnthalpy)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_midmelt.snap");
    SimConfig config = shortRun(100, 4.0);
    // The built-in trace spends hours 0-6 in the trough, where the
    // hot group never reaches the melting point; substitute a shape
    // that ramps straight to the peak so wax melts within the run.
    config.trace.customShape = {{0.0, 0.3}, {1.5, 1.0}, {4.0, 1.0}};
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // Pick the first interval where the cluster is genuinely
    // mid-melt in the reference run.
    std::size_t at = 0;
    for (std::size_t i = 0; i < reference.meanMeltFraction.size();
         ++i) {
        const double melt = reference.meanMeltFraction.at(i);
        if (melt > 0.05 && melt < 0.95) {
            at = i + 1; // completed-interval count, not index
            break;
        }
    }
    ASSERT_GT(at, 0u) << "trace never reaches a mid-melt state; "
                         "lengthen the run";

    SimConfig saving = config;
    bool checkpointed_mid_melt = false;
    saving.checkpointHook = [&](const SimState &state,
                                std::size_t completed) {
        if (completed != at)
            return;
        const Cluster &cluster = state.pod.cluster;
        double sum = 0.0;
        for (std::size_t id = 0; id < cluster.numServers(); ++id)
            sum += cluster.server(id).waxMeltFraction();
        const double mean =
            sum / static_cast<double>(cluster.numServers());
        EXPECT_GT(mean, 0.0);
        EXPECT_LT(mean, 1.0);
        checkpointed_mid_melt = true;
        saveSnapshot(state, completed, path);
    };
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);
    ASSERT_TRUE(checkpointed_mid_melt);

    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, PeriodicCadenceSkipsFinalIntervalAndResumes)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_cadence.snap");
    const SimConfig config = shortRun(20, 0.2); // 12 intervals.
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // attachCheckpointing at every=4 saves after intervals 4 and 8
    // only: 12 is the final interval, and the run is already done.
    SimConfig saving = config;
    CheckpointOptions options;
    options.every = 4;
    options.path = path;
    attachCheckpointing(saving, options);
    // Detect the actual saves by diffing the file bytes around each
    // hook call (snapshots at different intervals never coincide).
    const auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    std::vector<std::size_t> saved_at;
    const auto periodic = saving.checkpointHook;
    saving.checkpointHook = [&](const SimState &state,
                                std::size_t completed) {
        const std::string before = slurp(path);
        periodic(state, completed);
        if (slurp(path) != before)
            saved_at.push_back(completed);
    };
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);
    const std::vector<std::size_t> expected_saves = {4, 8};
    EXPECT_EQ(saved_at, expected_saves);

    // The surviving snapshot is the interval-8 one; resume from it.
    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Mismatch rejection: resuming needs the exact configuration that
// produced the checkpoint. Every divergence is fatal, never silent.
// ---------------------------------------------------------------------

/** Write a snapshot of the 20-server run at interval 6. */
std::string
writeReferenceSnapshot(const char *name)
{
    const std::string path = tempSnapshotPath(name);
    SimConfig config = shortRun(20, 0.2);
    installSingleCheckpoint(config, 6, path);
    VmtWaScheduler sched = waScheduler();
    runSimulation(config, sched);
    return path;
}

SimResult
tryResume(const SimConfig &config, Scheduler &scheduler,
          const std::string &path)
{
    SimConfig resuming = config;
    installResume(resuming, path);
    return runSimulation(resuming, scheduler);
}

TEST(ResumeMismatch, DifferentSeedIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_seed.snap");
    SimConfig config = shortRun(20, 0.2);
    config.seed = 8;
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, DifferentClusterSizeIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_servers.snap");
    const SimConfig config = shortRun(21, 0.2);
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, DifferentSchedulerIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_sched.snap");
    const SimConfig config = shortRun(20, 0.2);
    RoundRobinScheduler sched;
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

/**
 * Rewrite the CONF section's PCM-integrator byte of a snapshot file
 * and re-seal the section CRC, leaving a container that still passes
 * every framing check.
 */
void
setIntegratorTag(const std::string &path, std::uint8_t tag)
{
    std::vector<std::uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    // Container: magic(8) version(4) count(4), then per section
    // tag(4) length(8) crc(4) payload.
    Deserializer header(image.data() + 12, 4);
    const std::uint32_t sections = header.getU32();
    std::size_t pos = 16;
    for (std::uint32_t s = 0; s < sections; ++s) {
        const std::string name(image.begin() + pos,
                               image.begin() + pos + 4);
        Deserializer frame(image.data() + pos + 4, 8);
        const std::size_t length = frame.getSize();
        const std::size_t payload = pos + 16;
        if (name == "CONF") {
            // Skip the fields saveSnapshot writes before the tag.
            Deserializer conf(image.data() + payload, length);
            for (int i = 0; i < 3; ++i)
                conf.getSize(); // completed, run length, servers
            conf.getU64();      // seed
            for (int i = 0; i < 6; ++i)
                conf.getDouble(); // interval ... overheat temp
            conf.getSize();       // migration budget
            conf.getSize();       // peak window
            conf.getBool();       // recirculation
            conf.getBool();       // heatmaps
            image[payload + length - conf.remaining()] = tag;
            Serializer crc;
            crc.putU32(crc32(image.data() + payload, length));
            std::copy(crc.bytes().begin(), crc.bytes().end(),
                      image.begin() + pos + 12);
        }
        pos = payload + length;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
}

TEST(ResumeMismatch, DifferentIntegratorIsFatal)
{
    // Tag 1 marks a snapshot written by the retired sub-stepped PCM
    // integrator; the closed-form run must refuse it by name.
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_integ.snap");
    setIntegratorTag(path, 1);
    const SimConfig config = shortRun(20, 0.2);
    VmtWaScheduler sched = waScheduler();
    try {
        tryResume(config, sched, path);
        ADD_FAILURE() << "resume accepted a substep snapshot";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("PCM integrator: snapshot substep, run "
                            "closed"),
                  std::string::npos)
            << err.what();
    }
    std::remove(path.c_str());
}

TEST(ResumeMismatch, ShorterRunThanCompletedIntervalsIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_len.snap");
    SimConfig config = shortRun(20, 0.2);
    config.trace.duration = 0.05; // 3 intervals < 6 completed.
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, MissingSnapshotFileIsFatal)
{
    const SimConfig config = shortRun(20, 0.2);
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched,
                           reference::scratchPath("no_such_snapshot.snap")),
                 FatalError);
}

} // namespace
} // namespace vmt
