/**
 * @file
 * Driver-level fault-injection contract: every placement policy
 * survives servers dropping out of and rejoining the eligible set,
 * Eq. 1 sizes the hot group over *alive* servers, faulted runs are
 * bitwise deterministic across thread counts and across
 * checkpoint/restore (snapshot format v2), pre-fault v1 snapshots
 * still resume, and a CRAC-outage ride-through shows the PCM
 * buffering the excursion versus a no-wax baseline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/adaptive_vmt.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "reference/scratch_path.h"
#include "sched/coolest_first.h"
#include "sched/round_robin.h"
#include "sched/switchover.h"
#include "sim/simulation.h"
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

/** Bitwise equality including the fault telemetry. */
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
    expectSeriesIdentical("aliveServers", a.aliveServers,
                          b.aliveServers);
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
    EXPECT_EQ(a.evacuatedJobs, b.evacuatedJobs);
    EXPECT_EQ(a.lostJobs, b.lostJobs);
    EXPECT_EQ(a.criticalServerIntervals, b.criticalServerIntervals);
}

/** A plan that downs servers 0-9 at 0.05 h and repairs server 3 at
 *  0.15 h — half the 20-server cluster drops mid-run. */
FaultPlan
halfClusterOutage()
{
    std::string text;
    for (int id = 0; id < 10; ++id)
        text += "0.05 server-down " + std::to_string(id) + "\n";
    text += "0.15 server-up 3\n";
    return FaultPlan::parse(text);
}

struct NamedPolicy
{
    const char *name;
    std::function<SimResult(const SimConfig &)> run;
};

/**
 * Every policy — including the mid-run switchover — must survive the
 * eligible set shrinking and regrowing: the run completes, the alive
 * telemetry tracks the outage, and the jobs resident on the failed
 * half are re-placed (or counted lost) through the active policy.
 */
TEST(FaultSim, EveryPolicySurvivesHalfTheClusterFailing)
{
    SimConfig config = shortRun(20, 0.2);
    config.faults.plan = halfClusterOutage();

    const std::vector<NamedPolicy> policies = {
        {"rr",
         [](const SimConfig &c) {
             RoundRobinScheduler s;
             return runSimulation(c, s);
         }},
        {"cf",
         [](const SimConfig &c) {
             CoolestFirstScheduler s;
             return runSimulation(c, s);
         }},
        {"switchover",
         [](const SimConfig &c) {
             RoundRobinScheduler before;
             CoolestFirstScheduler after;
             SwitchoverScheduler s(before, after, 0.1 * kHour);
             return runSimulation(c, s);
         }},
        {"ta",
         [](const SimConfig &c) {
             VmtTaScheduler s(bench::studyVmt(22.0),
                              hotMaskFromPaper());
             return runSimulation(c, s);
         }},
        {"wa",
         [](const SimConfig &c) {
             VmtWaScheduler s = waScheduler();
             return runSimulation(c, s);
         }},
        {"preserve",
         [](const SimConfig &c) {
             VmtPreserveScheduler s(bench::studyVmt(22.0),
                                    hotMaskFromPaper());
             return runSimulation(c, s);
         }},
        {"adaptive",
         [](const SimConfig &c) {
             AdaptiveVmtScheduler s(bench::studyVmt(22.0),
                                    hotMaskFromPaper());
             return runSimulation(c, s);
         }},
    };

    for (const NamedPolicy &policy : policies) {
        SCOPED_TRACE(policy.name);
        const SimResult r = policy.run(config);
        ASSERT_EQ(r.aliveServers.size(), 12u);
        EXPECT_EQ(r.aliveServers.trough(), 10.0);
        EXPECT_EQ(r.aliveServers.at(r.aliveServers.size() - 1), 11.0);
        EXPECT_GT(r.placedJobs, 0u);
        // The failed half held work: it was re-placed or counted.
        EXPECT_GT(r.evacuatedJobs + r.lostJobs, 0u);
    }
}

TEST(FaultSim, Eq1SizesTheHotGroupOverAliveServers)
{
    // Clean 20-server TA run: Eq. 1 gives round(22/35.7 x 20) = 12.
    SimConfig clean = shortRun(20, 0.1);
    VmtTaScheduler ta(bench::studyVmt(22.0), hotMaskFromPaper());
    const SimResult reference = runSimulation(clean, ta);
    EXPECT_EQ(reference.hotGroupSizeSeries.peak(), 12.0);
    EXPECT_EQ(reference.hotGroupSizeSeries.trough(), 12.0);

    // With half the cluster down from t=0 the group sizes over the
    // 10 alive servers: round(22/35.7 x 10) = 6.
    SimConfig faulted = clean;
    std::string text;
    for (int id = 0; id < 10; ++id)
        text += "0 server-down " + std::to_string(id) + "\n";
    faulted.faults.plan = FaultPlan::parse(text);
    VmtTaScheduler degraded(bench::studyVmt(22.0),
                            hotMaskFromPaper());
    const SimResult r = runSimulation(faulted, degraded);
    EXPECT_EQ(r.hotGroupSizeSeries.peak(), 6.0);
    EXPECT_EQ(r.hotGroupSizeSeries.trough(), 6.0);
}

TEST(FaultSim, MasterSwitchAloneIsBitwiseInert)
{
    // faults.enable with no plan, rates or threshold runs the engine
    // but must not perturb a single bit of the result — this is the
    // empty-plan overhead configuration the benchmark measures.
    const SimConfig clean = shortRun(20, 0.2);
    VmtWaScheduler a = waScheduler();
    const SimResult reference = runSimulation(clean, a);

    SimConfig switched = clean;
    switched.faults.enable = true;
    VmtWaScheduler b = waScheduler();
    expectResultsIdentical(reference, runSimulation(switched, b));
}

TEST(FaultSim, AllServersDownLosesWorkAndTheRunSurvives)
{
    SimConfig config = shortRun(20, 0.2);
    std::vector<FaultEvent> events;
    for (std::size_t id = 0; id < 20; ++id)
        events.push_back({0.05 * kHour, FaultEventType::ServerDown,
                          id, 0.0});
    for (std::size_t id = 0; id < 20; ++id)
        events.push_back({0.15 * kHour, FaultEventType::ServerUp, id,
                          0.0});
    config.faults.plan = FaultPlan(std::move(events));

    VmtWaScheduler wa = waScheduler();
    const SimResult r = runSimulation(config, wa);
    EXPECT_EQ(r.aliveServers.trough(), 0.0);
    EXPECT_EQ(r.aliveServers.at(r.aliveServers.size() - 1), 20.0);
    // With no alive server the evacuated work has nowhere to go and
    // fresh arrivals bounce: both unserved-demand counters fire.
    EXPECT_GT(r.lostJobs, 0u);
    EXPECT_GT(r.droppedJobs, 0u);
}

TEST(FaultSim, ThermalEmergencyQuarantinesAndCountsCriticalTime)
{
    // A 15 K derate pushes the room past the 30 C critical line;
    // servers shed load until they cool back below the band.
    SimConfig config = shortRun(20, 0.3);
    config.faults.plan = FaultPlan::parse("0 cooling-derate 15\n");
    config.faults.criticalTemp = 30.0;

    VmtWaScheduler wa = waScheduler();
    const SimResult r = runSimulation(config, wa);
    EXPECT_GT(r.criticalServerIntervals, 0u);
    // Quarantine sheds load but never kills servers.
    EXPECT_EQ(r.aliveServers.trough(), 20.0);
    EXPECT_EQ(r.lostJobs, 0u);
}

/** Fault scenario exercising scripted, stochastic and cooling events
 *  together on a cluster large enough for the parallel thermal path
 *  (>= 256 servers). */
SimConfig
stochasticScenario(std::size_t servers, double hours)
{
    SimConfig config = shortRun(servers, hours);
    config.faults.plan =
        FaultPlan::parse("0.2 server-down 5\n"
                         "0.2 server-down 130\n"
                         "0.3 cooling-derate 6\n"
                         "0.7 cooling-restore\n"
                         "0.8 server-up 5\n");
    config.faults.mtbf = 20.0;
    config.faults.repairTime = 0.2;
    config.faults.seed = 11;
    return config;
}

TEST(FaultSim, FaultedRunIsBitwiseIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const SimConfig config = stochasticScenario(300, 1.0);

    setGlobalThreadCount(1);
    VmtWaScheduler serial = waScheduler();
    const SimResult reference = runSimulation(config, serial);
    // The scenario actually degrades the run — otherwise this test
    // would pass vacuously.
    EXPECT_LT(reference.aliveServers.trough(), 300.0);
    EXPECT_GT(reference.evacuatedJobs + reference.lostJobs, 0u);

    setGlobalThreadCount(4);
    VmtWaScheduler parallel = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(config, parallel));
}

TEST(FaultSim, CheckpointResumeReproducesAFaultedRunBitwise)
{
    const std::string path =
        reference::scratchPath("fault_resume.snap");
    std::remove(path.c_str());

    SimConfig config = shortRun(20, 0.2);
    config.faults.plan = halfClusterOutage();
    config.faults.mtbf = 0.5; // Visible churn on a 12-interval run.
    config.faults.repairTime = 0.05;
    config.faults.criticalTemp = 60.0; // Counted, never triggered.

    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // Writing the snapshot mid-run must itself be unperturbing.
    SimConfig saving = config;
    saving.checkpointHook = [&path](const SimState &state,
                                    std::size_t completed) {
        if (completed == 6)
            saveSnapshot(state, completed, path);
    };
    VmtWaScheduler interrupted = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(saving, interrupted));

    // A fresh driver + scheduler resumed from the snapshot finishes
    // with the identical result, fault telemetry included.
    SimConfig resuming = config;
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(resuming, options);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

TEST(FaultSim, FormatV1DriverSnapshotStillResumes)
{
    // tests/state/data/driver_v1.snap was written by a pre-fault
    // (format v1) build: studyConfig(20), 0.2 h, VMT-WA at GV 22,
    // checkpointed after interval 6. Resuming it must reproduce the
    // clean run bitwise — the fault layer defaults to the missing
    // FALT section's implied state (all servers Up).
    const SimConfig config = shortRun(20, 0.2);
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    SimConfig resuming = config;
    CheckpointOptions options;
    options.resumeFrom =
        std::string(VMT_TEST_DATA_DIR) + "/driver_v1.snap";
    attachCheckpointing(resuming, options);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
}

TEST(FaultSim, FormatV1SnapshotCannotResumeAFaultedRun)
{
    // A v1 snapshot has no fault-engine state; resuming it into a
    // run with faults configured must fail loudly, not guess.
    SimConfig config = shortRun(20, 0.2);
    config.faults.enable = true;
    CheckpointOptions options;
    options.resumeFrom =
        std::string(VMT_TEST_DATA_DIR) + "/driver_v1.snap";
    attachCheckpointing(config, options);
    VmtWaScheduler resumed = waScheduler();
    EXPECT_THROW(runSimulation(config, resumed), FatalError);
}

TEST(FaultSim, PcmRidesThroughACracOutage)
{
    // One-hour CRAC outage: +12 K supply rise for 0.2 h mid-run. The
    // wax must clip the excursion — peak air temperature with PCM
    // strictly below the no-wax baseline (vanishing wax volume), with
    // actual melting observed during the outage.
    SimConfig config = shortRun(20, 0.3);
    // Hold the trace at its busy plateau (the built-in diurnal shape
    // spends hour 0 in the trough, where the hot group runs too cool
    // to melt anything in a 12-minute excursion).
    config.trace.customShape = {{0.0, 0.9}, {0.3, 0.9}};
    config.faults.plan = FaultPlan::parse("0.05 cooling-derate 12\n"
                                          "0.25 cooling-restore\n");

    VmtWaScheduler with_wax = waScheduler();
    const SimResult pcm = runSimulation(config, with_wax);

    SimConfig bare = config;
    bare.thermal.pcm.volume = 1e-6; // Negligible latent capacity.
    VmtWaScheduler without_wax = waScheduler();
    const SimResult no_pcm = runSimulation(bare, without_wax);

    // The derate reached the cold aisle in both runs.
    EXPECT_EQ(pcm.inletTemp.peak(),
              config.thermal.inletTemp + 12.0);
    EXPECT_EQ(no_pcm.inletTemp.peak(),
              config.thermal.inletTemp + 12.0);
    // The wax melted into the excursion and bought headroom.
    EXPECT_GT(pcm.maxMeltFraction, 0.0);
    EXPECT_LT(pcm.maxAirTemp, no_pcm.maxAirTemp);
}

} // namespace
} // namespace vmt
