/**
 * @file
 * Driver-integration bar for the observability layer: counters agree
 * with SimResult, non-`profile.` metrics and the event log are
 * bitwise identical across thread counts and across
 * checkpoint/resume, and resuming a pre-obs snapshot degrades to a
 * warned zero-filled prefix instead of failing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_wa.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "reference/scratch_path.h"
#include "sim/simulation.h"
#include "state/sim_snapshot.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

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
expectMetricsIdentical(const std::vector<obs::MetricValue> &a,
                       const std::vector<obs::MetricValue> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        ASSERT_EQ(a[i].values, b[i].values) << a[i].name;
    }
}

TEST(ObsSim, DriverCountersMatchSimResult)
{
    obs::Observability bundle;
    SimConfig config = shortRun(100, 1.0);
    config.obs = &bundle;
    VmtWaScheduler sched = waScheduler();
    const SimResult result = runSimulation(config, sched);

    obs::MetricsRegistry &m = bundle.metrics();
    EXPECT_EQ(m.counterValue(m.counter("sim.intervals_total")),
              result.coolingLoad.size());
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.placed_total")),
              result.placedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.dropped_total")),
              result.droppedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.evacuated_total")),
              result.evacuatedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.lost_total")),
              result.lostJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.migrations_total")),
              result.migrations);
    EXPECT_EQ(m.gaugeValue(m.gauge("sim.peak_cooling_load_watts")),
              result.peakCoolingLoad);
    EXPECT_EQ(m.gaugeValue(m.gauge("sim.peak_power_watts")),
              result.peakPower);
    EXPECT_EQ(m.gaugeValue(m.gauge("sim.max_air_temp_celsius")),
              result.maxAirTemp);

    // Telemetry mirrors the result series sample for sample.
    expectSeriesIdentical("coolingLoad",
                          bundle.telemetry().coolingLoad(),
                          result.coolingLoad);
    expectSeriesIdentical("meanAirTemp",
                          bundle.telemetry().meanAirTemp(),
                          result.meanAirTemp);
    expectSeriesIdentical("hotGroupSize",
                          bundle.telemetry().hotGroupSize(),
                          result.hotGroupSizeSeries);
    expectSeriesIdentical("meltFraction",
                          bundle.telemetry().meltFraction(),
                          result.meanMeltFraction);
    EXPECT_EQ(bundle.telemetry().intervalsRecorded(),
              result.coolingLoad.size());
}

TEST(ObsSim, AttachingObservabilityDoesNotPerturbTheResult)
{
    const SimConfig plain = shortRun(100, 1.0);
    VmtWaScheduler a = waScheduler();
    const SimResult reference = runSimulation(plain, a);

    obs::Observability bundle;
    SimConfig instrumented = plain;
    instrumented.obs = &bundle;
    VmtWaScheduler b = waScheduler();
    const SimResult observed = runSimulation(instrumented, b);

    expectSeriesIdentical("coolingLoad", reference.coolingLoad,
                          observed.coolingLoad);
    expectSeriesIdentical("meanAirTemp", reference.meanAirTemp,
                          observed.meanAirTemp);
    EXPECT_EQ(reference.placedJobs, observed.placedJobs);
    EXPECT_EQ(reference.peakCoolingLoad, observed.peakCoolingLoad);
}

TEST(ObsSim, DeparturesAndLedgerPhasesAreEnteredEachInterval)
{
    // Two servers fail at hour 1: one interval evacuates.
    SimConfig plain = shortRun(100, 2.0);
    plain.faults.plan =
        FaultPlan::parse("1 server-down 3\n1 server-down 7\n");
    VmtWaScheduler a = waScheduler();
    const SimResult reference = runSimulation(plain, a);
    ASSERT_GT(reference.evacuatedJobs, 0u);

    obs::Observability bundle;
    SimConfig instrumented = plain;
    instrumented.obs = &bundle;
    VmtWaScheduler b = waScheduler();
    runSimulation(instrumented, b);

    // The drain, the scheduler call and the arrivals' records once
    // per interval; the refugees' records once more in the interval
    // that evacuates.
    const std::uint64_t intervals = reference.coolingLoad.size();
    obs::PhaseProfiler &prof = bundle.profiler();
    EXPECT_EQ(prof.calls(prof.phase("departures")), intervals);
    EXPECT_EQ(prof.calls(prof.phase("placement")), intervals);
    EXPECT_EQ(prof.calls(prof.phase("placement.evac")), 1u);
    EXPECT_EQ(prof.calls(prof.phase("ledger")), intervals + 1);

    // The non-profile metrics and the telemetry are those of the run
    // without observability.
    obs::MetricsRegistry &m = bundle.metrics();
    EXPECT_EQ(m.counterValue(m.counter("sim.intervals_total")),
              intervals);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.placed_total")),
              reference.placedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.dropped_total")),
              reference.droppedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.evacuated_total")),
              reference.evacuatedJobs);
    EXPECT_EQ(m.counterValue(m.counter("sim.jobs.lost_total")),
              reference.lostJobs);
    EXPECT_EQ(m.gaugeValue(m.gauge("sim.peak_cooling_load_watts")),
              reference.peakCoolingLoad);
    EXPECT_EQ(m.gaugeValue(m.gauge("sim.max_air_temp_celsius")),
              reference.maxAirTemp);
    expectSeriesIdentical("coolingLoad",
                          bundle.telemetry().coolingLoad(),
                          reference.coolingLoad);
    expectSeriesIdentical("meanAirTemp",
                          bundle.telemetry().meanAirTemp(),
                          reference.meanAirTemp);
    expectSeriesIdentical("meltFraction",
                          bundle.telemetry().meltFraction(),
                          reference.meanMeltFraction);
}

TEST(ObsSim, NonProfileMetricsIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    // 300 servers takes the chunked-parallel thermal path at
    // threads=4, the case where worker threads touch the metrics
    // only through the profile.* namespace.
    const SimConfig base = shortRun(300, 1.0);

    setGlobalThreadCount(1);
    obs::Observability serial;
    SimConfig serial_config = base;
    serial_config.obs = &serial;
    VmtWaScheduler a = waScheduler();
    runSimulation(serial_config, a);

    setGlobalThreadCount(4);
    obs::Observability threaded;
    SimConfig threaded_config = base;
    threaded_config.obs = &threaded;
    VmtWaScheduler b = waScheduler();
    runSimulation(threaded_config, b);

    expectMetricsIdentical(serial.metrics().snapshotValues(false),
                           threaded.metrics().snapshotValues(false));
    EXPECT_EQ(serial.telemetry().eventLog(),
              threaded.telemetry().eventLog());
}

TEST(ObsSim, CheckpointResumeReproducesMetricsAndEventLog)
{
    const std::string path =
        tempSnapshotPath("vmt_obs_resume.snap");
    const SimConfig base = shortRun(100, 1.0);

    obs::Observability reference;
    SimConfig plain = base;
    plain.obs = &reference;
    VmtWaScheduler a = waScheduler();
    const SimResult expected = runSimulation(plain, a);
    const std::size_t at = expected.coolingLoad.size() / 2;
    ASSERT_GT(at, 0u);

    obs::Observability interrupted_obs;
    SimConfig saving = base;
    saving.obs = &interrupted_obs;
    saving.checkpointHook = [at, path](const SimState &state,
                                       std::size_t completed) {
        if (completed == at)
            saveSnapshot(state, completed, path);
    };
    VmtWaScheduler b = waScheduler();
    runSimulation(saving, b);

    // The second leg resumes with one more wall-clock phase than the
    // writer had, as a build that adds a phase does: the snapshot
    // carries no profile.* values, so it still resumes.
    for (const bool extra_phase : {false, true}) {
        SCOPED_TRACE(extra_phase ? "extra phase" : "same phases");
        obs::Observability resumed_obs;
        if (extra_phase)
            resumed_obs.profiler().phase("extra");
        SimConfig resuming = base;
        resuming.obs = &resumed_obs;
        CheckpointOptions options;
        options.resumeFrom = path;
        attachCheckpointing(resuming, options);
        VmtWaScheduler c = waScheduler();
        runSimulation(resuming, c);

        expectMetricsIdentical(
            reference.metrics().snapshotValues(false),
            resumed_obs.metrics().snapshotValues(false));
        EXPECT_EQ(reference.telemetry().eventLog(),
                  resumed_obs.telemetry().eventLog());
    }
    std::remove(path.c_str());
}

TEST(ObsSim, ResumingSnapshotWithoutObsvSectionZeroPads)
{
    const std::string path =
        tempSnapshotPath("vmt_obs_no_obsv.snap");
    const SimConfig base = shortRun(100, 1.0);

    // Write the snapshot from an uninstrumented run: no OBSV section.
    SimConfig saving = base;
    const std::size_t at = 30;
    saving.checkpointHook = [at, path](const SimState &state,
                                       std::size_t completed) {
        if (completed == at)
            saveSnapshot(state, completed, path);
    };
    VmtWaScheduler a = waScheduler();
    const SimResult reference = runSimulation(saving, a);
    ASSERT_GT(reference.coolingLoad.size(), at);

    // Resuming with observability attached must not fail; the
    // completed prefix is zero-filled so interval indices stay
    // aligned, and recording continues from the resume point.
    obs::Observability bundle;
    SimConfig resuming = base;
    resuming.obs = &bundle;
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(resuming, options);
    VmtWaScheduler b = waScheduler();
    const SimResult result = runSimulation(resuming, b);

    const TimeSeries &cooling = bundle.telemetry().coolingLoad();
    ASSERT_EQ(cooling.size(), result.coolingLoad.size());
    for (std::size_t i = 0; i < at; ++i)
        EXPECT_EQ(cooling.at(i), 0.0) << "interval " << i;
    for (std::size_t i = at; i < cooling.size(); ++i)
        EXPECT_EQ(cooling.at(i), result.coolingLoad.at(i))
            << "interval " << i;

    // Counters cover only the resumed suffix.
    obs::MetricsRegistry &m = bundle.metrics();
    EXPECT_EQ(m.counterValue(m.counter("sim.intervals_total")),
              result.coolingLoad.size() - at);
    std::remove(path.c_str());
}

TEST(ObsSim, ExportFailuresNameTheDestinationPath)
{
    obs::Observability bundle;
    bundle.metrics().counter("test.c_total");
    const std::string bad_metrics =
        testing::TempDir() + "no-such-dir-vmt/metrics.prom";
    try {
        bundle.writeMetrics(bad_metrics);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(bad_metrics),
                  std::string::npos);
    }
    const std::string bad_events =
        testing::TempDir() + "no-such-dir-vmt/trace.jsonl";
    try {
        bundle.writeTraceEvents(bad_events);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(bad_events),
                  std::string::npos);
    }
}

TEST(ObsSim, SweepRunnerCountsPointsOnTheGlobalBundle)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(4);
    obs::MetricsRegistry &m = obs::globalObservability().metrics();
    const obs::CounterHandle points = m.counter("sweep.points_total");
    const std::uint64_t before = m.counterValue(points);

    const bench::SweepRunner runner;
    const std::vector<int> doubled =
        runner.map<int>(8, [](std::size_t i) {
            return static_cast<int>(i) * 2;
        });
    ASSERT_EQ(doubled.size(), 8u);
    EXPECT_EQ(doubled[3], 6);
    EXPECT_EQ(m.counterValue(points), before + 8);
}

} // namespace
} // namespace vmt
