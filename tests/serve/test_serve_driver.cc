/**
 * @file
 * Integration tests for the sharded serving driver: job-count
 * conservation through admission control, bitwise determinism across
 * thread counts, checkpoint/resume equivalence of the telemetry
 * stream, the queue-vs-shed admission policies, natural drain of a
 * finite feed, and the cooperative stop hook.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "reference/scratch_path.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::serve {
namespace {

/** Small fleet / short horizon so every test runs in well under a
 *  second; heavy enough traffic that admission control engages. */
ServeConfig
smallConfig()
{
    ServeConfig config;
    config.numServers = 24;
    config.podSize = 7; // 3 full shards + a remainder shard of 3.
    config.policy = "wa";
    config.maxIntervals = 20;
    config.keepTelemetry = true;
    return config;
}

SyntheticFeedParams
busyFeed()
{
    // ~4 jobs/second against a 24-server fleet: enough pressure that
    // the ring, the waterfill and the requeue path all engage.
    SyntheticFeedParams params;
    params.users = 14400.0;
    params.requestsPerUserHour = 1.0;
    params.diurnalTrough = 1.0; // Flat — short runs see full load.
    params.seed = 21;
    return params;
}

ServeResult
runSmall(const ServeConfig &config, const SyntheticFeedParams &params)
{
    SyntheticFeed feed(params);
    ShardedDriver driver(config);
    return driver.run(feed);
}

TEST(ServeDriver, ShardPartitionCoversTheFleet)
{
    ShardedDriver driver(smallConfig());
    EXPECT_EQ(driver.numShards(), 4u);

    ServeConfig exact = smallConfig();
    exact.podSize = 8;
    EXPECT_EQ(ShardedDriver(exact).numShards(), 3u);

    ServeConfig one = smallConfig();
    one.podSize = 64; // Pod larger than the fleet: one shard.
    EXPECT_EQ(ShardedDriver(one).numShards(), 1u);
}

TEST(ServeDriver, RejectsMalformedConfig)
{
    ServeConfig config = smallConfig();
    config.numServers = 0;
    EXPECT_THROW(ShardedDriver{config}, FatalError);
    config = smallConfig();
    config.podSize = 0;
    EXPECT_THROW(ShardedDriver{config}, FatalError);
    config = smallConfig();
    config.queueCapacity = 0;
    EXPECT_THROW(ShardedDriver{config}, FatalError);
    config = smallConfig();
    config.policy = "definitely-not-a-policy";
    EXPECT_THROW(ShardedDriver{config}, FatalError);
}

TEST(ServeDriver, AdmitPolicyNamesRoundTrip)
{
    EXPECT_EQ(admitPolicyFromString("queue"), AdmitPolicy::Queue);
    EXPECT_EQ(admitPolicyFromString("shed"), AdmitPolicy::Shed);
    EXPECT_STREQ(admitPolicyName(AdmitPolicy::Queue), "queue");
    EXPECT_STREQ(admitPolicyName(AdmitPolicy::Shed), "shed");
    EXPECT_THROW(admitPolicyFromString("drop"), FatalError);
}

TEST(ServeDriver, ConservesEveryJobThroughAdmission)
{
    const ServeResult result = runSmall(smallConfig(), busyFeed());

    EXPECT_EQ(result.completedIntervals, 20u);
    EXPECT_GT(result.arrivals, 0u);
    // Every arrival is admitted, shed, or still queued...
    EXPECT_EQ(result.arrivals,
              result.admitted + result.shed + result.finalQueueDepth);
    // ...every admitted job was placed or (never, in practice)
    // dropped by its shard...
    EXPECT_EQ(result.admitted, result.placed + result.droppedJobs);
    EXPECT_EQ(result.droppedJobs, 0u);
    // ...and every placed job has either finished or is in flight.
    EXPECT_EQ(result.placed,
              result.completedJobs + result.finalInFlight);
    EXPECT_LE(result.finalQueueDepth, result.peakQueueDepth);
    EXPECT_GT(result.peakPower, 0.0);
    EXPECT_GT(result.peakCoolingLoad, 0.0);
}

TEST(ServeDriver, AdmissionBudgetCapsPlacementsPerInterval)
{
    ServeConfig config = smallConfig();
    config.admissionBudget = 5;
    const ServeResult result = runSmall(config, busyFeed());
    // 20 intervals x budget 5: at most 100 admissions.
    EXPECT_LE(result.admitted, 100u);
    EXPECT_EQ(result.arrivals,
              result.admitted + result.shed + result.finalQueueDepth);
    // The busy feed outruns the budget, so the ring holds a backlog.
    EXPECT_GT(result.finalQueueDepth, 0u);
}

TEST(ServeDriver, ShedPolicyNeverCarriesBacklog)
{
    ServeConfig config = smallConfig();
    config.admit = AdmitPolicy::Shed;
    config.admissionBudget = 5;
    const ServeResult result = runSmall(config, busyFeed());
    // The ring is emptied at every boundary: no final backlog, and
    // the overflow shows up as shed jobs instead.
    EXPECT_EQ(result.finalQueueDepth, 0u);
    EXPECT_EQ(result.requeued, 0u);
    EXPECT_GT(result.shed, 0u);
    EXPECT_EQ(result.arrivals, result.admitted + result.shed);
}

TEST(ServeDriver, TinyRingShedsOverflowUnderQueuePolicy)
{
    ServeConfig config = smallConfig();
    config.queueCapacity = 8;
    const ServeResult result = runSmall(config, busyFeed());
    EXPECT_GT(result.shed, 0u);
    EXPECT_LE(result.finalQueueDepth, 8u);
    EXPECT_LE(result.peakQueueDepth, 8u);
    EXPECT_EQ(result.arrivals,
              result.admitted + result.shed + result.finalQueueDepth);
}

TEST(ServeDriver, TelemetryIsBitwiseIdenticalAcrossThreadCounts)
{
    setGlobalThreadCount(1);
    const ServeResult serial = runSmall(smallConfig(), busyFeed());
    setGlobalThreadCount(4);
    const ServeResult parallel = runSmall(smallConfig(), busyFeed());
    setGlobalThreadCount(0);

    ASSERT_FALSE(serial.telemetry.empty());
    EXPECT_EQ(serial.telemetry, parallel.telemetry);
    EXPECT_EQ(serial.arrivals, parallel.arrivals);
    EXPECT_EQ(serial.admitted, parallel.admitted);
    EXPECT_EQ(serial.completedJobs, parallel.completedJobs);
    EXPECT_DOUBLE_EQ(serial.peakCoolingLoad, parallel.peakCoolingLoad);
    EXPECT_DOUBLE_EQ(serial.maxAirTemp, parallel.maxAirTemp);
}

TEST(ServeDriver, ResumeProducesBitwiseIdenticalTelemetry)
{
    const std::string ckpt =
        reference::scratchPath("serve_resume.ckpt");

    // Reference: 20 intervals straight through.
    ServeConfig reference = smallConfig();
    const ServeResult full = runSmall(reference, busyFeed());

    // First leg: stop at 12 intervals, checkpointing.
    ServeConfig first = smallConfig();
    first.maxIntervals = 12;
    first.checkpointEvery = 4;
    first.checkpointPath = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(first);
        const ServeResult leg = driver.run(feed);
        EXPECT_EQ(leg.completedIntervals, 12u);
        EXPECT_EQ(leg.finalCheckpoint, ckpt);
    }

    // Second leg: resume to 20.
    ServeConfig second = smallConfig();
    second.maxIntervals = 20;
    second.checkpointEvery = 4;
    second.checkpointPath = ckpt;
    second.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(second);
    const ServeResult resumed = driver.run(feed);
    std::remove(ckpt.c_str());

    EXPECT_EQ(resumed.resumedIntervals, 12u);
    EXPECT_EQ(resumed.completedIntervals, 20u);

    // The resumed leg's telemetry must equal the reference tail.
    const std::size_t tail_start = [&] {
        std::size_t seen = 0, pos = 0;
        while (seen < 12 && pos < full.telemetry.size()) {
            pos = full.telemetry.find('\n', pos) + 1;
            ++seen;
        }
        return pos;
    }();
    ASSERT_FALSE(resumed.telemetry.empty());
    EXPECT_EQ(resumed.telemetry, full.telemetry.substr(tail_start));

    // Cumulative totals match the straight-through run exactly.
    EXPECT_EQ(resumed.arrivals, full.arrivals);
    EXPECT_EQ(resumed.admitted, full.admitted);
    EXPECT_EQ(resumed.shed, full.shed);
    EXPECT_EQ(resumed.placed, full.placed);
    EXPECT_EQ(resumed.completedJobs, full.completedJobs);
    EXPECT_EQ(resumed.finalQueueDepth, full.finalQueueDepth);
    EXPECT_EQ(resumed.finalInFlight, full.finalInFlight);
    EXPECT_DOUBLE_EQ(resumed.peakCoolingLoad, full.peakCoolingLoad);
    EXPECT_DOUBLE_EQ(resumed.maxMeltFraction, full.maxMeltFraction);
}

/**
 * Observability survives a resume: a run stopped at interval 10 and
 * resumed into a fresh Observability ends with the event log and the
 * deterministic metric values of an uninterrupted run — on a clean
 * run and on a degraded one, whose fault metrics are registered too.
 */
TEST(ServeDriver, ResumeRestoresObservability)
{
    for (const bool degraded : {false, true}) {
        SCOPED_TRACE(degraded ? "degraded" : "clean");
        ServeConfig config = smallConfig();
        if (degraded) {
            config.faults.mtbf = 2.0;
            config.faults.repairTime = 0.1;
        }
        const std::string ckpt =
            reference::scratchPath("serve_obs_resume.ckpt");

        obs::Observability reference;
        ServeConfig straight = config;
        straight.obs = &reference;
        runSmall(straight, busyFeed());

        ServeConfig first = config;
        first.checkpointEvery = 4;
        first.checkpointPath = ckpt;
        {
            obs::Observability interrupted;
            first.obs = &interrupted;
            SyntheticFeed feed(busyFeed());
            ShardedDriver driver(first);
            std::size_t polls = 0;
            const ServeResult leg =
                driver.run(feed, [&polls] { return ++polls > 10; });
            ASSERT_EQ(leg.completedIntervals, 10u);
        }

        obs::Observability resumed;
        ServeConfig second = first;
        second.resumeFrom = ckpt;
        second.obs = &resumed;
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(second);
        EXPECT_EQ(driver.run(feed).resumedIntervals, 10u);
        std::remove(ckpt.c_str());
        std::remove((ckpt + ".prev").c_str());

        EXPECT_EQ(resumed.telemetry().eventLog(),
                  reference.telemetry().eventLog());
        const std::vector<obs::MetricValue> a =
            reference.metrics().snapshotValues(false);
        const std::vector<obs::MetricValue> b =
            resumed.metrics().snapshotValues(false);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].name, b[i].name);
            EXPECT_EQ(a[i].values, b[i].values) << a[i].name;
        }
    }
}

TEST(ServeDriver, FormatV2SnapshotStillResumes)
{
    // tests/state/data/serve_v2.snap was written by a format v2 build
    // (SHRD held a job slot table, freelist, residency lists and
    // timed departures): smallConfig() and busyFeed(), checkpointed
    // after interval 4. The loader converts that ledger to departure
    // records, and the resumed run reproduces the uninterrupted one.
    const ServeResult full = runSmall(smallConfig(), busyFeed());
    ServeConfig resume = smallConfig();
    resume.resumeFrom =
        std::string(VMT_TEST_DATA_DIR) + "/serve_v2.snap";
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(resume);
    const ServeResult resumed = driver.run(feed);

    EXPECT_EQ(resumed.resumedIntervals, 4u);
    std::size_t tail_start = 0;
    for (int line = 0; line < 4; ++line)
        tail_start = full.telemetry.find('\n', tail_start) + 1;
    EXPECT_EQ(resumed.telemetry, full.telemetry.substr(tail_start));
    EXPECT_EQ(resumed.completedJobs, full.completedJobs);
    EXPECT_EQ(resumed.finalInFlight, full.finalInFlight);
}

TEST(ServeDriver, ResumeRefusesAMismatchedConfig)
{
    const std::string ckpt =
        reference::scratchPath("serve_mismatch.ckpt");
    ServeConfig first = smallConfig();
    first.maxIntervals = 4;
    first.checkpointEvery = 2;
    first.checkpointPath = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(first);
        driver.run(feed);
    }

    ServeConfig wrong = smallConfig();
    wrong.podSize = 12; // Different shard map.
    wrong.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(wrong);
    try {
        driver.run(feed);
        ADD_FAILURE() << "resume accepted a different pod size";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("pod size: snapshot 7, run 12"),
                  std::string::npos)
            << err.what();
    }
    std::remove(ckpt.c_str());
}

TEST(ServeDriver, DrainsAFiniteLineFeedToCompletion)
{
    // 24 servers x spec cores; three bursts then silence. With no
    // maxIntervals the run ends only when everything has departed.
    ServeConfig config = smallConfig();
    config.maxIntervals = 0;
    const std::size_t cores =
        config.numServers * config.spec.cores();
    std::istringstream input("arrive 0 0.25 90\n"
                             "arrive 60 0.5 120\n"
                             "arrive 120 0.25 60\n");
    LineFeed line(input, "<test>", cores);
    ShardedDriver driver(config);
    const ServeResult result = driver.run(line);

    EXPECT_TRUE(result.feedExhausted);
    EXPECT_FALSE(result.stopped);
    EXPECT_EQ(result.finalInFlight, 0u);
    EXPECT_EQ(result.finalQueueDepth, 0u);
    EXPECT_EQ(result.arrivals, result.admitted + result.shed);
    EXPECT_EQ(result.placed, result.completedJobs);
    EXPECT_GT(result.completedJobs, 0u);
    // The last departures land at t = 180s; the loop notices the
    // drained fleet at that boundary and stops (4 intervals).
    EXPECT_EQ(result.completedIntervals, 4u);
}

TEST(ServeDriver, FarDepartureWaitsWithoutExhaustingMemory)
{
    // A job due 1e12 s out waits in its shard's departure queue at
    // the cost of one pending event, not of one bucket per interval
    // up to its departure.
    ServeConfig config = smallConfig();
    config.maxIntervals = 5;
    const std::size_t cores =
        config.numServers * config.spec.cores();
    std::istringstream input("arrive 0 0.25 90\n"
                             "arrive 1 0.001 1e12\n"
                             "arrive 60 0.5 120\n");
    LineFeed line(input, "<test>", cores);
    ShardedDriver driver(config);
    const ServeResult result = driver.run(line);

    EXPECT_EQ(result.completedIntervals, 5u);
    EXPECT_EQ(result.finalInFlight, 1u);
    EXPECT_EQ(result.placed, result.completedJobs + 1);
}

TEST(ServeDriver, UnrepresentableDepartureIsANamedFatal)
{
    // One shard, so the fatal is raised on this thread rather than
    // rethrown from a pool worker.
    ServeConfig config = smallConfig();
    config.podSize = 64;
    config.maxIntervals = 5;
    const std::size_t cores =
        config.numServers * config.spec.cores();
    std::istringstream input("arrive 0 0.001 1e300\n");
    LineFeed line(input, "<test>", cores);
    ShardedDriver driver(config);
    try {
        driver.run(line);
        ADD_FAILURE() << "a departure at 1e300 s was scheduled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1e+300"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeDriver, ProfilesEveryPhaseWithoutChangingOutputs)
{
    // The serial feed pull and admission (ingest, pop, route, requeue)
    // are phases next to the four fan-out ones. Attaching the sink
    // changes no deterministic output, and its serve.* metrics are the
    // same at any thread count.
    const ServeConfig config = smallConfig();
    const ServeResult plain = runSmall(config, busyFeed());

    const auto observed = [&](std::size_t threads,
                              obs::Observability &bundle) {
        setGlobalThreadCount(threads);
        ServeConfig with_obs = config;
        with_obs.obs = &bundle;
        const ServeResult result = runSmall(with_obs, busyFeed());
        setGlobalThreadCount(0);
        return result;
    };
    obs::Observability serial;
    obs::Observability threaded;
    const ServeResult one = observed(1, serial);
    const ServeResult four = observed(4, threaded);

    ASSERT_GT(plain.requeued, 0u);
    EXPECT_EQ(one.telemetry, plain.telemetry);
    EXPECT_EQ(four.telemetry, plain.telemetry);
    EXPECT_EQ(one.arrivals, plain.arrivals);
    EXPECT_EQ(one.admitted, plain.admitted);
    EXPECT_EQ(one.requeued, plain.requeued);
    EXPECT_EQ(one.finalQueueDepth, plain.finalQueueDepth);

    obs::PhaseProfiler &prof = serial.profiler();
    for (const char *phase :
         {"serve.departures", "serve.feed", "serve.admit", "serve.place",
          "serve.thermal"})
        EXPECT_EQ(prof.calls(prof.phase(phase)), config.maxIntervals)
            << phase;
    obs::MetricsRegistry &m = serial.metrics();
    EXPECT_EQ(m.counterValue(m.counter("serve.arrivals_total")),
              plain.arrivals);
    EXPECT_EQ(m.counterValue(m.counter("serve.requeued_total")),
              plain.requeued);

    const std::vector<obs::MetricValue> a =
        serial.metrics().snapshotValues(false);
    const std::vector<obs::MetricValue> b =
        threaded.metrics().snapshotValues(false);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].values, b[i].values) << a[i].name;
    }
}

TEST(ServeDriver, StopRequestEndsTheRunEarly)
{
    ServeConfig config = smallConfig();
    config.maxIntervals = 0; // Only the stop hook ends this run.
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(config);
    std::size_t polls = 0;
    const ServeResult result =
        driver.run(feed, [&polls] { return ++polls >= 6; });
    EXPECT_TRUE(result.stopped);
    EXPECT_FALSE(result.feedExhausted);
    EXPECT_LE(result.completedIntervals, 6u);
}

TEST(ServeDriver, RunIsSingleUse)
{
    ServeConfig config = smallConfig();
    config.maxIntervals = 2;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(config);
    driver.run(feed);
    EXPECT_THROW(driver.run(feed), FatalError);
}

TEST(ServeDriver, TelemetryLinesAreWellFormedAndMonotone)
{
    const ServeResult result = runSmall(smallConfig(), busyFeed());
    std::istringstream lines(result.telemetry);
    std::string line;
    std::size_t count = 0;
    long prev_interval = -1;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        const std::size_t key = line.find("\"interval\":");
        ASSERT_NE(key, std::string::npos) << line;
        const long interval =
            std::stol(line.substr(key + 11));
        EXPECT_EQ(interval, prev_interval + 1);
        prev_interval = interval;
        EXPECT_NE(line.find("\"cooling_w\":"), std::string::npos);
        EXPECT_NE(line.find("\"melt_by_shard\":"),
                  std::string::npos);
        ++count;
    }
    EXPECT_EQ(count, result.completedIntervals);
}

} // namespace
} // namespace vmt::serve
