/**
 * @file
 * Determinism suite for the parallel execution subsystem: every
 * parallel path (datacenter cluster fan-out, chunked thermal
 * stepping) must produce results bitwise identical to the serial
 * path at any thread count. Double comparisons here are deliberately
 * exact (EXPECT_EQ, not EXPECT_NEAR).
 *
 * The binary carries the ctest label "parallel" so it can be run
 * alone under TSan: cmake -DVMT_SANITIZE=thread && ctest -L parallel.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "reference/rc_node.h"
#include "sched/round_robin.h"
#include "server/cluster.h"
#include "sim/datacenter_sim.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

/** Cluster size from which stepThermal fans out on the pool (the
 *  constant in server/cluster.cc). */
constexpr std::size_t kParallelFrom = 256;

DatacenterSimConfig
smallDc(std::size_t clusters = 4)
{
    DatacenterSimConfig config;
    config.numClusters = clusters;
    config.cluster.numServers = 20;
    config.cluster.trace.duration = 6.0;
    return config;
}

DatacenterSimResult
runWithThreads(std::size_t threads, const DatacenterSimConfig &config)
{
    setGlobalThreadCount(threads);
    return runDatacenter(config, [](std::size_t) {
        return std::make_unique<RoundRobinScheduler>();
    });
}

void
expectSeriesIdentical(const TimeSeries &a, const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << "interval " << i;
}

TEST(ParallelDeterminism, DatacenterRunIsThreadCountInvariant)
{
    ThreadCountGuard guard;
    const DatacenterSimConfig config = smallDc();
    const DatacenterSimResult serial = runWithThreads(1, config);
    const DatacenterSimResult parallel = runWithThreads(4, config);

    EXPECT_EQ(serial.peakCoolingLoad, parallel.peakCoolingLoad);
    EXPECT_EQ(serial.sumOfClusterPeaks, parallel.sumOfClusterPeaks);
    expectSeriesIdentical(serial.coolingLoad, parallel.coolingLoad);
    expectSeriesIdentical(serial.totalPower, parallel.totalPower);

    ASSERT_EQ(serial.clusterSeeds.size(),
              parallel.clusterSeeds.size());
    EXPECT_EQ(serial.clusterSeeds, parallel.clusterSeeds);
    ASSERT_EQ(serial.clusterPhaseOffsets.size(),
              parallel.clusterPhaseOffsets.size());
    for (std::size_t c = 0; c < serial.clusterPhaseOffsets.size();
         ++c)
        EXPECT_EQ(serial.clusterPhaseOffsets[c],
                  parallel.clusterPhaseOffsets[c]);

    ASSERT_EQ(serial.clusters.size(), parallel.clusters.size());
    for (std::size_t c = 0; c < serial.clusters.size(); ++c) {
        EXPECT_EQ(serial.clusters[c].peakCoolingLoad,
                  parallel.clusters[c].peakCoolingLoad);
        EXPECT_EQ(serial.clusters[c].placedJobs,
                  parallel.clusters[c].placedJobs);
        expectSeriesIdentical(serial.clusters[c].coolingLoad,
                              parallel.clusters[c].coolingLoad);
    }
}

TEST(ParallelDeterminism, DatacenterSeedsMatchPreDrawContract)
{
    ThreadCountGuard guard;
    DatacenterSimConfig config = smallDc(3);
    config.cluster.seed = 11;
    const DatacenterSimResult r = runWithThreads(4, config);
    ASSERT_EQ(r.clusterSeeds.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(r.clusterSeeds[c], 11 + 1000 * (c + 1));
}

/** A 1,000-server cluster with a non-uniform load pattern. */
Cluster
bigCluster()
{
    Cluster cluster(1000, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.77));
    // Uneven occupancy so per-server temperatures diverge.
    for (std::size_t id = 0; id < cluster.numServers(); ++id) {
        const std::size_t jobs = id % 5;
        for (std::size_t j = 0; j < jobs; ++j)
            cluster.addJob(id, j % 2 == 0
                                   ? WorkloadType::WebSearch
                                   : WorkloadType::VideoEncoding);
    }
    return cluster;
}

TEST(ParallelDeterminism, StepThermalParallelMatchesSerialBitwise)
{
    ThreadCountGuard guard;
    ASSERT_GE(1000u, kParallelFrom)
        << "test cluster must take the parallel path";

    setGlobalThreadCount(1); // Reference: the serial fused loop.
    Cluster serial_cluster = bigCluster();
    std::vector<ClusterSample> serial_samples;
    for (int step = 0; step < 30; ++step)
        serial_samples.push_back(
            serial_cluster.stepThermal(60.0, 35.0));
    const Watts serial_power = serial_cluster.totalPower();

    setGlobalThreadCount(4); // Chunked parallel path.
    Cluster parallel_cluster = bigCluster();
    for (int step = 0; step < 30; ++step) {
        const ClusterSample s =
            parallel_cluster.stepThermal(60.0, 35.0);
        const ClusterSample &ref =
            serial_samples[static_cast<std::size_t>(step)];
        ASSERT_EQ(ref.totalPower, s.totalPower) << "step " << step;
        ASSERT_EQ(ref.coolingLoad, s.coolingLoad) << "step " << step;
        ASSERT_EQ(ref.waxHeatFlow, s.waxHeatFlow) << "step " << step;
        ASSERT_EQ(ref.meanAirTemp, s.meanAirTemp) << "step " << step;
        ASSERT_EQ(ref.meanMeltFraction, s.meanMeltFraction)
            << "step " << step;
        ASSERT_EQ(ref.maxAirTemp, s.maxAirTemp) << "step " << step;
        ASSERT_EQ(ref.serversAboveThreshold, s.serversAboveThreshold)
            << "step " << step;
        ASSERT_EQ(ref.throttledServers, s.throttledServers)
            << "step " << step;
    }
    EXPECT_EQ(serial_power, parallel_cluster.totalPower());

    // Per-server state must match too, not just the aggregates.
    for (std::size_t id = 0; id < serial_cluster.numServers(); ++id) {
        ASSERT_EQ(serial_cluster.server(id).airTemp(),
                  parallel_cluster.server(id).airTemp())
            << "server " << id;
        ASSERT_EQ(serial_cluster.server(id).waxMeltFraction(),
                  parallel_cluster.server(id).waxMeltFraction())
            << "server " << id;
    }
}

// ---------------------------------------------------------------------
// Cache regression tests: the hot-path caches (RcNode step gain,
// per-server power, cluster aggregate power) must reproduce the
// pre-cache computations bit for bit. Each test recomputes the
// historical expression inline and compares with EXPECT_EQ.
// ---------------------------------------------------------------------

TEST(CacheRegression, RcNodeStepMatchesDirectFormula)
{
    const Seconds tau = 120.0;
    RcNode node(tau, 25.0);
    Celsius reference = 25.0;
    // Varying targets at a fixed dt (the cached regime), then a dt
    // change mid-run to force a gain recompute, then the original dt
    // again.
    const Seconds dts[] = {60.0, 60.0, 60.0, 15.0, 15.0, 60.0, 60.0};
    Celsius target = 55.0;
    for (const Seconds dt : dts) {
        node.step(target, dt);
        reference += (target - reference) *
                     (1.0 - std::exp(-dt / tau));
        ASSERT_EQ(reference, node.temperature()) << "dt " << dt;
        target += 7.5; // Exercise distinct targets per step.
    }
}

TEST(CacheRegression, ServerPowerMatchesUncachedFormula)
{
    const ServerSpec spec;
    const ServerThermalParams thermal;
    const PowerModel model(spec, 1.77);
    Cluster cluster(1, spec, thermal, model);
    const Server &srv = std::as_const(cluster).server(0);

    const auto uncached = [&]() {
        // The historical per-call computation, written out in full.
        const Watts nominal = model.serverPower(srv.coreCounts());
        if (!srv.throttled())
            return nominal;
        const Watts idle = model.spec().idlePower;
        return idle +
               (nominal - idle) * thermal.throttleFactor;
    };

    EXPECT_EQ(uncached(), srv.power(model));
    cluster.addJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(uncached(), srv.power(model));
    cluster.addJob(0, WorkloadType::VideoEncoding);
    EXPECT_EQ(uncached(), srv.power(model));
    // Repeated reads serve the cache; the value must not drift.
    EXPECT_EQ(srv.power(model), srv.power(model));
    cluster.removeJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(uncached(), srv.power(model));
}

TEST(CacheRegression, ThrottledServerPowerMatchesUncachedFormula)
{
    // A junction limit below ambient guarantees the first thermal
    // step flips the server into the throttled state.
    const ServerSpec spec;
    ServerThermalParams thermal;
    thermal.cpuLimit = 1.0;
    const PowerModel model(spec, 1.77);
    Cluster cluster(1, spec, thermal, model);
    for (std::size_t core = 0; core < spec.cores(); ++core)
        cluster.addJob(0, WorkloadType::WebSearch);
    cluster.stepThermal(60.0);

    const Server &srv = std::as_const(cluster).server(0);
    ASSERT_TRUE(srv.throttled());
    const Watts nominal = model.serverPower(srv.coreCounts());
    const Watts idle = model.spec().idlePower;
    const Watts expected =
        idle + (nominal - idle) * thermal.throttleFactor;
    EXPECT_EQ(expected, srv.power(model));
}

TEST(CacheRegression, TotalPowerMatchesSerialRecompute)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster = bigCluster();
    const PowerModel &model = cluster.powerModel();

    const auto serial_recompute = [&]() {
        Watts total = 0.0;
        for (std::size_t id = 0; id < cluster.numServers(); ++id)
            total +=
                std::as_const(cluster).server(id).power(model);
        return total;
    };

    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    // Cached read must equal the first.
    EXPECT_EQ(serial_recompute(), cluster.totalPower());

    cluster.addJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    cluster.removeJob(3, WorkloadType::VideoEncoding);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    cluster.stepThermal(60.0);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
}

TEST(ParallelDeterminism, SmallClusterStaysOnSerialPath)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(4);
    // Below the threshold the fused serial loop runs even with a
    // multi-thread pool; this documents the cutover contract.
    Cluster small(100, ServerSpec{}, ServerThermalParams{},
                  PowerModel({}, 1.77));
    EXPECT_LT(small.numServers(), kParallelFrom);
    const ClusterSample s = small.stepThermal(60.0);
    EXPECT_GT(s.coolingLoad, 0.0);
}

} // namespace
} // namespace vmt
