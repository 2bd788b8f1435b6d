/**
 * @file
 * Unit tests for cluster-level QoS monitoring.
 */

#include <gtest/gtest.h>

#include "qos/qos_monitor.h"
#include "sched/round_robin.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace vmt {
namespace {

Cluster
makeCluster(std::size_t n = 4)
{
    return Cluster(n, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.77));
}

TEST(QosMonitor, IdleClusterSamplesNothing)
{
    const Cluster c = makeCluster();
    const QosMonitor monitor;
    const QosSample s = monitor.sample(c);
    EXPECT_EQ(s.serversSampled, 0u);
    EXPECT_EQ(s.cachingMean, 0.0);
    EXPECT_EQ(s.searchMean, 0.0);
}

TEST(QosMonitor, ValidatesLoads)
{
    EXPECT_THROW(QosMonitor({}, 0.0), FatalError);
    EXPECT_THROW(QosMonitor({}, 1000.0, -1.0), FatalError);
}

TEST(QosMonitor, CachingOnlyServerReportsCachingLatency)
{
    Cluster c = makeCluster();
    // 16 caching cores = 4 per socket.
    for (int i = 0; i < 16; ++i)
        c.addJob(0, WorkloadType::DataCaching);
    const QosMonitor monitor;
    const QosSample s = monitor.sample(c);
    EXPECT_EQ(s.serversSampled, 1u);
    EXPECT_GT(s.cachingMean, 0.0);
    EXPECT_GT(s.cachingWorstP90, s.cachingMean);
    EXPECT_EQ(s.searchMean, 0.0);
}

TEST(QosMonitor, ColocationWorsensSearchLatency)
{
    const QosMonitor monitor;
    const ServerSpec spec;

    // Server 0 runs search alone; server 1 adds caching beside it.
    Cluster c(2, spec, ServerThermalParams{}, PowerModel(spec, 1.0));
    for (int i = 0; i < 16; ++i) {
        c.addJob(0, WorkloadType::WebSearch);
        c.addJob(1, WorkloadType::WebSearch);
        c.addJob(1, WorkloadType::DataCaching);
    }

    const QosSample a = monitor.sampleServer(c.server(0), spec);
    const QosSample b = monitor.sampleServer(c.server(1), spec);
    EXPECT_GT(b.searchMean, a.searchMean);
}

TEST(QosMonitor, ClusterAggregatesMeanAndWorst)
{
    Cluster c = makeCluster(3);
    // Server 0: lightly loaded caching; server 1: heavily mixed.
    for (int i = 0; i < 8; ++i)
        c.addJob(0, WorkloadType::DataCaching);
    for (int i = 0; i < 8; ++i)
        c.addJob(1, WorkloadType::DataCaching);
    for (int i = 0; i < 20; ++i)
        c.addJob(1, WorkloadType::Clustering);
    const QosMonitor monitor;
    const QosSample s = monitor.sample(c);
    EXPECT_EQ(s.serversSampled, 2u);
    const QosSample worst = monitor.sampleServer(
        c.server(1), c.powerModel().spec());
    EXPECT_DOUBLE_EQ(s.cachingWorstP90, worst.cachingWorstP90);
}

TEST(QosMonitor, WorksAsSimulationObserver)
{
    SimConfig config;
    config.numServers = 10;
    config.trace.duration = 2.0;
    RoundRobinScheduler rr;
    const QosMonitor monitor;
    std::size_t calls = 0;
    Seconds worst_caching = 0.0;
    const SimResult result = runSimulation(
        config, rr, [&](const Cluster &cluster, std::size_t) {
            ++calls;
            const QosSample s = monitor.sample(cluster);
            worst_caching =
                std::max(worst_caching, s.cachingWorstP90);
        });
    EXPECT_EQ(calls, result.coolingLoad.size());
    EXPECT_GT(worst_caching, 0.0);
}

} // namespace
} // namespace vmt
