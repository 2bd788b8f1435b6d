/**
 * @file
 * Unit tests for the Server object. Servers read their thermal state
 * from the owning Cluster, so each test builds one.
 */

#include <gtest/gtest.h>

#include "server/cluster.h"

namespace vmt {
namespace {

Cluster
makeCluster(double power_scale = 1.0, std::size_t servers = 4)
{
    return Cluster(servers, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, power_scale));
}

TEST(Server, InitialState)
{
    const Cluster c = makeCluster();
    const Server &srv = c.server(3);
    EXPECT_EQ(srv.id(), 3u);
    EXPECT_EQ(srv.cores(), 32u);
    EXPECT_EQ(srv.freeCores(), 32u);
    EXPECT_EQ(srv.busyCores(), 0u);
    EXPECT_TRUE(srv.hasCapacity());
    EXPECT_DOUBLE_EQ(srv.waxMeltFraction(), 0.0);
    EXPECT_DOUBLE_EQ(srv.estimatedMeltFraction(), 0.0);
}

TEST(Server, AddRemoveJobsTracksCounts)
{
    Cluster c = makeCluster();
    Server &srv = c.server(3);
    srv.addJob(WorkloadType::WebSearch);
    srv.addJob(WorkloadType::WebSearch);
    srv.addJob(WorkloadType::VirusScan);
    EXPECT_EQ(srv.busyCores(), 3u);
    EXPECT_EQ(srv.coreCounts()[workloadIndex(WorkloadType::WebSearch)],
              2u);
    srv.removeJob(WorkloadType::WebSearch);
    EXPECT_EQ(srv.busyCores(), 2u);
    EXPECT_EQ(srv.coreCounts()[workloadIndex(WorkloadType::WebSearch)],
              1u);
}

TEST(Server, FillsToCapacity)
{
    Cluster c = makeCluster();
    Server &srv = c.server(3);
    for (std::size_t i = 0; i < srv.cores(); ++i)
        srv.addJob(WorkloadType::DataCaching);
    EXPECT_FALSE(srv.hasCapacity());
    EXPECT_EQ(srv.freeCores(), 0u);
}

TEST(Server, AddBeyondCapacityPanics)
{
    Cluster c = makeCluster();
    Server &srv = c.server(3);
    for (std::size_t i = 0; i < srv.cores(); ++i)
        srv.addJob(WorkloadType::DataCaching);
    EXPECT_DEATH(srv.addJob(WorkloadType::DataCaching), "full");
}

TEST(Server, RemoveMissingJobPanics)
{
    Cluster c = makeCluster();
    EXPECT_DEATH(c.server(3).removeJob(WorkloadType::Clustering),
                 "no such job");
}

TEST(Server, PowerReflectsJobMix)
{
    Cluster c = makeCluster();
    Server &srv = c.server(3);
    const PowerModel model({}, 1.0);
    EXPECT_DOUBLE_EQ(srv.power(model), 100.0);
    srv.addJob(WorkloadType::VideoEncoding);
    EXPECT_DOUBLE_EQ(srv.power(model), 100.0 + 60.9 / 8.0);
}

TEST(Server, ThermalStepHeatsBusyServer)
{
    Cluster c = makeCluster(1.77, 1);
    for (std::size_t i = 0; i < c.server(0).cores(); ++i)
        c.addJob(0, WorkloadType::Clustering);
    const Celsius before = c.server(0).airTemp();
    for (int i = 0; i < 30; ++i)
        c.stepThermal(60.0);
    EXPECT_GT(c.server(0).airTemp(), before + 5.0);
}

TEST(Server, EstimatorFollowsMeltUnderLoad)
{
    Cluster c = makeCluster(1.77, 1);
    for (std::size_t i = 0; i < c.server(0).cores(); ++i)
        c.addJob(0, WorkloadType::VideoEncoding);
    for (int i = 0; i < 400; ++i)
        c.stepThermal(60.0);
    const Server &srv = c.server(0);
    EXPECT_GT(srv.waxMeltFraction(), 0.3);
    EXPECT_NEAR(srv.estimatedMeltFraction(), srv.waxMeltFraction(),
                0.15);
    EXPECT_GT(srv.waxEnergyStored(), 0.0);
}

} // namespace
} // namespace vmt
