/**
 * @file
 * Unit tests for the Cluster container.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "server/cluster.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {
namespace {

Cluster
makeCluster(std::size_t n = 4)
{
    return Cluster(n, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.0));
}

TEST(Cluster, RejectsEmpty)
{
    EXPECT_THROW(makeCluster(0), FatalError);
}

TEST(Cluster, RejectsMismatchedOffsets)
{
    EXPECT_THROW(Cluster(3, ServerSpec{}, ServerThermalParams{},
                         PowerModel({}, 1.0), {1.0, 2.0}),
                 FatalError);
}

TEST(Cluster, BasicGeometry)
{
    const Cluster c = makeCluster(4);
    EXPECT_EQ(c.numServers(), 4u);
    EXPECT_EQ(c.totalCores(), 4u * 32u);
    EXPECT_EQ(c.busyCores(), 0u);
}

TEST(Cluster, AddRemoveUpdatesAggregates)
{
    Cluster c = makeCluster();
    c.addJob(1, WorkloadType::WebSearch);
    c.addJob(1, WorkloadType::DataCaching);
    c.addJob(2, WorkloadType::WebSearch);
    EXPECT_EQ(c.busyCores(), 3u);
    EXPECT_EQ(c.activeCounts()[workloadIndex(WorkloadType::WebSearch)],
              2u);
    EXPECT_EQ(c.server(1).busyCores(), 2u);
    c.removeJob(1, WorkloadType::WebSearch);
    EXPECT_EQ(c.busyCores(), 2u);
    EXPECT_EQ(c.activeCounts()[workloadIndex(WorkloadType::WebSearch)],
              1u);
}

TEST(Cluster, ServerOutOfRangePanics)
{
    Cluster c = makeCluster();
    EXPECT_DEATH(c.server(4), "out of range");
}

TEST(Cluster, LoadStateRejectsCountsItsServersCannotHold)
{
    Cluster c = makeCluster(4);
    c.addJob(0, WorkloadType::WebSearch);
    c.addJob(2, WorkloadType::Clustering);
    Serializer out;
    c.saveState(out);
    const auto load = [](std::vector<std::uint8_t> bytes,
                         std::size_t at, std::uint64_t value) {
        for (int b = 0; b < 8; ++b)
            bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
        Deserializer in(bytes);
        Cluster fresh = makeCluster(4);
        fresh.loadState(in);
    };
    // Layout: server count, busy cores, five per-type totals, the
    // inlet, then per server its five type counts and busy cores.
    EXPECT_NO_THROW(load(out.bytes(), 8, 2));
    EXPECT_THROW(load(out.bytes(), 8, 3), FatalError);   // Busy total.
    EXPECT_THROW(load(out.bytes(), 16, 2), FatalError);  // Type total.
    EXPECT_THROW(load(out.bytes(), 64, std::uint64_t{1} << 63),
                 FatalError); // Server 0's count beyond its cores.
    EXPECT_THROW(load(out.bytes(), 104, 2),
                 FatalError); // Server 0's busy cores vs its counts.
}

TEST(Cluster, TotalPowerSumsServers)
{
    Cluster c = makeCluster(3);
    EXPECT_DOUBLE_EQ(c.totalPower(), 300.0);
    c.addJob(0, WorkloadType::VideoEncoding);
    EXPECT_DOUBLE_EQ(c.totalPower(), 300.0 + 60.9 / 8.0);
}

TEST(Cluster, StepThermalAggregates)
{
    Cluster c = makeCluster(2);
    const ClusterSample s = c.stepThermal(60.0);
    EXPECT_NEAR(s.totalPower, 200.0, 1e-9);
    EXPECT_NEAR(s.coolingLoad + s.waxHeatFlow, s.totalPower, 1e-9);
    EXPECT_NEAR(s.meanAirTemp, 22.0, 0.5);
    EXPECT_DOUBLE_EQ(s.meanMeltFraction, 0.0);
}

TEST(Cluster, MeanAirTempPrefix)
{
    Cluster c = makeCluster(3);
    // Heat server 0 only.
    for (std::size_t i = 0; i < 32; ++i)
        c.addJob(0, WorkloadType::Clustering);
    for (int i = 0; i < 60; ++i)
        c.stepThermal(60.0);
    EXPECT_GT(c.meanAirTemp(1), c.meanAirTemp(3));
    EXPECT_THROW(c.meanAirTemp(0), FatalError);
    EXPECT_THROW(c.meanAirTemp(4), FatalError);
}

TEST(Cluster, InletOffsetsReachServers)
{
    const Cluster c(2, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.0), {0.0, 3.0});
    EXPECT_DOUBLE_EQ(c.server(0).inletTemp(), 22.0);
    EXPECT_DOUBLE_EQ(c.server(1).inletTemp(), 25.0);
    // The thermal state starts at each server's own inlet.
    EXPECT_DOUBLE_EQ(c.server(1).airTemp(), 25.0);
}

TEST(Cluster, RejectsNonPositiveRisePerWatt)
{
    // The checks the per-object ServerThermal makes, now made once
    // for the whole fleet.
    for (const double bad : {0.0, -0.01}) {
        ServerThermalParams air;
        air.airRisePerWatt = bad;
        EXPECT_THROW(Cluster(2, ServerSpec{}, air, PowerModel({}, 1.0)),
                     FatalError);
        ServerThermalParams exhaust;
        exhaust.exhaustRisePerWatt = bad;
        EXPECT_THROW(
            Cluster(2, ServerSpec{}, exhaust, PowerModel({}, 1.0)),
            FatalError);
    }
}

} // namespace
} // namespace vmt
