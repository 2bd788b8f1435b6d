/**
 * @file
 * Unit tests for CPU thermal throttling (DVFS downclock at the
 * junction limit, with hysteresis).
 */

#include <gtest/gtest.h>

#include "sched/round_robin.h"
#include "server/cluster.h"
#include "sim/simulation.h"

namespace vmt {
namespace {

/** Thermal params with a limit low enough to trip in tests. */
ServerThermalParams
touchyParams()
{
    ServerThermalParams p;
    p.cpuLimit = 55.0;
    return p;
}

/** A one-server cluster at the study power scale, fully loaded. */
Cluster
loadedServer(const ServerThermalParams &params,
             WorkloadType type = WorkloadType::VideoEncoding)
{
    Cluster c(1, ServerSpec{}, params, PowerModel({}, 1.77));
    for (std::size_t i = 0; i < c.server(0).cores(); ++i)
        c.addJob(0, type);
    return c;
}

TEST(Throttling, NeverTripsAtStudyOperatingPoints)
{
    Cluster c = loadedServer(ServerThermalParams{});
    for (int i = 0; i < 300; ++i)
        c.stepThermal(60.0);
    EXPECT_FALSE(c.server(0).throttled());
    EXPECT_LT(c.server(0).cpuTemp(c.powerModel()),
              ServerThermalParams{}.cpuLimit);
}

TEST(Throttling, TripsWhenJunctionHitsLimit)
{
    Cluster c = loadedServer(touchyParams());
    const PowerModel &model = c.powerModel();
    const Watts before = c.server(0).power(model);
    bool tripped = false;
    for (int i = 0; i < 300 && !tripped; ++i) {
        c.stepThermal(60.0);
        tripped = c.server(0).throttled();
    }
    ASSERT_TRUE(tripped);
    // Throttled power is lower; idle floor preserved.
    EXPECT_LT(c.server(0).power(model), before);
    EXPECT_GT(c.server(0).power(model), ServerSpec{}.idlePower);
}

TEST(Throttling, HysteresisRecoversAfterLoadDrop)
{
    Cluster c = loadedServer(touchyParams());
    for (int i = 0; i < 300; ++i)
        c.stepThermal(60.0);
    ASSERT_TRUE(c.server(0).throttled());
    // Drop all load: the junction cools past the hysteresis band.
    for (std::size_t i = 0; i < c.server(0).cores(); ++i)
        c.removeJob(0, WorkloadType::VideoEncoding);
    for (int i = 0; i < 120; ++i)
        c.stepThermal(60.0);
    EXPECT_FALSE(c.server(0).throttled());
}

TEST(Throttling, DisabledWhenFactorIsOne)
{
    ServerThermalParams p = touchyParams();
    p.throttleFactor = 1.0;
    Cluster c = loadedServer(p);
    for (int i = 0; i < 300; ++i)
        c.stepThermal(60.0);
    EXPECT_FALSE(c.server(0).throttled());
}

TEST(Throttling, SimulationCountsThrottledIntervals)
{
    // A severely undersized cooling plant drives the room hot enough
    // to downclock CPUs under round robin.
    SimConfig config;
    config.numServers = 40;
    config.seed = 7;
    config.coolingCapacity = 8000.0; // ~60% of this cluster's peak.
    config.coolingOverloadRise = 6.0e-3;
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_GT(r.throttledServerIntervals, 0u);
}

TEST(Throttling, NoThrottlingWithAdequateCooling)
{
    SimConfig config;
    config.numServers = 40;
    config.seed = 7;
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_EQ(r.throttledServerIntervals, 0u);
}

} // namespace
} // namespace vmt
