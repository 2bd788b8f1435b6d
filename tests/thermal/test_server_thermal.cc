/**
 * @file
 * Unit tests for the lumped server thermal model.
 */

#include <gtest/gtest.h>

#include "reference/server_thermal.h"
#include "util/logging.h"

namespace vmt {
namespace {

ServerThermalParams
testParams()
{
    ServerThermalParams p;
    p.inletTemp = 22.0;
    p.airRisePerWatt = 0.040;
    p.exhaustRisePerWatt = 0.058;
    p.timeConstant = 900.0;
    return p;
}

TEST(ServerThermal, StartsAtInletTemperature)
{
    const ServerThermal t(testParams());
    EXPECT_DOUBLE_EQ(t.airTemp(), 22.0);
    EXPECT_DOUBLE_EQ(t.inletTemp(), 22.0);
}

TEST(ServerThermal, InletOffsetApplied)
{
    const ServerThermal t(testParams(), 2.5);
    EXPECT_DOUBLE_EQ(t.inletTemp(), 24.5);
    EXPECT_DOUBLE_EQ(t.airTemp(), 24.5);
}

TEST(ServerThermal, SteadyStateFormulas)
{
    const ServerThermal t(testParams());
    EXPECT_DOUBLE_EQ(t.steadyStateAirTemp(100.0), 26.0);
    EXPECT_DOUBLE_EQ(t.steadyStateExhaustTemp(100.0), 27.8);
}

TEST(ServerThermal, RejectsBadParams)
{
    ServerThermalParams p = testParams();
    p.timeConstant = 0.0;
    EXPECT_THROW(ServerThermal{p}, FatalError);
    p = testParams();
    p.airRisePerWatt = -1.0;
    EXPECT_THROW(ServerThermal{p}, FatalError);
}

TEST(ServerThermal, StepValidatesInputs)
{
    ServerThermal t(testParams());
    EXPECT_THROW(t.step(-1.0, 60.0), FatalError);
    EXPECT_THROW(t.step(100.0, 0.0), FatalError);
}

TEST(ServerThermal, RelaxesTowardSteadyStateBelowMelt)
{
    ServerThermal t(testParams());
    // 200 W -> 30 C steady state, below the 35.7 C melting point so
    // the wax only dampens transients.
    for (int i = 0; i < 600; ++i)
        t.step(200.0, 60.0);
    EXPECT_NEAR(t.airTemp(), 30.0, 0.1);
}

TEST(ServerThermal, FirstOrderTimeConstant)
{
    ServerThermalParams p = testParams();
    p.pcm.conductance = 1e-6; // Decouple the wax.
    ServerThermal t(p);
    // After one time constant the gap should close by ~63%.
    const int steps = 15; // 15 min = tau.
    for (int i = 0; i < steps; ++i)
        t.step(200.0, 60.0);
    const double progress = (t.airTemp() - 22.0) / (30.0 - 22.0);
    EXPECT_NEAR(progress, 0.632, 0.02);
}

TEST(ServerThermal, EnergyConservedEachStep)
{
    ServerThermal t(testParams());
    for (int i = 0; i < 200; ++i) {
        const ThermalSample s = t.step(420.0, 60.0);
        EXPECT_NEAR(s.rejectedPower + s.waxHeatFlow, 420.0, 1e-9);
    }
}

TEST(ServerThermal, HotServerMeltsWaxAndShavesRejection)
{
    ServerThermal t(testParams());
    // 431 W: steady state 39.2 C, above the melt point.
    bool melted_some = false;
    for (int i = 0; i < 240; ++i) {
        const ThermalSample s = t.step(431.0, 60.0);
        if (t.pcm().meltFraction() > 0.02 &&
            t.pcm().meltFraction() < 0.98) {
            EXPECT_GT(s.waxHeatFlow, 0.0);
            EXPECT_LT(s.rejectedPower, 431.0);
            melted_some = true;
        }
    }
    EXPECT_TRUE(melted_some);
}

TEST(ServerThermal, MeltPlateauHoldsAirNearMeltTemp)
{
    ServerThermal t(testParams());
    for (int i = 0; i < 120; ++i)
        t.step(431.0, 60.0);
    // Mid-transition the wax pins the air close to the melting point
    // (the paper's definition of the melting plateau).
    ASSERT_GT(t.pcm().meltFraction(), 0.05);
    ASSERT_LT(t.pcm().meltFraction(), 0.95);
    EXPECT_NEAR(t.airTemp(), 36.5, 0.8);
}

TEST(ServerThermal, RefreezeRejectsMoreThanPower)
{
    ServerThermal t(testParams());
    for (int i = 0; i < 300; ++i)
        t.step(431.0, 60.0); // Melt a good fraction.
    ASSERT_GT(t.pcm().meltFraction(), 0.3);
    // Load drops: stored heat must come back out (rejection > power).
    bool released = false;
    for (int i = 0; i < 120; ++i) {
        const ThermalSample s = t.step(150.0, 60.0);
        if (s.waxHeatFlow < -1.0) {
            EXPECT_GT(s.rejectedPower, 150.0);
            released = true;
        }
    }
    EXPECT_TRUE(released);
}

TEST(ServerThermal, ExhaustTracksRejectedHeat)
{
    ServerThermal t(testParams());
    const ThermalSample s = t.step(300.0, 60.0);
    EXPECT_DOUBLE_EQ(s.exhaustTemp,
                     22.0 + 0.058 * s.rejectedPower);
}

} // namespace
} // namespace vmt
