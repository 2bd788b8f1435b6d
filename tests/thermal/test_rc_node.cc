/**
 * @file
 * Unit tests for the first-order RC node.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "reference/rc_node.h"
#include "reference/server_thermal.h"
#include "util/logging.h"

namespace vmt {
namespace {

TEST(RcNode, Validates)
{
    EXPECT_THROW(RcNode(0.0, 20.0), FatalError);
    EXPECT_THROW(RcNode(-5.0, 20.0), FatalError);
    RcNode node(10.0, 20.0);
    EXPECT_THROW(node.step(30.0, 0.0), FatalError);
}

TEST(RcNode, HoldsInitialTemperature)
{
    const RcNode node(100.0, 25.0);
    EXPECT_DOUBLE_EQ(node.temperature(), 25.0);
    EXPECT_DOUBLE_EQ(node.timeConstant(), 100.0);
}

TEST(RcNode, ExactExponentialStep)
{
    RcNode node(100.0, 20.0);
    node.step(30.0, 100.0); // One time constant.
    EXPECT_NEAR(node.temperature(),
                30.0 - 10.0 * std::exp(-1.0), 1e-12);
}

TEST(RcNode, StepSizeInvariance)
{
    // The exact solution must not depend on how the interval is cut.
    RcNode coarse(300.0, 20.0);
    RcNode fine(300.0, 20.0);
    coarse.step(42.0, 600.0);
    for (int i = 0; i < 600; ++i)
        fine.step(42.0, 1.0);
    EXPECT_NEAR(coarse.temperature(), fine.temperature(), 1e-9);
}

TEST(RcNode, CachedGainSurvivesDtChange)
{
    // The gain cache is keyed on dt; alternating step sizes must
    // still produce the exact per-step exponential each time.
    RcNode node(150.0, 20.0);
    double reference = 20.0;
    const double dts[] = {60.0, 60.0, 10.0, 60.0, 10.0, 10.0, 60.0};
    for (const double dt : dts) {
        node.step(50.0, dt);
        reference += (50.0 - reference) *
                     (1.0 - std::exp(-dt / 150.0));
        ASSERT_EQ(node.temperature(), reference) << "dt " << dt;
    }
}

TEST(RcNode, ConvergesToTarget)
{
    RcNode node(60.0, 20.0);
    for (int i = 0; i < 100; ++i)
        node.step(35.0, 60.0);
    EXPECT_NEAR(node.temperature(), 35.0, 1e-9);
}

TEST(RcNode, CoolsTowardLowerTarget)
{
    RcNode node(60.0, 40.0);
    node.step(20.0, 30.0);
    EXPECT_LT(node.temperature(), 40.0);
    EXPECT_GT(node.temperature(), 20.0);
}

TEST(RcNode, ResetJumpsState)
{
    RcNode node(60.0, 40.0);
    node.reset(10.0);
    EXPECT_DOUBLE_EQ(node.temperature(), 10.0);
}

TEST(RcNode, CpuTempTracksAirPlusRise)
{
    ServerThermalParams params;
    ServerThermal thermal(params);
    const ThermalSample s = thermal.step(400.0, 60.0);
    EXPECT_DOUBLE_EQ(s.cpuTemp,
                     s.airTemp + params.cpuRisePerWatt * 400.0);
    // A loaded Xeon runs well above the chassis air but below the
    // 85 C limit at the study's operating points.
    EXPECT_GT(s.cpuTemp, s.airTemp + 10.0);
    EXPECT_LT(s.cpuTemp, params.cpuLimit);
}

} // namespace
} // namespace vmt
