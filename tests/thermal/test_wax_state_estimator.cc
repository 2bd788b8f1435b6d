/**
 * @file
 * Unit tests for the lookup-table wax-state estimator.
 */

#include <gtest/gtest.h>

#include "reference/server_thermal.h"
#include "thermal/wax_state_estimator.h"
#include "util/logging.h"

namespace vmt {
namespace {

PcmParams
wax()
{
    PcmParams p;
    return p; // Library defaults are the calibrated study wax.
}

TEST(WaxStateEstimator, StartsAtZero)
{
    const WaxStateEstimator est(wax());
    EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(WaxStateEstimator, RejectsBadQuantization)
{
    EXPECT_THROW(WaxStateEstimator(wax(), 0.0), FatalError);
    EXPECT_THROW(WaxStateEstimator(wax(), 0.5, -1.0), FatalError);
}

TEST(WaxStateEstimator, UpdateRejectsNonPositiveDt)
{
    WaxStateEstimator est(wax());
    EXPECT_THROW(est.update(40.0, 0.0), FatalError);
}

TEST(WaxStateEstimator, TableCoversConfiguredSpan)
{
    const WaxStateEstimator est(wax(), 0.5, 20.0);
    EXPECT_EQ(est.tableSize(), 81u);
}

TEST(WaxStateEstimator, ColdReadingsKeepEstimateAtZero)
{
    WaxStateEstimator est(wax());
    for (int i = 0; i < 100; ++i)
        est.update(25.0, 60.0);
    EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(WaxStateEstimator, HotReadingsSaturateAtOne)
{
    WaxStateEstimator est(wax());
    for (int i = 0; i < 5000; ++i)
        est.update(45.0, 60.0);
    EXPECT_DOUBLE_EQ(est.estimate(), 1.0);
}

TEST(WaxStateEstimator, ResetClearsState)
{
    WaxStateEstimator est(wax());
    for (int i = 0; i < 100; ++i)
        est.update(40.0, 60.0);
    ASSERT_GT(est.estimate(), 0.0);
    est.reset();
    EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(WaxStateEstimator, EstimateIsMonotoneUnderHeating)
{
    WaxStateEstimator est(wax());
    double prev = 0.0;
    for (int i = 0; i < 200; ++i) {
        est.update(38.0, 60.0);
        EXPECT_GE(est.estimate(), prev);
        prev = est.estimate();
    }
}

TEST(WaxStateEstimator, FreezingReversesTheEstimate)
{
    WaxStateEstimator est(wax());
    for (int i = 0; i < 200; ++i)
        est.update(38.0, 60.0);
    const double melted = est.estimate();
    ASSERT_GT(melted, 0.1);
    for (int i = 0; i < 100; ++i)
        est.update(33.0, 60.0);
    EXPECT_LT(est.estimate(), melted);
}

/**
 * End-to-end tracking: run the real thermal model at several constant
 * powers and check the estimator stays within a few percent of the
 * ground-truth melt fraction (the deployable model of [24] is
 * approximate — Fig. 17's wax threshold exists because of exactly
 * this error).
 */
class EstimatorTracking : public ::testing::TestWithParam<double>
{};

TEST_P(EstimatorTracking, StaysCloseToGroundTruth)
{
    const Watts power = GetParam();
    ServerThermalParams params;
    ServerThermal thermal(params);
    WaxStateEstimator est(params.pcm);
    double worst = 0.0;
    for (int minute = 0; minute < 600; ++minute) {
        const ThermalSample s = thermal.step(power, 60.0);
        est.update(s.containerTemp, 60.0);
        worst = std::max(worst,
                         std::abs(est.estimate() -
                                  thermal.pcm().meltFraction()));
    }
    EXPECT_LT(worst, 0.12);
}

INSTANTIATE_TEST_SUITE_P(PowerSweep, EstimatorTracking,
                         ::testing::Values(360.0, 400.0, 440.0, 480.0));

} // namespace
} // namespace vmt
