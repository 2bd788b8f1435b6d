/**
 * @file
 * Regression tests for the Cluster's power gather: the SoA kernel's
 * gathered power array must be invalidated by exactly the events that
 * can change a server's draw (job churn, health flips, mutable server
 * access) and by nothing else (inlet changes never touch electrical
 * power). The historical bug class here is a stale cache surviving a
 * mutation and feeding the next thermal step old wattage — so each
 * test compares against a freshly computed serial sum, or against the
 * per-object reference fleet (tests/reference/), which has no gather
 * array to go stale.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "reference/reference_fleet.h"
#include "server/cluster.h"

namespace vmt {
namespace {

constexpr std::size_t kServers = 12;

Cluster
makeCluster()
{
    return Cluster(kServers, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.0));
}

/** The uncached reference: a fresh serial reduction in server-index
 *  order, exactly the order totalPower() documents. */
Watts
manualSum(const Cluster &c)
{
    Watts sum = 0.0;
    for (std::size_t i = 0; i < c.numServers(); ++i)
        sum += c.server(i).power(c.powerModel());
    return sum;
}

TEST(KernelCache, TotalPowerTracksJobChurn)
{
    Cluster c = makeCluster();
    EXPECT_EQ(c.totalPower(), manualSum(c));
    c.addJob(3, WorkloadType::VideoEncoding);
    c.addJob(3, WorkloadType::WebSearch);
    c.addJob(7, WorkloadType::Clustering);
    EXPECT_EQ(c.totalPower(), manualSum(c));
    c.removeJob(3, WorkloadType::WebSearch);
    EXPECT_EQ(c.totalPower(), manualSum(c));
}

TEST(KernelCache, TotalPowerTracksHealthFlips)
{
    Cluster c = makeCluster();
    c.addJob(5, WorkloadType::DataCaching);
    const Watts before = c.totalPower();

    // Failing a server must drop its full draw from the cached
    // reduction immediately, not on the next thermal step.
    c.setHealth(2, ServerHealth::Failed);
    EXPECT_EQ(c.totalPower(), manualSum(c));
    EXPECT_LT(c.totalPower(), before);

    // Quarantined stays powered: only placement eligibility changes.
    c.setHealth(5, ServerHealth::Quarantined);
    EXPECT_EQ(c.totalPower(), manualSum(c));

    c.setHealth(2, ServerHealth::Up);
    c.setHealth(5, ServerHealth::Up);
    EXPECT_EQ(c.totalPower(), before);
}

TEST(KernelCache, InletChangesLeaveTotalPowerUntouched)
{
    Cluster c = makeCluster();
    c.addJob(0, WorkloadType::WebSearch);
    const Watts before = c.totalPower();
    c.setBaseInlet(4, 31.0);
    EXPECT_EQ(c.totalPower(), before);
    c.setBaseInlet(27.5);
    EXPECT_EQ(c.totalPower(), before);
    EXPECT_EQ(c.totalPower(), manualSum(c));
}

TEST(KernelCache, MutableServerAccessInvalidates)
{
    Cluster c = makeCluster();
    const Watts before = c.totalPower();
    // A mutable reference may change the draw behind the cluster's
    // back; the cache must be dropped pessimistically. Here nothing
    // actually changes, so the recompute is bitwise the same value.
    Server &s = c.server(8);
    (void)s;
    EXPECT_EQ(c.totalPower(), before);
    EXPECT_EQ(c.totalPower(), manualSum(c));
}

/** The stale-gather regression proper: mutate between steps with no
 *  intervening totalPower() call, then step. A stale SoA power array
 *  would diverge from the scalar twin on every aggregate. */
TEST(KernelCache, StepAfterMutationsMatchesScalarTwin)
{
    reference::ReferenceFleet scalar(kServers, ServerSpec{},
                                     ServerThermalParams{},
                                     PowerModel({}, 1.0));
    Cluster soa = makeCluster();

    auto both = [&](auto &&fn) {
        fn(scalar);
        fn(soa);
    };
    auto stepAndCompare = [&](Seconds dt) {
        const ClusterSample a = scalar.stepThermal(dt);
        const ClusterSample b = soa.stepThermal(dt);
        ASSERT_EQ(a.totalPower, b.totalPower);
        ASSERT_EQ(a.coolingLoad, b.coolingLoad);
        ASSERT_EQ(a.waxHeatFlow, b.waxHeatFlow);
        ASSERT_EQ(a.meanAirTemp, b.meanAirTemp);
        ASSERT_EQ(a.meanMeltFraction, b.meanMeltFraction);
        ASSERT_EQ(a.throttledServers, b.throttledServers);
    };

    both([](auto &c) {
        for (std::size_t i = 0; i < 16; ++i)
            c.addJob(1, WorkloadType::Clustering);
    });
    stepAndCompare(60.0);

    both([](auto &c) { c.setHealth(1, ServerHealth::Failed); });
    stepAndCompare(60.0);

    both([](auto &c) {
        c.setHealth(1, ServerHealth::Up);
        c.setBaseInlet(6, 33.0);
        c.addJob(6, WorkloadType::VirusScan);
        c.removeJob(1, WorkloadType::Clustering);
    });
    stepAndCompare(300.0);

    both([](auto &c) { c.setBaseInlet(24.0); });
    stepAndCompare(60.0);
}

} // namespace
} // namespace vmt
