/**
 * @file
 * Randomized lockstep property test for the thermal kernel: a Cluster
 * (batched SoA kernel) and the per-object reference fleet from
 * tests/reference/ receive an identical seeded stream of mutations
 * (job churn, health transitions, per-server and global inlet shifts
 * spanning freeze, melt and throttle regimes, varying step lengths)
 * and must agree bitwise on every ClusterSample, on per-server state
 * at periodic deep checks, and on the serialized snapshot at the end.
 * The mutation stream is designed to keep servers crossing PCM regime
 * boundaries so the SoA kernel's scalar-fixup path and its no-cross
 * guard bands are exercised continuously, not just at scenario edges.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "reference/reference_fleet.h"
#include "server/cluster.h"
#include "state/serializer.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::ReferenceFleet;

constexpr std::size_t kServers = 48;
constexpr std::size_t kSteps = 5000;
constexpr std::size_t kDeepCheckEvery = 250;

/** Drain every job off a server through the fleet bookkeeping (what
 *  the fault driver does before marking it Failed). */
template <typename Fleet>
void
drainServer(Fleet &fleet, std::size_t id)
{
    for (const WorkloadType type : kAllWorkloads) {
        const std::size_t idx = workloadIndex(type);
        while (std::as_const(fleet).server(id).coreCounts()[idx] > 0)
            fleet.removeJob(id, type);
    }
}

void
expectSamplesIdentical(const ClusterSample &a, const ClusterSample &b,
                       std::size_t step)
{
    ASSERT_EQ(a.totalPower, b.totalPower) << "step " << step;
    ASSERT_EQ(a.coolingLoad, b.coolingLoad) << "step " << step;
    ASSERT_EQ(a.waxHeatFlow, b.waxHeatFlow) << "step " << step;
    ASSERT_EQ(a.meanAirTemp, b.meanAirTemp) << "step " << step;
    ASSERT_EQ(a.meanMeltFraction, b.meanMeltFraction)
        << "step " << step;
    ASSERT_EQ(a.maxAirTemp, b.maxAirTemp) << "step " << step;
    ASSERT_EQ(a.serversAboveThreshold, b.serversAboveThreshold)
        << "step " << step;
    ASSERT_EQ(a.throttledServers, b.throttledServers)
        << "step " << step;
}

void
expectServersIdentical(const ReferenceFleet &ref, const Cluster &c,
                       std::size_t step)
{
    ASSERT_EQ(ref.totalPower(), c.totalPower()) << "step " << step;
    for (std::size_t i = 0; i < ref.numServers(); ++i) {
        SCOPED_TRACE("step " + std::to_string(step) + " server " +
                     std::to_string(i));
        const auto &sa = ref.server(i);
        const Server &sb = c.server(i);
        ASSERT_EQ(sa.airTemp(), sb.airTemp());
        ASSERT_EQ(sa.waxEnthalpy(), sb.waxEnthalpy());
        ASSERT_EQ(sa.waxMeltFraction(), sb.waxMeltFraction());
        ASSERT_EQ(sa.estimatedMeltFraction(),
                  sb.estimatedMeltFraction());
        ASSERT_EQ(sa.estimatedWaxEnthalpy(),
                  sb.estimatedWaxEnthalpy());
        ASSERT_EQ(sa.throttled(), sb.throttled());
        ASSERT_EQ(sa.health(), sb.health());
        ASSERT_EQ(sa.power(ref.powerModel()), sb.power(c.powerModel()));
    }
}

/**
 * One randomized mutation applied identically to both fleets. All
 * decisions are drawn from the shared Rng plus reads of the reference
 * (whose state the deep checks pin to the cluster's).
 */
void
mutate(Rng &rng, ReferenceFleet &ref, Cluster &c)
{
    const std::uint64_t roll = rng.below(100);
    const std::size_t id = rng.below(kServers);
    if (roll < 40) {
        // Job churn toward hot: pile work onto a random server so its
        // air target climbs past the 35.7 C melting point.
        const WorkloadType type = kAllWorkloads[rng.below(kNumWorkloads)];
        const std::size_t burst = 1 + rng.below(8);
        for (std::size_t k = 0; k < burst; ++k) {
            if (!ref.server(id).hasCapacity())
                break;
            ref.addJob(id, type);
            c.addJob(id, type);
        }
    } else if (roll < 62) {
        // Job churn toward cold: release cores so loaded wax refreezes.
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t idx = workloadIndex(type);
            if (ref.server(id).coreCounts()[idx] > 0) {
                ref.removeJob(id, type);
                c.removeJob(id, type);
                break;
            }
        }
    } else if (roll < 74) {
        // Per-server inlet shift (recirculation modelling).
        const Celsius t = rng.uniform(16.0, 40.0);
        ref.setBaseInlet(id, t);
        c.setBaseInlet(id, t);
    } else if (roll < 86) {
        // Global inlet swing. Mostly spans freeze<->melt around the
        // 35.7 C melting point; occasionally spikes hot enough to
        // drive CPU junctions past the 85 C limit so the throttle
        // latch flips both ways.
        const Celsius t = rng.uniform() < 0.2
                              ? rng.uniform(50.0, 62.0)
                              : rng.uniform(14.0, 40.0);
        ref.setBaseInlet(t);
        c.setBaseInlet(t);
    } else {
        // Health transition: Up -> Failed (drained first, like the
        // fault driver) or Up -> Quarantined, and back Up.
        const ServerHealth cur = ref.server(id).health();
        ServerHealth next = ServerHealth::Up;
        if (cur == ServerHealth::Up)
            next = rng.uniform() < 0.5 ? ServerHealth::Failed
                                       : ServerHealth::Quarantined;
        if (next == ServerHealth::Failed) {
            drainServer(ref, id);
            drainServer(c, id);
        }
        ref.setHealth(id, next);
        c.setHealth(id, next);
    }
}

TEST(KernelProperty, LockstepClosedIntegrator)
{
    const ServerThermalParams thermal;
    const PowerModel power({}, 1.0);
    ReferenceFleet ref(kServers, ServerSpec{}, thermal, power);
    Cluster cluster(kServers, ServerSpec{}, thermal, power);

    Rng rng(0xA5F00D5EEDull);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    for (std::size_t step = 0; step < kSteps; ++step) {
        mutate(rng, ref, cluster);
        const Seconds dt = dts[rng.below(3)];
        const ClusterSample a = ref.stepThermal(dt, 38.0);
        const ClusterSample b = cluster.stepThermal(dt, 38.0);
        expectSamplesIdentical(a, b, step);
        if (::testing::Test::HasFatalFailure())
            break;
        if ((step + 1) % kDeepCheckEvery == 0) {
            expectServersIdentical(ref, cluster, step);
            if (::testing::Test::HasFatalFailure())
                break;
        }
    }

    // The serialized snapshots must be byte-identical: a checkpoint
    // carries the same bytes the per-object layout wrote.
    Serializer sa;
    Serializer sb;
    ref.saveState(sa);
    cluster.saveState(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());
}

} // namespace
} // namespace vmt
