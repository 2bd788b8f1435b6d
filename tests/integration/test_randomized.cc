/**
 * @file
 * Randomized property tests: core data structures and models checked
 * against simple oracles under seeded random drive.
 */

#include <gtest/gtest.h>

#include <map>

#include "reference/event_queue.h"
#include "reference/pcm.h"
#include "sched/block_min_group.h"
#include "sched/scheduler.h"
#include "reference/server_thermal.h"
#include "thermal/wax_state_estimator.h"
#include "util/rng.h"

namespace vmt {
namespace {

class RandomizedSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomizedSeeds, EventQueueMatchesMultimapOracle)
{
    Rng rng(GetParam());
    reference::EventQueue<int> queue;
    std::multimap<double, int> oracle; // Stable for equal keys.
    int next_payload = 0;

    for (int step = 0; step < 2000; ++step) {
        if (oracle.empty() || rng.uniform() < 0.6) {
            // Times from a small set force plenty of ties.
            const double t = static_cast<double>(rng.below(50));
            queue.schedule(t, next_payload);
            oracle.emplace(t, next_payload);
            ++next_payload;
        } else {
            ASSERT_FALSE(queue.empty());
            ASSERT_DOUBLE_EQ(queue.nextTime(), oracle.begin()->first);
            ASSERT_EQ(queue.pop(), oracle.begin()->second);
            oracle.erase(oracle.begin());
        }
        ASSERT_EQ(queue.size(), oracle.size());
    }
}

TEST_P(RandomizedSeeds, BalancedGroupMatchesLinearOracle)
{
    Rng rng(GetParam() + 1);
    Cluster cluster(8, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.77));
    // Random initial occupancy.
    for (std::size_t id = 0; id < 8; ++id) {
        const std::uint64_t jobs = rng.below(20);
        for (std::uint64_t j = 0; j < jobs; ++j)
            cluster.addJob(id, WorkloadType::Clustering);
    }

    BlockMinGroup<CoolerFirst> group;
    // Oracle: projected temperature per member, updated in lockstep.
    std::map<std::size_t, double> oracle;
    const KelvinPerWatt rise =
        cluster.thermalParams().airRisePerWatt;
    for (std::size_t id = 0; id < 8; ++id) {
        group.add(cluster, id);
        oracle[id] =
            cluster.server(id).inletTemp() +
            rise * cluster.server(id).power(cluster.powerModel());
    }

    for (int step = 0; step < 150; ++step) {
        const Watts watts = rng.uniform(1.0, 15.0);
        const std::size_t id = group.place(cluster, watts);
        // Oracle: the minimum-key member with capacity.
        std::size_t expect = kNoServer;
        double best = 1e300;
        for (const auto &[sid, key] : oracle) {
            if (!cluster.server(sid).hasCapacity())
                continue;
            if (key < best ||
                (key == best && sid < expect)) {
                best = key;
                expect = sid;
            }
        }
        ASSERT_EQ(id, expect);
        if (id == kNoServer)
            break;
        oracle[id] += rise * watts;
        cluster.addJob(id, WorkloadType::Clustering);
    }
}

TEST_P(RandomizedSeeds, PcmEnergyConservedUnderRandomDrive)
{
    Rng rng(GetParam() + 2);
    Pcm pcm(PcmParams{}, 25.0);
    const Joules initial = pcm.enthalpy();
    Joules absorbed = 0.0;
    for (int step = 0; step < 3000; ++step) {
        const Celsius air = rng.uniform(15.0, 50.0);
        const Seconds dt = rng.uniform(10.0, 180.0);
        absorbed += pcm.step(air, dt);
        ASSERT_GE(pcm.meltFraction(), 0.0);
        ASSERT_LE(pcm.meltFraction(), 1.0);
        // Temperature stays within the driving envelope.
        ASSERT_GT(pcm.temperature(), 14.0);
        ASSERT_LT(pcm.temperature(), 51.0);
    }
    EXPECT_NEAR(pcm.enthalpy() - initial, absorbed, 1e-6);
}

TEST_P(RandomizedSeeds, EstimatorBoundedUnderRandomLoadProfile)
{
    Rng rng(GetParam() + 3);
    ServerThermalParams params;
    ServerThermal thermal(params);
    WaxStateEstimator est(params.pcm);

    // Random walk over server power: the estimate may drift from
    // truth but must stay bounded and in range.
    Watts power = 250.0;
    double worst = 0.0;
    for (int minute = 0; minute < 1500; ++minute) {
        power += rng.uniform(-25.0, 25.0);
        power = std::clamp(power, 100.0, 500.0);
        const ThermalSample s = thermal.step(power, 60.0);
        est.update(s.containerTemp, 60.0);
        ASSERT_GE(est.estimate(), 0.0);
        ASSERT_LE(est.estimate(), 1.0);
        worst = std::max(worst,
                         std::abs(est.estimate() -
                                  thermal.pcm().meltFraction()));
    }
    EXPECT_LT(worst, 0.25);
}

TEST_P(RandomizedSeeds, ServerThermalEnergySplitAlwaysExact)
{
    Rng rng(GetParam() + 4);
    ServerThermal thermal{ServerThermalParams{}};
    for (int step = 0; step < 1000; ++step) {
        const Watts power = rng.uniform(100.0, 500.0);
        const ThermalSample s = thermal.step(power, 60.0);
        ASSERT_NEAR(s.rejectedPower + s.waxHeatFlow, power, 1e-9);
        ASSERT_GT(s.airTemp, 10.0);
        ASSERT_LT(s.airTemp, 60.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSeeds,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

} // namespace
} // namespace vmt
