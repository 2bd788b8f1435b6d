/**
 * @file
 * PlacementView's bitwise contract: every refresh variant must return
 * exactly the doubles the per-server accessor chain computes —
 * projected key inletTemp() + rise x power(), airTemp() and
 * estimatedMeltFraction() — under job churn, health flips and inlet
 * shifts, with and without thermal steps in between.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sched/placement_view.h"
#include "util/rng.h"

namespace vmt {
namespace {

constexpr std::size_t kServers = 70;

/** One random mutation: churn, a health flip or an inlet shift. */
void
mutate(Rng &rng, Cluster &c)
{
    const std::size_t id = rng.below(kServers);
    const Server &srv = std::as_const(c).server(id);
    const std::uint64_t roll = rng.below(100);
    if (roll < 40) {
        const WorkloadType type = kAllWorkloads[rng.below(kNumWorkloads)];
        for (std::uint64_t k = 1 + rng.below(12); k > 0; --k) {
            if (!srv.hasCapacity())
                break;
            c.addJob(id, type);
        }
    } else if (roll < 60) {
        for (const WorkloadType type : kAllWorkloads) {
            if (srv.coreCounts()[workloadIndex(type)] > 0) {
                c.removeJob(id, type);
                break;
            }
        }
    } else if (roll < 75) {
        ServerHealth next = ServerHealth::Up;
        if (srv.health() == ServerHealth::Up) {
            next = rng.below(2) == 0 ? ServerHealth::Failed
                                     : ServerHealth::Quarantined;
        }
        if (next == ServerHealth::Failed) {
            for (const WorkloadType type : kAllWorkloads)
                while (srv.coreCounts()[workloadIndex(type)] > 0)
                    c.removeJob(id, type);
        }
        c.setHealth(id, next);
    } else if (roll < 90) {
        c.setBaseInlet(id, rng.uniform(16.0, 40.0));
    } else {
        c.setBaseInlet(rng.uniform(18.0, 30.0));
    }
}

TEST(PlacementView, RefreshVariantsMatchAccessorsUnderChurn)
{
    std::vector<Kelvin> offsets(kServers);
    for (std::size_t id = 0; id < kServers; ++id)
        offsets[id] = 0.25 * static_cast<double>(id % 9) - 1.0;
    Cluster c(kServers, ServerSpec{}, ServerThermalParams{},
              PowerModel({}, 1.77), offsets);
    const KelvinPerWatt rise = c.thermalParams().airRisePerWatt;
    Rng rng(0x71E5EEDull);
    PlacementView all, air, projected, projected_melt;

    for (int step = 0; step < 600; ++step) {
        for (std::uint64_t k = 1 + rng.below(4); k > 0; --k)
            mutate(rng, c);
        if (rng.below(3) == 0)
            c.stepThermal(60.0 * static_cast<double>(1 + rng.below(5)));

        all.refresh(c);
        air.refreshAir(c);
        projected.refreshProjected(c);
        projected_melt.refreshProjectedMelt(c);

        const Cluster &cc = c;
        for (std::size_t id = 0; id < kServers; ++id) {
            SCOPED_TRACE("step " + std::to_string(step) + " server " +
                         std::to_string(id));
            const Server &srv = cc.server(id);
            const Celsius key =
                srv.inletTemp() + rise * srv.power(cc.powerModel());
            ASSERT_EQ(all.projected(id), key);
            ASSERT_EQ(projected.projected(id), key);
            ASSERT_EQ(projected_melt.projected(id), key);
            ASSERT_EQ(all.air(id), srv.airTemp());
            ASSERT_EQ(air.air(id), srv.airTemp());
            ASSERT_EQ(all.estMelt(id), srv.estimatedMeltFraction());
            ASSERT_EQ(projected_melt.estMelt(id),
                      srv.estimatedMeltFraction());
        }
    }
}

} // namespace
} // namespace vmt
