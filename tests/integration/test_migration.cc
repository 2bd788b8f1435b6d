/**
 * @file
 * Tests for live job migration: bookkeeping correctness (departure
 * records follow moved jobs) and the VMT-WA shedding policy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/vmt_wa.h"
#include "sched/round_robin.h"
#include "sim/simulation.h"

namespace vmt {
namespace {

/** A policy that migrates one job from server 0 to server 1 every
 *  interval — a worst case for departure bookkeeping. */
class ChurnScheduler : public RoundRobinScheduler
{
  public:
    std::string name() const override { return "Churn"; }

    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds) override
    {
        std::vector<MigrationRequest> out;
        for (WorkloadType type : kAllWorkloads) {
            if (cluster.server(0).coreCounts()[workloadIndex(type)] >
                0) {
                out.push_back(MigrationRequest{0, type, 1});
                break;
            }
        }
        return out;
    }
};

TEST(Migration, DisabledByDefault)
{
    SimConfig config;
    config.numServers = 10;
    config.trace.duration = 4.0;
    ChurnScheduler sched;
    const SimResult r = runSimulation(config, sched);
    EXPECT_EQ(r.migrations, 0u);
}

TEST(Migration, BookkeepingSurvivesConstantChurn)
{
    SimConfig config;
    config.numServers = 10;
    config.trace.duration = 12.0;
    config.migrationBudget = 4;
    // Each move re-homes a departure record: after every interval the
    // ring must hold exactly the cluster's jobs per (server, type).
    std::size_t mismatches = 0;
    config.checkpointHook = [&mismatches](const SimState &state,
                                          std::size_t) {
        const Cluster &cluster = state.cluster;
        const std::vector<std::uint32_t> pending =
            state.departures.countsByRecord();
        for (std::size_t id = 0; id < cluster.numServers(); ++id)
            for (const WorkloadType type : kAllWorkloads)
                mismatches += pending[DepartureRing::pack(id, type)] !=
                              cluster.server(id)
                                  .coreCounts()[workloadIndex(type)];
    };
    ChurnScheduler sched;
    // Would panic on a departure landing on the wrong server.
    const SimResult r = runSimulation(config, sched);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(r.migrations, 100u);
    EXPECT_EQ(r.droppedJobs, 0u);
    // Energy split still exact.
    for (std::size_t i = 0; i < r.totalPower.size(); i += 50) {
        EXPECT_NEAR(r.totalPower.at(i),
                    r.coolingLoad.at(i) + r.waxHeatFlow.at(i), 1e-6);
    }
}

TEST(Migration, InvalidRequestsAreSkipped)
{
    class BadScheduler : public RoundRobinScheduler
    {
      public:
        std::vector<MigrationRequest>
        proposeMigrations(Cluster &, Seconds) override
        {
            return {
                MigrationRequest{99, WorkloadType::WebSearch, 0},
                MigrationRequest{0, WorkloadType::WebSearch, 99},
                MigrationRequest{0, WorkloadType::WebSearch, 0},
            };
        }
    };
    SimConfig config;
    config.numServers = 5;
    config.trace.duration = 2.0;
    config.migrationBudget = 10;
    BadScheduler sched;
    const SimResult r = runSimulation(config, sched);
    EXPECT_EQ(r.migrations, 0u);
}

TEST(Migration, WaShedsExcessFromMeltedServers)
{
    // At GV=20 the hot group saturates near the peak; with a
    // migration budget VMT-WA actively moves excess hot load to the
    // extension servers instead of waiting for churn.
    SimConfig config;
    config.numServers = 100;
    config.seed = 7;
    RoundRobinScheduler rr;
    const SimResult base = runSimulation(config, rr);

    VmtWaScheduler passive(VmtConfig{}, hotMaskFromPaper());
    VmtConfig low_gv;
    low_gv.groupingValue = 20.0;
    VmtWaScheduler passive20(low_gv, hotMaskFromPaper());
    const SimResult without = runSimulation(config, passive20);

    config.migrationBudget = 32;
    VmtWaScheduler active(low_gv, hotMaskFromPaper());
    const SimResult with = runSimulation(config, active);

    EXPECT_GT(with.migrations, 0u);
    // Active shedding must not hurt, and usually helps, the
    // mis-set-GV case.
    EXPECT_GE(peakReductionPercent(base, with),
              peakReductionPercent(base, without) - 0.5);
}

TEST(Migration, NoMigrationsProposedOffPeak)
{
    SimConfig config;
    config.numServers = 20;
    config.migrationBudget = 16;
    config.trace.duration = 2.0; // Early morning only: low load.
    config.trace.customShape = {{0.0, 0.0}, {2.0, 0.1}};
    VmtWaScheduler sched(VmtConfig{}, hotMaskFromPaper());
    const SimResult r = runSimulation(config, sched);
    EXPECT_EQ(r.migrations, 0u);
}

} // namespace
} // namespace vmt
