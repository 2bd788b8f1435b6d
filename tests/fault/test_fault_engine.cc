/**
 * @file
 * Unit tests for the FaultEngine: scripted events fire at interval
 * boundaries and mutate server health through the cluster, stochastic
 * failures/repairs reproduce exactly from the seed, thermal-emergency
 * quarantine honors its hysteresis band, and the engine's dynamic
 * state round-trips through the serializer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_engine.h"
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

using Ids = std::vector<std::size_t>;

TEST(FaultEngine, ScriptedDownEvacuatesAndUpRestores)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0 server-down 1\n"
                                   "0.5 server-up 1\n");
    Cluster cluster = makeCluster(4);
    FaultEngine engine(config, cluster.numServers());

    EXPECT_EQ(engine.beginInterval(cluster, 0.0, kMinute), Ids{1});
    EXPECT_EQ(cluster.server(1).health(), ServerHealth::Failed);
    EXPECT_FALSE(std::as_const(cluster).server(1).hasCapacity());
    EXPECT_EQ(cluster.aliveServers(), 3u);

    // Next boundary: nothing due yet.
    EXPECT_TRUE(engine.beginInterval(cluster, kMinute, kMinute)
                    .empty());

    // The repair applies at the first boundary at/after 0.5 h.
    EXPECT_TRUE(
        engine.beginInterval(cluster, 0.5 * kHour, kMinute).empty());
    EXPECT_EQ(cluster.server(1).health(), ServerHealth::Up);
    EXPECT_EQ(cluster.aliveServers(), 4u);
}

TEST(FaultEngine, EventsWaitForTheirBoundary)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0.4 server-down 0\n");
    Cluster cluster = makeCluster(2);
    FaultEngine engine(config, 2);

    EXPECT_TRUE(engine.beginInterval(cluster, 0.0, kMinute).empty());
    EXPECT_EQ(cluster.aliveServers(), 2u);
    // 0.4 h = 1440 s <= 1800 s, so the event fires here.
    EXPECT_EQ(engine.beginInterval(cluster, 1800.0, kMinute), Ids{0});
}

TEST(FaultEngine, RepeatedDownIsIdempotent)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0 server-down 2\n"
                                   "0 server-down 2\n");
    Cluster cluster = makeCluster(4);
    FaultEngine engine(config, 4);
    EXPECT_EQ(engine.beginInterval(cluster, 0.0, kMinute), Ids{2});
    EXPECT_EQ(cluster.aliveServers(), 3u);
}

TEST(FaultEngine, DerateIsAbsoluteAndRestoreClears)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0 cooling-derate 4\n"
                                   "1 cooling-derate 2\n"
                                   "2 cooling-restore\n");
    Cluster cluster = makeCluster(2);
    FaultEngine engine(config, 2);

    engine.beginInterval(cluster, 0.0, kMinute);
    EXPECT_EQ(engine.supplyRise(), 4.0);
    engine.beginInterval(cluster, 1.0 * kHour, kMinute);
    EXPECT_EQ(engine.supplyRise(), 2.0);
    engine.beginInterval(cluster, 2.0 * kHour, kMinute);
    EXPECT_EQ(engine.supplyRise(), 0.0);
}

TEST(FaultEngine, RejectsPlanTargetingOutOfRangeServer)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0 server-down 9\n");
    EXPECT_THROW(FaultEngine(config, 4), FatalError);
}

TEST(FaultEngine, RejectsNonPositiveRepairTimeWithStochasticFaults)
{
    FaultConfig config;
    config.mtbf = 100.0;
    config.repairTime = 0.0;
    EXPECT_THROW(FaultEngine(config, 4), FatalError);
}

TEST(FaultEngine, StochasticFailuresRepairAfterTurnaround)
{
    // An absurdly small MTBF makes the per-interval hazard exceed 1,
    // so every alive server fails at each boundary deterministically.
    FaultConfig config;
    config.mtbf = 1e-4;
    config.repairTime = 0.1; // 6 minutes.
    Cluster cluster = makeCluster(3);
    FaultEngine engine(config, 3);

    Ids all = {0, 1, 2};
    EXPECT_EQ(engine.beginInterval(cluster, 0.0, kMinute), all);
    EXPECT_EQ(cluster.aliveServers(), 0u);

    // Before the turnaround elapses nothing comes back.
    EXPECT_TRUE(
        engine.beginInterval(cluster, 5 * kMinute, kMinute).empty());
    EXPECT_EQ(cluster.aliveServers(), 0u);

    // At 6 minutes the repairs land — and the repaired servers
    // immediately fail again under the saturated hazard.
    EXPECT_EQ(engine.beginInterval(cluster, 6 * kMinute, kMinute),
              all);
}

TEST(FaultEngine, StochasticStreamIsSeedDeterministic)
{
    FaultConfig config;
    config.mtbf = 0.2; // Hazard ~0.083/interval at the reference.
    config.repairTime = 0.05;
    config.seed = 42;

    const auto run = [](const FaultConfig &cfg) {
        Cluster cluster = makeCluster(50);
        FaultEngine engine(cfg, 50);
        std::vector<Ids> history;
        for (int i = 0; i < 60; ++i)
            history.push_back(
                engine.beginInterval(cluster, i * kMinute, kMinute));
        return history;
    };

    const std::vector<Ids> a = run(config);
    EXPECT_EQ(a, run(config));

    std::size_t events = 0;
    for (const Ids &ids : a)
        events += ids.size();
    EXPECT_GT(events, 0u) << "hazard never fired; raise the rate";

    FaultConfig reseeded = config;
    reseeded.seed = 43;
    EXPECT_NE(a, run(reseeded));
}

TEST(FaultEngine, QuarantineTriggersAndReleasesWithHysteresis)
{
    // Servers idle at 22 C (the inlet); a 10 C critical threshold
    // quarantines everyone at the first boundary.
    FaultConfig config;
    config.criticalTemp = 10.0;
    config.criticalRelease = 2.0;
    Cluster cluster = makeCluster(3);
    FaultEngine engine(config, 3);

    EXPECT_TRUE(engine.beginInterval(cluster, 0.0, kMinute).empty());
    EXPECT_EQ(engine.quarantinedServers(), 3u);
    EXPECT_EQ(cluster.server(0).health(), ServerHealth::Quarantined);
    // Quarantined servers shed new load but stay alive (their
    // resident jobs keep draining on the hot server).
    EXPECT_FALSE(std::as_const(cluster).server(0).hasCapacity());
    EXPECT_EQ(cluster.aliveServers(), 3u);

    // Cool the room far below the release band (10 - 2 = 8 C): idle
    // servers settle at inlet + 100 W x 0.04 K/W = 4 C.
    cluster.setBaseInlet(0.0);
    for (int i = 0; i < 8; ++i)
        cluster.stepThermal(kHour);
    ASSERT_LT(std::as_const(cluster).server(0).airTemp(), 8.0);

    engine.beginInterval(cluster, kHour, kMinute);
    EXPECT_EQ(engine.quarantinedServers(), 0u);
    EXPECT_EQ(cluster.server(0).health(), ServerHealth::Up);
    EXPECT_TRUE(std::as_const(cluster).server(0).hasCapacity());
}

TEST(FaultEngine, QuarantineHoldsInsideTheHysteresisBand)
{
    // At 9 C the server is below the 10 C trigger but above the 8 C
    // release line: an existing quarantine must hold.
    FaultConfig config;
    config.criticalTemp = 10.0;
    config.criticalRelease = 2.0;
    Cluster cluster = makeCluster(1);
    FaultEngine engine(config, 1);

    engine.beginInterval(cluster, 0.0, kMinute);
    ASSERT_EQ(engine.quarantinedServers(), 1u);

    cluster.setBaseInlet(5.0); // Steady state 9 C: inside the band.
    for (int i = 0; i < 8; ++i)
        cluster.stepThermal(kHour);
    const Celsius temp = std::as_const(cluster).server(0).airTemp();
    ASSERT_GT(temp, 8.0);
    ASSERT_LT(temp, 10.0);

    engine.beginInterval(cluster, kHour, kMinute);
    EXPECT_EQ(engine.quarantinedServers(), 1u);
}

TEST(FaultEngine, SaveLoadResumesTheExactStream)
{
    FaultConfig config;
    config.plan = FaultPlan::parse("0 cooling-derate 3\n"
                                   "2 server-down 7\n");
    config.mtbf = 0.2;
    config.repairTime = 0.05;
    config.criticalTemp = 60.0; // Never reached while idle.
    const std::size_t n = 30;

    // Advance a reference engine ten intervals.
    Cluster cluster = makeCluster(n);
    FaultEngine engine(config, n);
    for (int i = 0; i < 10; ++i)
        engine.beginInterval(cluster, i * kMinute, kMinute);

    // Snapshot it, restore into a fresh engine + cluster.
    Serializer out;
    engine.saveState(out, cluster);
    Cluster restored_cluster = makeCluster(n);
    FaultEngine restored(config, n);
    Deserializer in(out.bytes().data(), out.size());
    Restore io{in, ResumeCheck("snapshot"), "snapshot FALT"};
    restored.loadState(io, restored_cluster);
    in.expectEnd();

    EXPECT_EQ(restored.supplyRise(), engine.supplyRise());
    EXPECT_EQ(restored_cluster.aliveServers(),
              cluster.aliveServers());
    for (std::size_t id = 0; id < n; ++id)
        EXPECT_EQ(restored_cluster.server(id).health(),
                  cluster.server(id).health());

    // Both engines must now produce identical futures.
    for (int i = 10; i < 40; ++i) {
        const Seconds now = i * kMinute;
        EXPECT_EQ(engine.beginInterval(cluster, now, kMinute),
                  restored.beginInterval(restored_cluster, now,
                                         kMinute))
            << "divergence at interval " << i;
    }
}

TEST(FaultEngine, LoadRejectsCorruptHealthTable)
{
    FaultConfig config;
    config.enable = true;
    Cluster cluster = makeCluster(2);
    FaultEngine engine(config, 2);
    Serializer out;
    engine.saveState(out, cluster);

    // Flip the last health byte to an undefined enum value.
    std::vector<std::uint8_t> bytes = out.bytes();
    bytes.back() = 9;
    FaultEngine victim(config, 2);
    Deserializer in(bytes.data(), bytes.size());
    Restore io{in, ResumeCheck("snapshot"), "snapshot FALT"};
    EXPECT_THROW(victim.loadState(io, cluster), FatalError);
}

} // namespace
} // namespace vmt
