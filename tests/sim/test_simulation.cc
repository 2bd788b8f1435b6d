/**
 * @file
 * Unit tests for the scale-out simulation driver.
 */

#include <gtest/gtest.h>

#include "core/vmt_ta.h"
#include "sched/round_robin.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace vmt {
namespace {

SimConfig
shortConfig(std::size_t servers = 25, Hours hours = 8.0)
{
    SimConfig config;
    config.numServers = servers;
    config.trace.duration = hours;
    config.seed = 11;
    return config;
}

TEST(Simulation, SeriesHaveOneSamplePerInterval)
{
    const SimConfig config = shortConfig(10, 4.0);
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_EQ(r.coolingLoad.size(), 240u);
    EXPECT_EQ(r.totalPower.size(), 240u);
    EXPECT_EQ(r.meanAirTemp.size(), 240u);
    EXPECT_EQ(r.utilization.size(), 240u);
    EXPECT_EQ(r.hotGroupSizeSeries.size(), 240u);
    EXPECT_EQ(r.schedulerName, "RoundRobin");
}

TEST(Simulation, RejectsBadInterval)
{
    SimConfig config = shortConfig();
    config.interval = 0.0;
    RoundRobinScheduler rr;
    EXPECT_THROW(runSimulation(config, rr), FatalError);
}

TEST(Simulation, NoDroppedJobsAtPaperUtilization)
{
    const SimConfig config = shortConfig(25, 12.0);
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_EQ(r.droppedJobs, 0u);
    EXPECT_GT(r.placedJobs, 1000u);
}

TEST(Simulation, UtilizationTracksTrace)
{
    SimConfig config = shortConfig(50, 24.0);
    config.trace.noiseStddev = 0.0;
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    const DiurnalTrace trace(config.trace);
    // After warm-up, realized utilization follows the trace within a
    // few percent (job completions lag a falling trace slightly).
    for (std::size_t i = 120; i < r.utilization.size(); i += 60) {
        EXPECT_NEAR(r.utilization.at(i), trace.utilization(i), 0.06)
            << "interval " << i;
    }
}

TEST(Simulation, PowerConservation)
{
    const SimConfig config = shortConfig(20, 10.0);
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    // Every interval: total power == cooling load + wax heat flow.
    for (std::size_t i = 0; i < r.totalPower.size(); i += 13) {
        EXPECT_NEAR(r.totalPower.at(i),
                    r.coolingLoad.at(i) + r.waxHeatFlow.at(i), 1e-6);
    }
}

TEST(Simulation, DeterministicForSameSeed)
{
    const SimConfig config = shortConfig(15, 6.0);
    RoundRobinScheduler a, b;
    const SimResult r1 = runSimulation(config, a);
    const SimResult r2 = runSimulation(config, b);
    EXPECT_EQ(r1.placedJobs, r2.placedJobs);
    for (std::size_t i = 0; i < r1.coolingLoad.size(); i += 37)
        EXPECT_DOUBLE_EQ(r1.coolingLoad.at(i), r2.coolingLoad.at(i));
}

TEST(Simulation, DifferentSeedsDiffer)
{
    SimConfig config = shortConfig(15, 6.0);
    RoundRobinScheduler a, b;
    const SimResult r1 = runSimulation(config, a);
    config.seed += 1;
    const SimResult r2 = runSimulation(config, b);
    EXPECT_NE(r1.placedJobs, r2.placedJobs);
}

TEST(Simulation, HeatmapsRecordedOnRequest)
{
    SimConfig config = shortConfig(10, 2.0);
    config.recordHeatmaps = true;
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    ASSERT_TRUE(r.airTempMap.has_value());
    ASSERT_TRUE(r.meltMap.has_value());
    EXPECT_EQ(r.airTempMap->rows(), 10u);
    EXPECT_EQ(r.airTempMap->cols(), 120u);
    // Temperatures start at the inlet and are recorded everywhere.
    EXPECT_GT(r.airTempMap->minValue(), 15.0);
    EXPECT_LT(r.airTempMap->maxValue(), 60.0);
}

TEST(Simulation, HeatmapsAbsentByDefault)
{
    const SimConfig config = shortConfig(10, 2.0);
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_FALSE(r.airTempMap.has_value());
    EXPECT_FALSE(r.meltMap.has_value());
}

TEST(Simulation, HotGroupTelemetryForVmt)
{
    const SimConfig config = shortConfig(20, 4.0);
    VmtTaScheduler ta(VmtConfig{}, hotMaskFromPaper());
    const SimResult r = runSimulation(config, ta);
    // 22/35.7*20 = 12.3 -> 12.
    EXPECT_DOUBLE_EQ(r.hotGroupSizeSeries.at(10), 12.0);
    // Hot group temperature differs from the cluster mean once load
    // concentrates.
    EXPECT_GT(r.hotGroupTemp.peak(), r.meanAirTemp.peak());
}

TEST(Simulation, PeakReductionHelperValidates)
{
    SimResult empty;
    EXPECT_THROW(peakReductionPercent(empty, empty), FatalError);
}

TEST(Simulation, InletVariationChangesTemperatureSpread)
{
    SimConfig config = shortConfig(40, 6.0);
    config.recordHeatmaps = true;
    RoundRobinScheduler a;
    const SimResult flat = runSimulation(config, a);
    config.inletStddev = 2.0;
    RoundRobinScheduler b;
    const SimResult varied = runSimulation(config, b);
    const double flat_spread =
        flat.airTempMap->maxValue() - flat.airTempMap->minValue();
    const double varied_spread =
        varied.airTempMap->maxValue() - varied.airTempMap->minValue();
    EXPECT_GT(varied_spread, flat_spread + 2.0);
}

/** A deliberately broken policy: its placeJobs places every job
 *  through round robin, then reports one placement too few or an id
 *  past the end of the fleet. */
class BrokenBatchScheduler final : public RoundRobinScheduler
{
  public:
    enum class Fault { ShortOutput, IdOutOfRange };

    explicit BrokenBatchScheduler(Fault fault) : fault_(fault) {}

    std::string name() const override { return "Broken"; }

    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override
    {
        RoundRobinScheduler::placeJobs(cluster, jobs, out);
        if (out.empty())
            return;
        if (fault_ == Fault::ShortOutput)
            out.pop_back();
        else
            out.back() = cluster.numServers();
    }

  private:
    Fault fault_;
};

TEST(SimulationDeathTest, ShortPlacementOutputPanicsNamingThePolicy)
{
    const SimConfig config = shortConfig(10, 1.0);
    EXPECT_DEATH(
        {
            BrokenBatchScheduler broken(
                BrokenBatchScheduler::Fault::ShortOutput);
            runSimulation(config, broken);
        },
        "placeJobs of policy Broken returned [0-9]+ placements for "
        "[0-9]+ jobs");
}

TEST(SimulationDeathTest, OutOfRangePlacementPanicsNamingThePolicy)
{
    const SimConfig config = shortConfig(10, 1.0);
    EXPECT_DEATH(
        {
            BrokenBatchScheduler broken(
                BrokenBatchScheduler::Fault::IdOutOfRange);
            runSimulation(config, broken);
        },
        "placeJobs of policy Broken chose server 10 in a 10-server pod");
}

TEST(Simulation, CheckPlacementsAcceptsIdsAndNoServer)
{
    RoundRobinScheduler rr;
    checkPlacements(rr, 3, {0, kNoServer, 9}, 10);
    checkPlacements(rr, 0, {}, 10);
}

} // namespace
} // namespace vmt
