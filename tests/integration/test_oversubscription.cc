/**
 * @file
 * Integration tests for cooling oversubscription: with a plant sized
 * below the round-robin peak, the unmanaged cluster overheats while
 * VMT absorbs the excursion into wax (the paper's headline use case:
 * "the datacenter can employ a smaller cooling system while still
 * meeting the computational demands of peak load").
 */

#include <gtest/gtest.h>

#include "core/vmt_wa.h"
#include "sched/round_robin.h"
#include "sim/simulation.h"

namespace vmt {
namespace {

SimConfig
baseConfig()
{
    SimConfig config;
    config.numServers = 100;
    config.seed = 7;
    return config;
}

TEST(Oversubscription, UnconstrainedPlantNeverMovesInlet)
{
    SimConfig config = baseConfig();
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_DOUBLE_EQ(r.inletTemp.peak(), config.thermal.inletTemp);
    EXPECT_DOUBLE_EQ(r.inletTemp.trough(), config.thermal.inletTemp);
}

TEST(Oversubscription, UndersizedPlantRaisesInletUnderRoundRobin)
{
    SimConfig config = baseConfig();
    // First find the uncontrolled peak, then shrink the plant 10%.
    RoundRobinScheduler probe;
    const SimResult unconstrained = runSimulation(config, probe);
    config.coolingCapacity = unconstrained.peakCoolingLoad * 0.90;

    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_GT(r.inletTemp.peak(), config.thermal.inletTemp + 1.0);
    // The warmer room pushes the cluster mean up (some of the
    // excursion is absorbed by wax that now melts — the PCM itself
    // buffers a mild overload).
    EXPECT_GT(r.meanAirTemp.peak(),
              unconstrained.meanAirTemp.peak() + 0.5);
    EXPECT_GT(r.maxMeltFraction,
              unconstrained.maxMeltFraction + 0.05);
}

TEST(Oversubscription, VmtAbsorbsTheOverloadExcursion)
{
    SimConfig config = baseConfig();
    RoundRobinScheduler probe;
    const SimResult unconstrained = runSimulation(config, probe);
    config.coolingCapacity = unconstrained.peakCoolingLoad * 0.90;

    RoundRobinScheduler rr;
    const SimResult without = runSimulation(config, rr);
    VmtWaScheduler wa(VmtConfig{}, hotMaskFromPaper());
    const SimResult with = runSimulation(config, wa);

    // VMT keeps the inlet excursion markedly smaller.
    EXPECT_LT(with.inletTemp.peak() - config.thermal.inletTemp,
              0.5 * (without.inletTemp.peak() -
                     config.thermal.inletTemp));
}

TEST(Oversubscription, SeverelyUndersizedPlantOverheatsServers)
{
    SimConfig config = baseConfig();
    config.coolingCapacity = 24000.0; // ~73% of the ~33 kW peak.
    config.coolingOverloadRise = 3.0e-3;
    RoundRobinScheduler rr;
    const SimResult r = runSimulation(config, rr);
    EXPECT_GT(r.overheatedServerIntervals, 0u);
    EXPECT_GT(r.maxAirTemp, kOverheatTemp);
}

} // namespace
} // namespace vmt
