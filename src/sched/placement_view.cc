#include "sched/placement_view.h"

#include "thermal/thermal_soa.h"

namespace vmt {

void
PlacementView::refreshImpl(Cluster &cluster, unsigned parts)
{
    const std::size_t n = cluster.numServers();
    const bool want_proj = parts & 1;
    const bool want_air = parts & 2;
    const bool want_est = parts & 4;
    if (want_proj)
        projected_.resize(n);
    if (want_air)
        air_.resize(n);
    if (want_est)
        estMelt_.resize(n);
    const KelvinPerWatt rise = cluster.thermalParams().airRisePerWatt;

    // Dirty-bitmap power gather (only needed for the projected keys),
    // then one tight sweep per requested array over the contiguous SoA
    // columns. Expression shapes mirror the Server accessors exactly
    // (see the header's bitwise contract): inletTemp() is baseInlet +
    // inletOffset.
    const ThermalSoA &soa = cluster.thermalSoa();
    if (want_proj) {
        cluster.refreshGatheredPower();
        for (std::size_t i = 0; i < n; ++i)
            projected_[i] = (soa.baseInlet(i) + soa.inletOffset(i)) +
                            rise * soa.power(i);
    }
    if (want_air) {
        for (std::size_t i = 0; i < n; ++i)
            air_[i] = soa.airTemp(i);
    }
    if (want_est) {
        const Joules latent = soa.derived().latentCap;
        for (std::size_t i = 0; i < n; ++i)
            estMelt_[i] = soa.estimatedEnthalpy(i) / latent;
    }
}

} // namespace vmt
