#include "thermal/pcm.h"

#include "util/logging.h"

namespace vmt {

const char *
integratorTagName(std::uint8_t tag)
{
    switch (tag) {
    case kClosedFormIntegratorTag:
        return "closed";
    case 1:
        return "substep";
    default:
        return "unknown";
    }
}

PcmDerived
derivePcm(const PcmParams &params)
{
    if (params.volume <= 0.0 || params.densityKgPerL <= 0.0 ||
        params.latentHeat <= 0.0 || params.conductance <= 0.0 ||
        params.specificHeatSolid <= 0.0 || params.specificHeatLiquid <= 0.0)
        fatal("PcmParams must be positive");

    // Same expressions as PcmParams::mass()/latentCapacity() and the
    // legacy per-call computations, evaluated once.
    PcmDerived d;
    d.mass = params.volume * params.densityKgPerL;
    d.latentCap = d.mass * params.latentHeat;
    d.heatCapSolid = d.mass * params.specificHeatSolid;
    d.heatCapLiquid = d.mass * params.specificHeatLiquid;
    d.tauSolid = d.heatCapSolid / params.conductance;
    d.tauLiquid = d.heatCapLiquid / params.conductance;
    return d;
}

} // namespace vmt
