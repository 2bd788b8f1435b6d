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

Pcm::Pcm(const PcmParams &params, Celsius initial_temp)
    : params_(params),
      derived_(derivePcm(params)),
      enthalpy_(pcmInitialEnthalpy(params, derived_, initial_temp))
{}

Joules
Pcm::step(Celsius air_temp, Seconds dt)
{
    if (dt <= 0.0)
        fatal("Pcm::step requires dt > 0");
    // The analytic walk lives in pcm_kernel.h (pcmClosedStep) so the
    // batched SoA kernel's scalar-fixup path runs the *same code*.
    return pcmClosedStep(params_, derived_, enthalpy_, air_temp, dt);
}

Celsius
Pcm::temperature() const
{
    return pcmTemperature(params_, derived_, enthalpy_);
}

double
Pcm::meltFraction() const
{
    return pcmMeltFraction(derived_, enthalpy_);
}

Joules
Pcm::latentEnergyStored() const
{
    return meltFraction() * derived_.latentCap;
}

} // namespace vmt
