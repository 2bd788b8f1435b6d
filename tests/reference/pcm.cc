#include "reference/pcm.h"

#include "util/logging.h"

namespace vmt {

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
