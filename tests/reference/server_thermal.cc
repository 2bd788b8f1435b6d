#include "reference/server_thermal.h"

#include <cmath>

#include "util/logging.h"

namespace vmt {

ServerThermal::ServerThermal(const ServerThermalParams &params,
                             Kelvin inlet_offset)
    : params_(params),
      inletOffset_(inlet_offset),
      airNode_(params.timeConstant, params.inletTemp + inlet_offset),
      pcm_(params.pcm, params.inletTemp + inlet_offset)
{
    if (params.airRisePerWatt <= 0.0 || params.exhaustRisePerWatt <= 0.0)
        fatal("ServerThermalParams rise-per-watt must be positive");
}

ThermalSample
ServerThermal::step(Watts power, Seconds dt)
{
    if (power < 0.0)
        fatal("ServerThermal::step requires power >= 0");
    if (dt <= 0.0)
        fatal("ServerThermal::step requires dt > 0");

    // Wax exchange against the current air temperature.
    const Joules absorbed = pcm_.step(airNode_.temperature(), dt);
    const Watts wax_flow = absorbed / dt;

    // The wax sinks part of the airstream's heat, so the air node
    // relaxes toward the rise produced by the *net* heat in the air.
    const Celsius target =
        inletTemp() + params_.airRisePerWatt * (power - wax_flow);
    airNode_.step(target, dt);

    ThermalSample sample;
    sample.airTemp = airNode_.temperature();
    // The container skin sits between the airstream and the wax: its
    // temperature is (to first order) the midpoint of the two.
    sample.containerTemp =
        0.5 * (airNode_.temperature() + pcm_.temperature());
    sample.waxHeatFlow = wax_flow;
    sample.rejectedPower = power - wax_flow;
    sample.exhaustTemp =
        inletTemp() + params_.exhaustRisePerWatt * sample.rejectedPower;
    sample.cpuTemp = cpuTemp(power);
    return sample;
}

Celsius
ServerThermal::inletTemp() const
{
    return params_.inletTemp + inletOffset_;
}

void
ServerThermal::setBaseInlet(Celsius inlet)
{
    params_.inletTemp = inlet;
}

Celsius
ServerThermal::steadyStateAirTemp(Watts power) const
{
    return inletTemp() + params_.airRisePerWatt * power;
}

Celsius
ServerThermal::steadyStateExhaustTemp(Watts power) const
{
    return inletTemp() + params_.exhaustRisePerWatt * power;
}

Celsius
ServerThermal::cpuTemp(Watts power) const
{
    return airNode_.temperature() + params_.cpuRisePerWatt * power;
}

} // namespace vmt
