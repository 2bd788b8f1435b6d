/**
 * @file
 * Per-server thermal state: inlet air -> air at the wax -> exhaust,
 * with the PCM coupled to the air node.
 *
 * The air-at-wax temperature relaxes first-order toward
 * inlet + airRisePerWatt * power; the wax exchanges heat with that air
 * through its conductance. Heat the wax absorbs does not leave the
 * server, so the heat *rejected to the room* (what the cooling system
 * must remove) is power - waxHeatFlow. When the wax refreezes,
 * waxHeatFlow goes negative and the rejected heat exceeds the
 * electrical power, exactly the thermal time shifting the paper
 * exploits.
 *
 * The drivers step every server at once through the SoA kernel
 * (src/thermal/thermal_soa.h); this per-object model is the reference
 * the tests and the estimator/simulator benches compare it against.
 */

#ifndef VMT_TESTS_REFERENCE_SERVER_THERMAL_H
#define VMT_TESTS_REFERENCE_SERVER_THERMAL_H

#include "reference/pcm.h"
#include "reference/rc_node.h"
#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {

/** Outputs of one thermal step. */
struct ThermalSample
{
    /** Air temperature at the wax containers after the step. */
    Celsius airTemp = 0.0;
    /** Container-exterior temperature (what the wax-state sensor
     *  reads): midway between the air and the wax itself. */
    Celsius containerTemp = 0.0;
    /** Server exhaust temperature after the step. */
    Celsius exhaustTemp = 0.0;
    /** Average heat flow into the wax over the step (W, signed). */
    Watts waxHeatFlow = 0.0;
    /** Average heat rejected to the room over the step (W). */
    Watts rejectedPower = 0.0;
    /** Estimated CPU junction temperature at the step's power. */
    Celsius cpuTemp = 0.0;
};

/** Lumped thermal model of one PCM-equipped server. */
class ServerThermal
{
  public:
    /**
     * @param params Thermal constants.
     * @param inlet_offset Per-server inlet deviation (airflow
     *        variation between slots); added to params.inletTemp.
     */
    explicit ServerThermal(const ServerThermalParams &params,
                           Kelvin inlet_offset = 0.0);

    /**
     * Advance the model by dt at a constant electrical power.
     * @param power Server power over the interval (W, >= 0).
     * @param dt Step length in seconds (> 0).
     */
    ThermalSample step(Watts power, Seconds dt);

    /** Current air temperature at the wax. */
    Celsius airTemp() const { return airNode_.temperature(); }

    /** Effective inlet temperature for this server. */
    Celsius inletTemp() const;

    /** Per-server inlet deviation (fixed at construction). */
    Kelvin inletOffset() const { return inletOffset_; }

    /**
     * Change the base (cold-aisle) inlet temperature, e.g. when an
     * overloaded cooling plant cannot hold its setpoint. The
     * per-server offset is preserved.
     */
    void setBaseInlet(Celsius inlet);

    /** The wax model (read-only). */
    const Pcm &pcm() const { return pcm_; }

    /** Jump the air-node temperature and wax enthalpy (checkpoint
     *  restore). These are the model's only dynamic state; the step
     *  caches are pure functions of (params, dt) and refill
     *  identically. */
    void restoreState(Celsius air_temp, Joules wax_enthalpy)
    {
        airNode_.reset(air_temp);
        pcm_.restoreEnthalpy(wax_enthalpy);
    }

    /** Thermal constants in effect (inletTemp reflects setBaseInlet). */
    const ServerThermalParams &params() const { return params_; }

    /** Steady-state air temperature at the given power, ignoring the
     *  wax (useful for classification and Fig. 1 analysis). */
    Celsius steadyStateAirTemp(Watts power) const;

    /** Steady-state exhaust temperature when all power is rejected. */
    Celsius steadyStateExhaustTemp(Watts power) const;

    /** Estimated CPU junction temperature at a given server power. */
    Celsius cpuTemp(Watts power) const;

  private:
    ServerThermalParams params_;
    Kelvin inletOffset_;
    RcNode airNode_;
    Pcm pcm_;
};

} // namespace vmt

#endif // VMT_TESTS_REFERENCE_SERVER_THERMAL_H
