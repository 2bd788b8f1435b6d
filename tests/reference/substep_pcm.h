/**
 * @file
 * The explicit sub-stepped PCM integrator the closed form replaced:
 * forward-Euler steps of the enthalpy ODE dH/dt = G (T_air - T(H)),
 * each well inside the sensible regime's time constant. It is the
 * convergence reference for the closed-form Pcm
 * (tests/thermal/test_pcm.cc).
 */

#ifndef VMT_TESTS_REFERENCE_SUBSTEP_PCM_H
#define VMT_TESTS_REFERENCE_SUBSTEP_PCM_H

#include <algorithm>
#include <cmath>

#include "thermal/pcm_kernel.h"
#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt::reference {

/** Substep count and length for one step of dt. */
struct PcmSubstepLayout
{
    int count = 0;
    Seconds len = 0.0;
};

inline PcmSubstepLayout
pcmSubstepLayout(const PcmParams &p, const PcmDerived &d, Seconds dt)
{
    // Sub-step so explicit integration stays well inside the sensible
    // regime's time constant (m c / G, ~4-5 minutes with defaults).
    const Seconds sensible_tau =
        d.mass * std::min(p.specificHeatSolid, p.specificHeatLiquid) /
        p.conductance;
    PcmSubstepLayout layout;
    layout.count = static_cast<int>(
        std::ceil(dt / std::max(1.0, sensible_tau / 5.0)));
    layout.len = dt / layout.count;
    return layout;
}

/** A wax load advanced by the sub-stepped integrator, with Pcm's
 *  state and readbacks. */
class SubstepPcm
{
  public:
    explicit SubstepPcm(const PcmParams &params,
                        Celsius initial_temp = 22.0)
        : params_(params),
          derived_(derivePcm(params)),
          enthalpy_(pcmInitialEnthalpy(params, derived_, initial_temp))
    {}

    /**
     * Advance by dt against a constant air temperature.
     * @return Heat absorbed, accumulated substep by substep — not
     *         always bitwise the net enthalpy change.
     */
    Joules step(Celsius air_temp, Seconds dt)
    {
        const PcmSubstepLayout layout =
            pcmSubstepLayout(params_, derived_, dt);
        Joules absorbed = 0.0;
        for (int i = 0; i < layout.count; ++i) {
            const Watts flow =
                params_.conductance * (air_temp - temperature());
            const Joules dq = flow * layout.len;
            enthalpy_ += dq;
            absorbed += dq;
        }
        return absorbed;
    }

    Celsius temperature() const
    {
        return pcmTemperature(params_, derived_, enthalpy_);
    }
    double meltFraction() const
    {
        return pcmMeltFraction(derived_, enthalpy_);
    }
    bool fullyMelted() const { return meltFraction() >= 1.0; }
    Joules enthalpy() const { return enthalpy_; }

  private:
    PcmParams params_;
    PcmDerived derived_;
    Joules enthalpy_;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SUBSTEP_PCM_H
