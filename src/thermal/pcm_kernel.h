/**
 * @file
 * Shared PCM step kernels: the constant-derivation and per-step
 * arithmetic used by both the batched ThermalSoA kernel and the
 * per-object Pcm in tests/reference/.
 *
 * Bitwise-identity contract: every helper here is the *single source*
 * of the expression it computes. Pcm delegates to these functions, and
 * ThermalSoA evaluates the same functions (or loop bodies with
 * identical statement shapes), so the per-object model (and the
 * per-object reference fleet built on it) and the batched kernel
 * produce bit-for-bit equal doubles from equal inputs.
 * Any change to a formula below changes both paths together; the
 * `ctest -L kernel` lockstep suite pins the invariant.
 */

#ifndef VMT_THERMAL_PCM_KERNEL_H
#define VMT_THERMAL_PCM_KERNEL_H

#include <algorithm>
#include <cmath>

#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {

/**
 * Constants derived once from PcmParams so the hot step/readback paths
 * are pure multiply-adds. The expressions mirror
 * PcmParams::mass()/latentCapacity() exactly, so cached readbacks are
 * bit-for-bit what recomputing would produce.
 */
struct PcmDerived
{
    Kilograms mass = 0.0;
    Joules latentCap = 0.0;
    double heatCapSolid = 0.0;  // m c_s, J/K
    double heatCapLiquid = 0.0; // m c_l, J/K
    Seconds tauSolid = 0.0;     // m c_s / G
    Seconds tauLiquid = 0.0;    // m c_l / G
};

/**
 * Derive the constants above.
 * @throws FatalError unless every parameter is positive.
 */
PcmDerived derivePcm(const PcmParams &params);

/** Enthalpy of wax starting solid at `initial_temp`, clamped to the
 *  melting point from above. */
inline double
pcmInitialEnthalpy(const PcmParams &p, const PcmDerived &d,
                   Celsius initial_temp)
{
    const Celsius t = std::min(initial_temp, p.meltTemp);
    return d.heatCapSolid * (t - p.meltTemp);
}

/** Solid-regime predicate (upper boundary H = 0); the exact
 *  classification the closed-form walk branches on. Bitwise, not
 *  short-circuit, combinators: the operands are side-effect-free and
 *  the SoA classify sweep only vectorizes without control flow. */
inline bool
pcmIsSolid(double h, Celsius air_temp, Celsius melt)
{
    return (h < 0.0) | ((h == 0.0) & (air_temp <= melt));
}

/** Latent-plateau predicate, evaluated after pcmIsSolid failed. */
inline bool
pcmIsMelting(double h, Celsius air_temp, Celsius melt,
             Joules latent_cap)
{
    return (h < latent_cap) | ((h == latent_cap) & (air_temp < melt));
}

/**
 * Analytic step of the enthalpy ODE dH/dt = G (T_air - T(H)) against
 * a constant air temperature (physics in thermal/pcm.h): exponential
 * relaxation toward the regime equilibrium in the sensible regimes,
 * linear accumulation on the latent plateau, regime crossings walked
 * in drive order with the crossing time solved in closed form.
 *
 * @param h Enthalpy state, advanced in place.
 * @return Heat absorbed over the step: exactly the enthalpy change.
 */
inline Joules
pcmClosedStep(const PcmParams &p, const PcmDerived &d, double &h,
              Celsius air_temp, Seconds dt)
{
    const Joules before = h;
    const Celsius melt = p.meltTemp;
    Seconds remaining = dt;

    while (remaining > 0.0) {
        if (pcmIsSolid(h, air_temp, melt)) {
            // Solid sensible regime; upper boundary H = 0.
            const Joules h_eq = d.heatCapSolid * (air_temp - melt);
            if (h_eq <= 0.0) {
                // Equilibrium inside the regime: never crosses.
                h = h_eq + (h - h_eq) * std::exp(-remaining / d.tauSolid);
                break;
            }
            const Seconds t_cross =
                d.tauSolid * std::log((h_eq - h) / h_eq);
            if (t_cross >= remaining) {
                h = h_eq + (h - h_eq) * std::exp(-remaining / d.tauSolid);
                break;
            }
            h = 0.0;
            remaining -= t_cross;
        } else if (pcmIsMelting(h, air_temp, melt, d.latentCap)) {
            // Latent plateau: constant flow at the pinned temperature.
            const Watts flow = p.conductance * (air_temp - melt);
            if (flow == 0.0)
                break; // No drive: the plateau holds indefinitely.
            const Joules boundary = flow > 0.0 ? d.latentCap : 0.0;
            const Seconds t_cross = (boundary - h) / flow;
            if (t_cross >= remaining) {
                h += flow * remaining;
                break;
            }
            h = boundary;
            remaining -= t_cross;
        } else {
            // Liquid sensible regime; lower boundary H = m L.
            const Joules h_eq =
                d.latentCap + d.heatCapLiquid * (air_temp - melt);
            if (h_eq >= d.latentCap) {
                h = h_eq + (h - h_eq) * std::exp(-remaining / d.tauLiquid);
                break;
            }
            const Seconds t_cross =
                d.tauLiquid * std::log((h - h_eq) / (d.latentCap - h_eq));
            if (t_cross >= remaining) {
                h = h_eq + (h - h_eq) * std::exp(-remaining / d.tauLiquid);
                break;
            }
            h = d.latentCap;
            remaining -= t_cross;
        }
    }

    return h - before;
}

/** Wax temperature as a pure function of the enthalpy state. */
inline Celsius
pcmTemperature(const PcmParams &p, const PcmDerived &d, double h)
{
    if (h < 0.0)
        return p.meltTemp + h / d.heatCapSolid;
    if (h <= d.latentCap)
        return p.meltTemp;
    return p.meltTemp + (h - d.latentCap) / d.heatCapLiquid;
}

/** Melt fraction in [0, 1] as a pure function of the enthalpy. */
inline double
pcmMeltFraction(const PcmDerived &d, double h)
{
    return std::clamp(h / d.latentCap, 0.0, 1.0);
}

} // namespace vmt

#endif // VMT_THERMAL_PCM_KERNEL_H
