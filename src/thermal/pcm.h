/**
 * @file
 * Enthalpy-based phase change material model.
 *
 * The wax is a single lumped mass exchanging heat with the server air
 * through a fixed conductance. State is tracked as total enthalpy above
 * a reference (solid at the melting temperature), which maps uniquely
 * onto (temperature, melt fraction):
 *
 *   H < 0                : solid, T = Tm + H / (m c_s), fraction 0
 *   0 <= H <= m L        : transition, T = Tm, fraction H / (m L)
 *   H > m L              : liquid, T = Tm + (H - m L) / (m c_l)
 *
 * This reproduces the latent "plateau" TTS relies on: while melting or
 * freezing the wax temperature is pinned at the melting point and all
 * exchanged heat moves the melt fraction.
 *
 * The model advances against a constant air temperature in closed
 * form (see DESIGN.md, "Single-core hot-path engine"): the
 * piecewise-linear enthalpy ODE is solved analytically per regime —
 * exponential relaxation toward the regime equilibrium in the sensible
 * (solid/liquid) regimes, linear enthalpy accumulation on the latent
 * plateau — walking regime crossings (at most solid->melting->liquid
 * or the reverse) in closed form. Exact for any dt; a handful of
 * multiply-adds plus at most two exp/log calls per step. Its
 * convergence reference, an explicit sub-stepped integrator, is in
 * tests/reference/substep_pcm.h.
 */

#ifndef VMT_THERMAL_PCM_H
#define VMT_THERMAL_PCM_H

#include <cstdint>

#include "thermal/pcm_kernel.h"
#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {

/**
 * The integrator byte snapshots carry (CONF and SCON sections). The
 * closed form is the only integrator, so every snapshot is written
 * with this tag; 1 marks a snapshot from the retired sub-stepped
 * integrator, which a resume refuses.
 */
inline constexpr std::uint8_t kClosedFormIntegratorTag = 0;

/** Name of a snapshot integrator tag ("closed", "substep" or
 *  "unknown"), for the resume-mismatch message. */
const char *integratorTagName(std::uint8_t tag);

/** Lumped phase-change thermal store (one server's wax load). */
class Pcm
{
  public:
    /**
     * @param params Material properties.
     * @param initial_temp Starting (solid) wax temperature; clamped to
     *        the melting temperature when above it.
     */
    explicit Pcm(const PcmParams &params, Celsius initial_temp = 22.0);

    /**
     * Advance the wax by dt against the given air temperature.
     *
     * @param air_temp Air temperature at the wax containers.
     * @param dt Time step in seconds (> 0).
     * @return Heat absorbed by the wax over the step in joules;
     *         negative when the wax is releasing heat back to the air.
     *         Always exactly the enthalpy change of the step.
     */
    Joules step(Celsius air_temp, Seconds dt);

    /** Current wax temperature. */
    Celsius temperature() const;

    /** Melted fraction in [0, 1]. */
    double meltFraction() const;

    /** True once the melt fraction reaches 1. */
    bool fullyMelted() const { return meltFraction() >= 1.0; }

    /** True when no wax has melted. */
    bool fullySolid() const { return meltFraction() <= 0.0; }

    /** Enthalpy above the solid-at-melting-point reference, joules. */
    Joules enthalpy() const { return enthalpy_; }

    /** Jump the enthalpy state (checkpoint restore). Temperature and
     *  melt fraction follow from the enthalpy, so this restores the
     *  complete dynamic state. */
    void restoreEnthalpy(Joules enthalpy) { enthalpy_ = enthalpy; }

    /** Latent energy currently stored (melt fraction x capacity). */
    Joules latentEnergyStored() const;

    /** Material properties in use. */
    const PcmParams &params() const { return params_; }

    /** The derived constants (derivePcm of params()); shared with the
     *  batched SoA kernel so both paths step identically. */
    const PcmDerived &derived() const { return derived_; }

  private:
    PcmParams params_;

    /** Constants derived from params_ once at construction (see
     *  pcm_kernel.h) so the hot paths are pure multiply-adds. */
    PcmDerived derived_;

    Joules enthalpy_;
};

} // namespace vmt

#endif // VMT_THERMAL_PCM_H
