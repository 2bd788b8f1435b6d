/**
 * @file
 * Lumped phase-change thermal store for one server's wax load: the
 * per-object closed-form model (physics in src/thermal/pcm.h).
 *
 * The drivers step every server's wax at once through the SoA kernel
 * (src/thermal/thermal_soa.h); this per-object model runs the same
 * pcmClosedStep on one enthalpy, and the thermal tests, the per-object
 * ServerThermal and the estimator bench drive it.
 */

#ifndef VMT_TESTS_REFERENCE_PCM_H
#define VMT_TESTS_REFERENCE_PCM_H

#include "thermal/pcm_kernel.h"
#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {

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

#endif // VMT_TESTS_REFERENCE_PCM_H
