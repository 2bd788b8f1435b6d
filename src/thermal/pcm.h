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
 * multiply-adds plus at most two exp/log calls per step. The walk is
 * pcmClosedStep (pcm_kernel.h), which the SoA kernel runs for every
 * server. Its convergence reference, an explicit sub-stepped
 * integrator, is in tests/reference/substep_pcm.h, and the per-object
 * Pcm in tests/reference/pcm.h.
 */

#ifndef VMT_THERMAL_PCM_H
#define VMT_THERMAL_PCM_H

#include <cstdint>

#include "thermal/pcm_kernel.h"

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

} // namespace vmt

#endif // VMT_THERMAL_PCM_H
