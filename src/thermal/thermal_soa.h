/**
 * @file
 * Structure-of-arrays thermal state for a homogeneous cluster plus
 * the batched interval kernel (DESIGN.md §13).
 *
 * The fleet's dynamic thermal state lives in contiguous arrays (air
 * temperature, wax enthalpy, estimator enthalpy, base inlet + offset,
 * gathered power) with one estimator table and one set of derived PCM
 * constants shared across the homogeneous fleet; Server objects read
 * their thermal state from here. A step covers a whole index range per
 * call:
 *
 *   pass 1  classify each server's PCM regime (pure function of
 *           enthalpy + air temperature), split the range into
 *           same-regime runs, and execute each run's closed-form
 *           update as a branch-free vectorizable loop. Servers that
 *           might cross a regime boundary within the step are flagged
 *           and redone exactly on a scalar fixup path that calls the
 *           same pcmClosedStep the per-object Pcm uses.
 *   pass 2  fused air-node update, container temperature, estimator
 *           integration and CPU temperature, one sweep.
 *
 * Bitwise contract: every arithmetic statement matches the per-object
 * model's expression shape (ServerThermal, Pcm, RcNode and
 * WaxStateEstimator: same operations, same order, same cached
 * constants), so the batched kernel and the per-object reference fleet
 * in tests/reference/ produce identical doubles; the `ctest -L kernel`
 * lockstep suite pins this. The no-cross fast paths only claim a
 * server when it is provably on the no-cross side of the boundary (a
 * 1e-12 relative guard band around the exact crossing test, orders of
 * magnitude wider than the ~1e-15 rounding disagreement between the
 * vector and scalar tests); everything ambiguous goes to the scalar
 * fixup, which is exact by construction.
 *
 * Threading: stepChunk touches only indices in [begin, end) and
 * per-server values never depend on run or chunk boundaries, so
 * disjoint chunks can execute concurrently and the result is bitwise
 * identical at any thread count.
 */

#ifndef VMT_THERMAL_THERMAL_SOA_H
#define VMT_THERMAL_THERMAL_SOA_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "thermal/pcm_kernel.h"
#include "thermal/rc_node.h"
#include "thermal/thermal_params.h"
#include "thermal/wax_state_estimator.h"
#include "util/units.h"

namespace vmt {

/** Contiguous thermal state + batched step for a homogeneous fleet. */
class ThermalSoA
{
  public:
    /**
     * Every server starts at its inlet temperature with the wax solid
     * at that temperature (clamped to the melting point) and an
     * empty melt estimate — the per-object ServerThermal's initial
     * state, bitwise.
     *
     * @param params Thermal constants shared by every server.
     * @param num_servers Fleet size (> 0).
     * @param inlet_offsets Per-server inlet deviations; empty means
     *        zero for every server, otherwise one entry per server.
     * @throws FatalError on an empty fleet, a non-positive air time
     *         constant or rise-per-watt, or invalid PCM parameters.
     */
    ThermalSoA(const ServerThermalParams &params, std::size_t num_servers,
               const std::vector<Kelvin> &inlet_offsets = {});

    std::size_t size() const { return air_.size(); }

    /**
     * Refresh the per-dt constant cache (air gain, regime
     * exponentials). Must be called before stepChunk for a given dt;
     * separate so the parallel path pays the transcendentals once,
     * outside the fan-out.
     */
    void beginStep(Seconds dt);

    /**
     * Advance servers [begin, end) by the dt passed to beginStep.
     * Safe to call concurrently for disjoint ranges.
     */
    void stepChunk(std::size_t begin, std::size_t end);

    // ---- per-server state (read through the Server accessors) ----

    Celsius airTemp(std::size_t i) const { return air_[i]; }
    void setAirTemp(std::size_t i, Celsius t) { air_[i] = t; }

    Joules enthalpy(std::size_t i) const { return enthalpy_[i]; }
    void setEnthalpy(std::size_t i, Joules h) { enthalpy_[i] = h; }

    Joules estimatedEnthalpy(std::size_t i) const
    {
        return estimated_[i];
    }
    void setEstimatedEnthalpy(std::size_t i, Joules h)
    {
        estimated_[i] = h;
    }

    Celsius baseInlet(std::size_t i) const { return baseInlet_[i]; }
    void setBaseInlet(std::size_t i, Celsius t) { baseInlet_[i] = t; }
    Kelvin inletOffset(std::size_t i) const { return inletOffset_[i]; }

    /** Gathered electrical power for the upcoming step (W). */
    void setPower(std::size_t i, Watts w) { power_[i] = w; }
    Watts power(std::size_t i) const { return power_[i]; }

    /** Thermal-throttle latch (Server::throttled() reads it), kept
     *  here so the post-step hysteresis scan reads contiguous memory. */
    void setThrottled(std::size_t i, bool throttled)
    {
        throttled_[i] = throttled ? 1 : 0;
    }
    bool throttled(std::size_t i) const { return throttled_[i] != 0; }

    /** Alive/failed bitmap: the power gather skips Failed servers and
     *  writes 0 W directly (bitwise what the Server cache returns);
     *  Failed servers still step thermally (air decays toward inlet,
     *  wax refreezes). */
    void setFailed(std::size_t i, bool failed);
    bool failed(std::size_t i) const
    {
        return (failedWords_[i >> 6] >> (i & 63)) & 1u;
    }

    // ---- post-step outputs (valid after stepChunk) ----

    /** Heat absorbed by server i's wax over the step (J, signed). */
    Joules absorbed(std::size_t i) const { return absorbed_[i]; }

    /** absorbed(i) / dt — the double ThermalSample::waxHeatFlow
     *  holds, divided in the vectorized sweep so the serial sample
     *  reduction carries no divide chains. */
    Watts waxFlow(std::size_t i) const { return waxFlow_[i]; }

    /** pcmMeltFraction(derived, enthalpy(i)), likewise precomputed in
     *  the sweep. */
    double meltFraction(std::size_t i) const { return meltFrac_[i]; }

    /** CPU junction temperature after the step (throttle input). */
    Celsius cpuTemp(std::size_t i) const { return cpu_[i]; }

    /** True if any server is currently throttled (word-wise scan of
     *  the mirror; lets the post-step hysteresis pass skip the
     *  per-server walk when no flip is possible). */
    bool anyThrottled() const;

    /** Largest post-step CPU temperature. Exact — max is
     *  order-independent — so it can gate the hysteresis scan. */
    Celsius maxCpuTemp() const;

    // ---- shared constants ----

    const PcmDerived &derived() const { return derived_; }
    const ServerThermalParams &params() const { return params_; }

  private:
    void stepChunkClosed(std::size_t begin, std::size_t end);
    void stepChunkFused(std::size_t begin, std::size_t end);
    void solidRun(std::size_t begin, std::size_t end);
    void meltingRun(std::size_t begin, std::size_t end);
    void liquidRun(std::size_t begin, std::size_t end);

    /** Constants cached per dt (dt is fixed for a whole run). */
    struct StepConsts
    {
        Seconds dt = -1.0;
        /** Air-node gain rcStepGain(timeConstant, dt). */
        double airGain = 0.0;
        /** exp(-dt/tau) for the sensible-regime relaxations; the
         *  identical double the scalar walk computes inline. */
        double eSolid = 0.0;
        double eLiquid = 0.0;
        /** exp(+dt/tau) * (1 + 1e-12): conservative no-cross bound
         *  (see header comment). */
        double eSolidMargin = 0.0;
        double eLiquidMargin = 0.0;
    };

    ServerThermalParams params_;
    PcmDerived derived_;
    /** One estimator shared fleet-wide: the lookup table is a pure
     *  function of the (homogeneous) wax parameters, so per-server
     *  copies only differ in their integrated state, which lives in
     *  estimated_. */
    WaxStateEstimator sharedEstimator_;
    StepConsts consts_;

    // Dynamic state.
    std::vector<Celsius> air_;
    std::vector<Joules> enthalpy_;
    std::vector<Joules> estimated_;
    std::vector<Celsius> baseInlet_;
    std::vector<Kelvin> inletOffset_;
    std::vector<Watts> power_;
    std::vector<std::uint8_t> throttled_;
    std::vector<std::uint64_t> failedWords_;

    // Scratch (index-disjoint across chunks, so thread-safe).
    std::vector<std::uint8_t> regime_;
    std::vector<std::uint8_t> fixup_;
    std::vector<Joules> absorbed_;
    std::vector<Watts> waxFlow_;
    std::vector<double> meltFrac_;
    std::vector<Celsius> waxT_;
    std::vector<Celsius> cpu_;
    std::vector<std::int32_t> bucket_;
};

} // namespace vmt

#endif // VMT_THERMAL_THERMAL_SOA_H
