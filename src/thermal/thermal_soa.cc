#include "thermal/thermal_soa.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace vmt {

namespace {

/** Regime codes for the run partition (pass 1). */
constexpr std::uint8_t kSolid = 0;
constexpr std::uint8_t kMelting = 1;
constexpr std::uint8_t kLiquid = 2;

/**
 * Pass-2 air/container/CPU sweep over n servers. A free function with
 * __restrict *parameters*: GCC ignores restrict on locals, and with
 * eight arrays the runtime alias-disambiguation tests the vectorizer
 * would need exceed its limit, so written as a member loop this sweep
 * silently stays scalar.
 */
void
fusedSweep(std::size_t n, double *__restrict airp,
           const double *__restrict wt, const double *__restrict ab,
           const double *__restrict base,
           const double *__restrict offset,
           const double *__restrict pw,
           std::int32_t *__restrict bucket,
           double *__restrict cpu, double *__restrict wf,
           Seconds dt, double airGain, double airRise,
           double cpuRise, Celsius melt, std::size_t tableSize,
           Kelvin bucketWidth, Kelvin span)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double air_old = airp[i];
        const Watts wax_flow = ab[i] / dt;
        const Celsius inlet = base[i] + offset[i];
        const Celsius target =
            inlet + airRise * (pw[i] - wax_flow);
        const double air_new =
            air_old + (target - air_old) * airGain;
        airp[i] = air_new;
        wf[i] = wax_flow;

        const Celsius cont = 0.5 * (air_new + wt[i]);
        bucket[i] = waxEstimatorBucket(tableSize, bucketWidth, span,
                                       melt, cont);
        cpu[i] = air_new + cpuRise * pw[i];
    }
}

/**
 * Estimator integration over n servers: the table gather + clamp over
 * the index array the fused sweep quantized (the int32 index sweep is
 * the form the vectorizer turns into hardware gathers; with the
 * quantization fused in it gives up on the whole loop).
 */
void
estimatorSweep(std::size_t n, double *__restrict est,
               const std::int32_t *__restrict bucket,
               const Watts *__restrict table, Joules latentCapacity,
               Seconds dt)
{
    for (std::size_t i = 0; i < n; ++i)
        waxEstimatorApply(est[i], table[bucket[i]], latentCapacity,
                          dt);
}

/**
 * The closed-form regime runs, as free functions for the same
 * restrict-parameter reason as fusedSweep. Each also produces the
 * post-step wax temperature and melt fraction, where its regime makes
 * the off-regime divides of the general select chains fold away; the
 * per-element proofs that these match pcmTemperature/pcmMeltFraction
 * bitwise are inline below. Fixup-flagged entries hold garbage and
 * are overwritten by the scalar fixup pass.
 */
void
solidSweep(std::size_t n, double *__restrict hp,
           const double *__restrict air, double *__restrict ab,
           double *__restrict wt, double *__restrict mf,
           std::uint8_t *__restrict fixup, Celsius melt, double hcs,
           double eSolid, double eMargin)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double h = hp[i];
        const Joules h_eq = hcs * (air[i] - melt);
        // No-cross iff the closed-form crossing time exceeds dt:
        // (h_eq - h)/h_eq >= exp(dt/tau). Claimed only beyond the
        // guard band; the boundary-adjacent sliver goes to fixup.
        const bool nocross =
            h_eq <= 0.0 || (h_eq - h) >= h_eq * eMargin;
        const double h_new = h_eq + (h - h_eq) * eSolid;
        fixup[i] = !nocross;
        hp[i] = nocross ? h_new : h;
        ab[i] = nocross ? h_new - h : 0.0;
        // No-cross solid means h_new <= 0 (0 only when pinned at the
        // boundary with h_eq == 0): pcmTemperature's solid branch is
        // melt + h/hcs, and at exactly 0 its plateau branch returns
        // melt == melt + 0.0/hcs bitwise. pcmMeltFraction clamps any
        // h <= 0 to exactly 0.0.
        wt[i] = melt + h_new / hcs;
        mf[i] = 0.0;
    }
}

void
meltingSweep(std::size_t n, double *__restrict hp,
             const double *__restrict air, double *__restrict ab,
             double *__restrict wt, double *__restrict mf,
             std::uint8_t *__restrict fixup, Celsius melt, double G,
             Joules cap, Seconds dt)
{
    // On the plateau the crossing test is rational (no
    // transcendentals), so it is evaluated *exactly* as the scalar
    // walk does — no guard band, no spurious fixups.
    for (std::size_t i = 0; i < n; ++i) {
        const double h = hp[i];
        const Watts flow = G * (air[i] - melt);
        const Joules boundary = flow > 0.0 ? cap : 0.0;
        const Seconds t_cross =
            (boundary - h) / (flow == 0.0 ? 1.0 : flow);
        const bool nocross = flow == 0.0 || t_cross >= dt;
        const double h_new = h + flow * dt;
        fixup[i] = !nocross;
        hp[i] = nocross ? h_new : h;
        ab[i] = nocross ? h_new - h : 0.0;
        // No-cross keeps h_new on the plateau ([0, cap] inclusive):
        // pcmTemperature is pinned at melt there, and h_new/cap is
        // pcmMeltFraction with the clamp a bitwise no-op (cap/cap is
        // exactly 1.0).
        wt[i] = melt;
        mf[i] = h_new / cap;
    }
}

void
liquidSweep(std::size_t n, double *__restrict hp,
            const double *__restrict air, double *__restrict ab,
            double *__restrict wt, double *__restrict mf,
            std::uint8_t *__restrict fixup, Celsius melt, double hcl,
            Joules cap, double eLiquid, double eMargin)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double h = hp[i];
        const Joules h_eq = cap + hcl * (air[i] - melt);
        const bool nocross =
            h_eq >= cap || (h - h_eq) >= (cap - h_eq) * eMargin;
        const double h_new = h_eq + (h - h_eq) * eLiquid;
        fixup[i] = !nocross;
        hp[i] = nocross ? h_new : h;
        ab[i] = nocross ? h_new - h : 0.0;
        // No-cross liquid means h_new >= cap (cap only when pinned at
        // the boundary): pcmTemperature's liquid branch is
        // melt + (h - cap)/hcl, and at exactly cap its plateau branch
        // returns melt == melt + 0.0/hcl bitwise. pcmMeltFraction
        // clamps any h >= cap to exactly 1.0.
        wt[i] = melt + (h_new - cap) / hcl;
        mf[i] = 1.0;
    }
}

/** Length of the prefix of regime[0..n) equal to regime[0], eight
 *  bytes per probe (the fleet melts and freezes together, so runs are
 *  long and the byte-at-a-time scan was a measurable serial cost). */
std::size_t
runLength(const std::uint8_t *regime, std::size_t n)
{
    const std::uint64_t word =
        regime[0] * std::uint64_t{0x0101010101010101};
    std::size_t i = 1;
    while (i + 8 <= n) {
        std::uint64_t probe;
        std::memcpy(&probe, regime + i, 8);
        if (probe != word)
            break;
        i += 8;
    }
    while (i < n && regime[i] == regime[0])
        ++i;
    return i;
}

} // namespace

ThermalSoA::ThermalSoA(const ServerThermalParams &params,
                       std::size_t num_servers,
                       const std::vector<Kelvin> &inlet_offsets)
    : params_(params),
      derived_(derivePcm(params.pcm)),
      sharedEstimator_(params.pcm),
      air_(num_servers, 0.0),
      enthalpy_(num_servers, 0.0),
      estimated_(num_servers, 0.0),
      baseInlet_(num_servers, 0.0),
      inletOffset_(num_servers, 0.0),
      power_(num_servers, 0.0),
      throttled_(num_servers, 0),
      failedWords_((num_servers + 63) / 64, 0),
      regime_(num_servers, 0),
      fixup_(num_servers, 0),
      absorbed_(num_servers, 0.0),
      waxFlow_(num_servers, 0.0),
      meltFrac_(num_servers, 0.0),
      waxT_(num_servers, 0.0),
      cpu_(num_servers, 0.0),
      bucket_(num_servers, 0)
{
    if (num_servers == 0)
        fatal("ThermalSoA requires at least one server");
    if (!inlet_offsets.empty() && inlet_offsets.size() != num_servers)
        fatal("ThermalSoA inlet_offsets must be empty or one per server");
    // The checks the per-object ServerThermal (and its RcNode) make.
    if (params.airRisePerWatt <= 0.0 || params.exhaustRisePerWatt <= 0.0)
        fatal("ServerThermalParams rise-per-watt must be positive");
    if (params.timeConstant <= 0.0)
        fatal("ServerThermalParams time constant must be positive");

    for (std::size_t i = 0; i < num_servers; ++i) {
        const Kelvin offset = inlet_offsets.empty() ? 0.0 : inlet_offsets[i];
        baseInlet_[i] = params.inletTemp;
        inletOffset_[i] = offset;
        // ServerThermal's initial state: the air node and the wax
        // both start at the server's inlet temperature.
        air_[i] = params.inletTemp + offset;
        enthalpy_[i] = pcmInitialEnthalpy(params.pcm, derived_,
                                          params.inletTemp + offset);
    }
}

bool
ThermalSoA::anyThrottled() const
{
    const std::uint8_t *p = throttled_.data();
    const std::size_t n = throttled_.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t probe;
        std::memcpy(&probe, p + i, 8);
        if (probe != 0)
            return true;
    }
    for (; i < n; ++i)
        if (p[i])
            return true;
    return false;
}

Celsius
ThermalSoA::maxCpuTemp() const
{
    const double *__restrict p = cpu_.data();
    double m = p[0];
    for (std::size_t i = 1; i < cpu_.size(); ++i)
        m = p[i] > m ? p[i] : m;
    return m;
}

void
ThermalSoA::setFailed(std::size_t i, bool failed)
{
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (failed)
        failedWords_[i >> 6] |= bit;
    else
        failedWords_[i >> 6] &= ~bit;
}

void
ThermalSoA::beginStep(Seconds dt)
{
    if (dt <= 0.0)
        fatal("ThermalSoA::beginStep requires dt > 0");
    if (dt == consts_.dt)
        return;
    consts_.dt = dt;
    // The same doubles the per-object caches hold: RcNode caches
    // rcStepGain(tau, dt); the closed-form walk (pcmClosedStep)
    // evaluates exp(-remaining/tau) with remaining == dt on its
    // no-cross branches.
    consts_.airGain = rcStepGain(params_.timeConstant, dt);
    consts_.eSolid = std::exp(-dt / derived_.tauSolid);
    consts_.eLiquid = std::exp(-dt / derived_.tauLiquid);
    consts_.eSolidMargin =
        std::exp(dt / derived_.tauSolid) * (1.0 + 1e-12);
    consts_.eLiquidMargin =
        std::exp(dt / derived_.tauLiquid) * (1.0 + 1e-12);
}

void
ThermalSoA::stepChunk(std::size_t begin, std::size_t end)
{
    stepChunkClosed(begin, end);
    stepChunkFused(begin, end);
}

/**
 * Pass 1: classify, run-partition, update.
 *
 * The regime is the exact predicate chain pcmClosedStep branches on,
 * so every server lands in the regime the scalar walk would enter
 * first. Each same-regime run updates branch-free; servers whose
 * no-cross test is not provably satisfied are flagged and redone by
 * the scalar fixup below, which calls pcmClosedStep itself.
 */
void
ThermalSoA::stepChunkClosed(std::size_t begin, std::size_t end)
{
    const double *__restrict hp = enthalpy_.data();
    const double *__restrict air = air_.data();
    std::uint8_t *__restrict regime = regime_.data();
    const Celsius melt = params_.pcm.meltTemp;
    const Joules cap = derived_.latentCap;

    static_assert(kSolid == 0 && kMelting == 1 && kLiquid == 2);
    for (std::size_t i = begin; i < end; ++i) {
        const double h = hp[i];
        const double a = air[i];
        // Arithmetic selection — both predicates evaluate
        // unconditionally, so the sweep has no control flow (a nested
        // ternary would gate pcmIsMelting behind a branch). For solid
        // servers the masked melting predicate is a don't-care.
        const std::uint8_t past_solid = !pcmIsSolid(h, a, melt);
        const std::uint8_t past_melting =
            !pcmIsMelting(h, a, melt, cap);
        regime[i] = past_solid + (past_solid & past_melting);
    }

    // Same-regime runs: regime flips are rare (fleets melt and freeze
    // together), so runs are long and the per-run loops vectorize
    // over contiguous memory.
    std::size_t i = begin;
    while (i < end) {
        const std::uint8_t r = regime[i];
        const std::size_t j = i + runLength(regime + i, end - i);
        if (r == kSolid)
            solidRun(i, j);
        else if (r == kMelting)
            meltingRun(i, j);
        else
            liquidRun(i, j);
        i = j;
    }

    // Scalar fixup: the flagged few re-run the exact per-object walk
    // from their untouched state. Fixups are rare, so skip flag words
    // that are all clear (the common case is every word clear).
    const std::uint8_t *__restrict fixup = fixup_.data();
    std::size_t k = begin;
    while (k < end) {
        if (k + 8 <= end) {
            std::uint64_t probe;
            std::memcpy(&probe, fixup + k, 8);
            if (probe == 0) {
                k += 8;
                continue;
            }
        }
        if (fixup[k]) {
            absorbed_[k] = pcmClosedStep(params_.pcm, derived_,
                                         enthalpy_[k], air_[k],
                                         consts_.dt);
            waxT_[k] = pcmTemperature(params_.pcm, derived_,
                                      enthalpy_[k]);
            meltFrac_[k] = pcmMeltFraction(derived_, enthalpy_[k]);
        }
        ++k;
    }
}

void
ThermalSoA::solidRun(std::size_t begin, std::size_t end)
{
    solidSweep(end - begin, enthalpy_.data() + begin,
               air_.data() + begin, absorbed_.data() + begin,
               waxT_.data() + begin, meltFrac_.data() + begin,
               fixup_.data() + begin, params_.pcm.meltTemp,
               derived_.heatCapSolid, consts_.eSolid,
               consts_.eSolidMargin);
}

void
ThermalSoA::meltingRun(std::size_t begin, std::size_t end)
{
    meltingSweep(end - begin, enthalpy_.data() + begin,
                 air_.data() + begin, absorbed_.data() + begin,
                 waxT_.data() + begin, meltFrac_.data() + begin,
                 fixup_.data() + begin, params_.pcm.meltTemp,
                 params_.pcm.conductance, derived_.latentCap,
                 consts_.dt);
}

void
ThermalSoA::liquidRun(std::size_t begin, std::size_t end)
{
    liquidSweep(end - begin, enthalpy_.data() + begin,
                air_.data() + begin, absorbed_.data() + begin,
                waxT_.data() + begin, meltFrac_.data() + begin,
                fixup_.data() + begin, params_.pcm.meltTemp,
                derived_.heatCapLiquid, derived_.latentCap,
                consts_.eLiquid, consts_.eLiquidMargin);
}

/**
 * Pass 2: air-node relaxation, container temperature, estimator
 * bucket quantization and CPU temperature in one pure-FP sweep
 * (vectorizes), then the estimator table gather over the quantized
 * index array. Statement shapes mirror ServerThermal::step +
 * WaxStateEstimator::update exactly.
 */
void
ThermalSoA::stepChunkFused(std::size_t begin, std::size_t end)
{
    const Seconds dt = consts_.dt;
    const double airGain = consts_.airGain;
    const double airRise = params_.airRisePerWatt;
    const double cpuRise = params_.cpuRisePerWatt;
    const Celsius melt = params_.pcm.meltTemp;
    const Joules cap = derived_.latentCap;

    fusedSweep(end - begin, air_.data() + begin,
               waxT_.data() + begin, absorbed_.data() + begin,
               baseInlet_.data() + begin, inletOffset_.data() + begin,
               power_.data() + begin, bucket_.data() + begin,
               cpu_.data() + begin, waxFlow_.data() + begin,
               dt, airGain, airRise, cpuRise, melt,
               sharedEstimator_.tableSize(),
               sharedEstimator_.bucketWidth(),
               sharedEstimator_.span());

    // Same expression chain as params_.pcm.latentCapacity(), which
    // the per-object estimator clamps against.
    estimatorSweep(end - begin, estimated_.data() + begin,
                   bucket_.data() + begin,
                   sharedEstimator_.table().data(), cap, dt);
}

} // namespace vmt
