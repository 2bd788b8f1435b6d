/**
 * @file
 * First-order thermal RC node: exact exponential relaxation toward a
 * (possibly time-varying) target temperature. The air node of the
 * per-object ServerThermal; the SoA kernel advances every server's air
 * node with the same rcStepGain.
 */

#ifndef VMT_TESTS_REFERENCE_RC_NODE_H
#define VMT_TESTS_REFERENCE_RC_NODE_H

#include "thermal/rc_node.h"
#include "util/units.h"

namespace vmt {

/** One thermal capacitance relaxing toward a driven temperature. */
class RcNode
{
  public:
    /**
     * @param time_constant RC product in seconds (> 0).
     * @param initial Starting temperature.
     */
    RcNode(Seconds time_constant, Celsius initial);

    /**
     * Advance by dt toward the target (exact solution of the linear
     * ODE for a constant target over the step).
     *
     * The step gain 1 - exp(-dt/tau) is cached keyed on dt: the
     * driver uses one fixed interval for a whole run, so the
     * transcendental is paid once, not once per server per interval.
     * The cached value is the same double the direct computation
     * yields, so results are bitwise identical to the uncached path.
     *
     * @return The temperature after the step.
     */
    Celsius step(Celsius target, Seconds dt);

    /** Current node temperature. */
    Celsius temperature() const { return temp_; }

    /** Time constant in use. */
    Seconds timeConstant() const { return tau_; }

    /** Jump the state (e.g. re-initialization after a maintenance
     *  event). */
    void reset(Celsius temperature) { temp_ = temperature; }

  private:
    Seconds tau_;
    Celsius temp_;
    /** dt the cached gain was computed for (-1 = none yet). */
    Seconds gainForDt_ = -1.0;
    /** Cached 1 - exp(-dt/tau) for gainForDt_. */
    double gain_ = 0.0;
};

} // namespace vmt

#endif // VMT_TESTS_REFERENCE_RC_NODE_H
