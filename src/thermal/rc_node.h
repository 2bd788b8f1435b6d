/**
 * @file
 * Step gain of a first-order thermal RC node: exact exponential
 * relaxation toward a target temperature. The SoA kernel advances
 * every server's air node with it; the per-object RcNode it replaced
 * lives in tests/reference/rc_node.h.
 */

#ifndef VMT_THERMAL_RC_NODE_H
#define VMT_THERMAL_RC_NODE_H

#include <cmath>

#include "util/units.h"

namespace vmt {

/** Step gain 1 - exp(-dt/tau) of the exact first-order update. The
 *  single source of this expression: the batched ThermalSoA kernel
 *  precomputes it once per step and the reference RcNode caches it
 *  per dt, so both paths advance temperatures with the identical
 *  double. */
inline double
rcStepGain(Seconds tau, Seconds dt)
{
    return 1.0 - std::exp(-dt / tau);
}

} // namespace vmt

#endif // VMT_THERMAL_RC_NODE_H
