/**
 * @file
 * Linear per-core server power model (Section IV-A: "per core power
 * consumption is approximated using a linear model", after Kontorinis
 * et al. [14]).
 *
 * Server power = idle + sum over busy cores of the workload's Table I
 * per-core power, times a calibration scale. The scale accounts for
 * the Kontorinis-style trace normalization that maps the Table I
 * benchmark powers onto the deployed fleet's dynamic range (the
 * paper's cluster peaks near 330 kW per 1,000 servers, Fig. 13).
 */

#ifndef VMT_SERVER_POWER_MODEL_H
#define VMT_SERVER_POWER_MODEL_H

#include <array>
#include <cstddef>

#include "server/server_spec.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

/** Per-workload core occupancy of one server. */
using CoreCounts = std::array<std::size_t, kNumWorkloads>;

/** Linear power model over per-workload core counts. */
class PowerModel
{
  public:
    /**
     * @param spec Server configuration (idle power, core count).
     * @param dynamic_scale Calibration multiplier applied to the
     *        Table I per-core powers (> 0).
     */
    explicit PowerModel(const ServerSpec &spec, double dynamic_scale = 1.77);

    /** Power of a server running the given core mix. */
    Watts serverPower(const CoreCounts &counts) const;

    /** Scaled per-core dynamic power for a workload. */
    Watts corePower(WorkloadType type) const;

    /** Power of a server with every core running one workload at the
     *  given utilization (used for classification and Fig. 1). */
    Watts singleWorkloadPower(WorkloadType type, double utilization) const;

    /** The server spec in use. */
    const ServerSpec &spec() const { return spec_; }

  private:
    ServerSpec spec_;
    std::array<Watts, kNumWorkloads> corePower_;
};

} // namespace vmt

#endif // VMT_SERVER_POWER_MODEL_H
