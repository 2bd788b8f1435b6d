/**
 * @file
 * Contiguous per-interval snapshot of the placement-relevant server
 * state (DESIGN.md §14).
 *
 * Walking one Server object at a time costs a power-cache probe plus
 * scattered accessor reads per server. PlacementView gathers the three
 * quantities placement actually reads — projected steady-state air
 * temperature, current air temperature, estimated melt fraction —
 * into dense arrays with one sweep over the cluster's ThermalSoA
 * columns (reusing the cluster's power dirty bitmap, so only servers
 * whose draw changed since the last gather are recomputed).
 *
 * Bitwise contract: every array element equals what the per-server
 * accessor chain produces, expression shape included —
 *   projected[i] = (baseInlet + inletOffset) + rise * power
 *                = Server::inletTemp() + rise * power(model)
 *   air[i]       = Server::airTemp()
 *   estMelt[i]   = Server::estimatedMeltFraction()
 * so groups filled from the view hold the same keys as groups filled
 * through BlockMinGroup::add. tests/sched/test_placement_view.cc pins
 * this under job churn, health flips and inlet shifts.
 *
 * Validity: the arrays snapshot thermal state, which only changes at
 * Cluster::stepThermal — never during placement. One refresh() per
 * scheduling interval therefore stays exact for every placement
 * decision in that interval (placements change *power*, which the
 * groups track by bumping their own keys).
 */

#ifndef VMT_SCHED_PLACEMENT_VIEW_H
#define VMT_SCHED_PLACEMENT_VIEW_H

#include <cstddef>
#include <vector>

#include "server/cluster.h"
#include "util/units.h"

namespace vmt {

/** Dense placement keys for one scheduling interval. */
class PlacementView
{
  public:
    /**
     * Re-gather all arrays from the cluster (one sweep). Non-const
     * cluster because the projected keys first refresh the gathered
     * power array from its dirty bitmap.
     */
    void refresh(Cluster &cluster) { refreshImpl(cluster, 7); }

    /** Gather only the air-temperature array (CoolestFirst needs no
     *  power gather and no melt estimate). */
    void refreshAir(Cluster &cluster) { refreshImpl(cluster, 2); }

    /** Gather only the projected-temperature keys (VMT-TA). */
    void refreshProjected(Cluster &cluster) { refreshImpl(cluster, 1); }

    /** Gather projected keys + melt estimates (VMT-Preserve). */
    void refreshProjectedMelt(Cluster &cluster)
    {
        refreshImpl(cluster, 5);
    }

    std::size_t size() const { return projected_.size(); }

    /** Projected steady-state air temperature per server (the
     *  placement-group key): inlet + rise-per-watt x current power. */
    const Celsius *projected() const { return projected_.data(); }
    Celsius projected(std::size_t id) const { return projected_[id]; }

    /** Current air-at-wax temperature per server. */
    const Celsius *air() const { return air_.data(); }
    Celsius air(std::size_t id) const { return air_[id]; }

    /** Estimated melt fraction per server (the scheduler-visible
     *  wax model, not simulator ground truth). */
    const double *estMelt() const { return estMelt_.data(); }
    double estMelt(std::size_t id) const { return estMelt_[id]; }

  private:
    /** `parts` is a bitmask: 1 = projected, 2 = air, 4 = estMelt.
     *  Policies request only the arrays they read, so e.g. VMT-TA
     *  skips the melt-estimate divisions entirely. */
    void refreshImpl(Cluster &cluster, unsigned parts);

    std::vector<Celsius> projected_;
    std::vector<Celsius> air_;
    std::vector<double> estMelt_;
};

} // namespace vmt

#endif // VMT_SCHED_PLACEMENT_VIEW_H
