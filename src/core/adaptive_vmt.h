/**
 * @file
 * Closed-loop adaptive VMT: a thermostat on the hot group.
 *
 * The GV is a feed-forward knob — the paper's operators pick it from
 * a forecast (Section V-C) and pay dearly when the forecast misses
 * low (Fig. 18). This controller removes the forecast: during rising
 * or high load it nudges the grouping value so the hot group's mean
 * air temperature rides just above the wax melting point — the
 * plateau where absorption is maximal and premature saturation is
 * avoided. Too hot -> grow the group (raise GV); below the melting
 * point with unmelted wax left -> shrink it (lower GV). Off-peak the
 * GV relaxes back to its initial setting so the wax can refreeze
 * under the normal grouping.
 *
 * Wraps VmtWaScheduler, so wax-threshold extension and keep-warm
 * still handle saturation.
 */

#ifndef VMT_CORE_ADAPTIVE_VMT_H
#define VMT_CORE_ADAPTIVE_VMT_H

#include "core/vmt_wa.h"

namespace vmt {

/** Controller gains and bounds. */
struct AdaptiveVmtParams
{
    /** GV search bounds. */
    double gvMin = 14.0;
    double gvMax = 32.0;
    /** GV increase per interval when the group runs too hot. */
    double stepUp = 0.15;
    /** GV decrease per interval when concentration is insufficient
     *  (slower: shrinking the group refreezes nothing, but a
     *  too-small group exhausts its wax — the expensive mistake,
     *  Fig. 18). */
    double stepDown = 0.06;
    /** Target band above the melting temperature: inside
     *  [PMT + bandLow, PMT + bandHigh] the controller holds. */
    Kelvin bandLow = 0.2;
    Kelvin bandHigh = 1.2;
    /** Controller active only above this cluster utilization (the
     *  same reasoning as VMT-WA's keep-warm gate). */
    double minUtilization = 0.5;
    /** Down-regulation (more concentration) additionally requires
     *  utilization at least this high: being below the melting point
     *  during the *ramp* is normal — only a cold hot-group at peak
     *  load means the GV is genuinely too large. */
    double concentrateUtilization = 0.80;
    /** Anti-windup: largest GV movement allowed per direction per
     *  day. Saturation signals persist for hours once the wax is
     *  exhausted, so unbounded integration would overshoot; with a
     *  daily budget the controller converges over a few days — the
     *  automated version of the paper's "operators can change the GV
     *  to the optimal value each day". */
    double maxDailyChange = 2.0;
};

/** VMT-WA with thermostat control of the grouping value. */
class AdaptiveVmtScheduler : public Scheduler
{
  public:
    /**
     * @param config Initial VMT knobs (the starting GV).
     * @param hot_mask Workload classification.
     * @param params Controller gains.
     */
    AdaptiveVmtScheduler(const VmtConfig &config,
                         const HotMask &hot_mask,
                         const AdaptiveVmtParams &params = {});

    std::string name() const override { return "VMT-Adaptive"; }

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

    std::optional<std::size_t> hotGroupSize() const override;

    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override;

    /** GV currently in force. */
    double currentGv() const { return inner_.groupingValue(); }

    /** Saves the wrapped VMT-WA state plus the controller's busy
     *  latch and remaining daily budgets. */
    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    VmtWaScheduler inner_;
    AdaptiveVmtParams params_;
    Celsius meltTemp_;
    bool wasBusy_ = false;
    double upBudget_ = 0.0;
    double downBudget_ = 0.0;
};

} // namespace vmt

#endif // VMT_CORE_ADAPTIVE_VMT_H
