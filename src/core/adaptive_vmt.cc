#include "core/adaptive_vmt.h"

#include <algorithm>

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

AdaptiveVmtScheduler::AdaptiveVmtScheduler(
    const VmtConfig &config, const HotMask &hot_mask,
    const AdaptiveVmtParams &params)
    : inner_(config, hot_mask), params_(params),
      meltTemp_(config.physicalMeltTemp),
      upBudget_(params.maxDailyChange),
      downBudget_(params.maxDailyChange)
{
    if (params.gvMin <= 0.0 || params.gvMax <= params.gvMin)
        fatal("AdaptiveVmtParams requires 0 < gvMin < gvMax");
    if (params.stepUp <= 0.0 || params.stepDown <= 0.0)
        fatal("AdaptiveVmtParams steps must be positive");
    if (params.bandHigh <= params.bandLow)
        fatal("AdaptiveVmtParams requires bandLow < bandHigh");
    if (params.maxDailyChange <= 0.0)
        fatal("AdaptiveVmtParams::maxDailyChange must be positive");
}

void
AdaptiveVmtScheduler::beginInterval(Cluster &cluster, Seconds now)
{
    const double utilization = cluster.aliveUtilization();

    double gv = inner_.groupingValue();
    const bool busy = utilization >= params_.minUtilization;
    if (!busy && wasBusy_) {
        // End of the day's busy period: refill the daily budgets.
        // Off-peak the learned GV is *held* (it is a persistent
        // trim, not a transient).
        upBudget_ = params_.maxDailyChange;
        downBudget_ = params_.maxDailyChange;
    }
    wasBusy_ = busy;

    if (busy) {
        const std::size_t hot = hotGroupSize().value_or(0);
        if (hot > 0) {
            const Celsius group_temp = cluster.meanAirTemp(hot);
            const Celsius excess = group_temp - meltTemp_;
            // A large melt-driven extension means the Eq. 1 group
            // saturated well before the peak ended — the GV is too
            // small even if the extension keeps temperatures in
            // band.
            const std::size_t base = inner_.baseHotGroupSize();
            const bool over_extended =
                hot > base && (hot - base) * 10 > base;
            if ((excess > params_.bandHigh || over_extended) &&
                upBudget_ > 0.0) {
                // Too hot: spread over more servers.
                const double step =
                    std::min(params_.stepUp, upBudget_);
                gv += step;
                upBudget_ -= step;
            } else if (excess < params_.bandLow &&
                       utilization >=
                           params_.concentrateUtilization &&
                       inner_.meltedCount() < hot &&
                       downBudget_ > 0.0) {
                // Cold hot-group at peak load with unmelted wax
                // left: the concentration is genuinely too weak.
                const double step =
                    std::min(params_.stepDown, downBudget_);
                gv -= step;
                downBudget_ -= step;
            }
        }
    }
    inner_.setGroupingValue(
        std::clamp(gv, params_.gvMin, params_.gvMax));
    inner_.beginInterval(cluster, now);
}

std::size_t
AdaptiveVmtScheduler::placeJob(Cluster &cluster, const Job &job)
{
    return inner_.placeJob(cluster, job);
}

void
AdaptiveVmtScheduler::placeJobs(Cluster &cluster,
                                std::span<const Job> jobs,
                                std::vector<std::size_t> &out)
{
    inner_.placeJobs(cluster, jobs, out);
}

std::optional<std::size_t>
AdaptiveVmtScheduler::hotGroupSize() const
{
    return inner_.hotGroupSize();
}

std::vector<MigrationRequest>
AdaptiveVmtScheduler::proposeMigrations(Cluster &cluster, Seconds now)
{
    return inner_.proposeMigrations(cluster, now);
}

void
AdaptiveVmtScheduler::saveState(Serializer &out) const
{
    inner_.saveState(out);
    out.putBool(wasBusy_);
    out.putDouble(upBudget_);
    out.putDouble(downBudget_);
}

void
AdaptiveVmtScheduler::loadState(Deserializer &in)
{
    inner_.loadState(in);
    wasBusy_ = in.getBool();
    upBudget_ = in.getDouble();
    downBudget_ = in.getDouble();
}

} // namespace vmt
