/**
 * @file
 * VMT with Thermal Aware job placement (VMT-TA, Section III-A).
 *
 * The cluster is split into a hot group (ids [0, hotGroupSize)) and a
 * cold group (the rest); sizes follow Eq. 1/2. Hot-classified jobs go
 * to the hot group and cold jobs to the cold group, each distributed
 * evenly within its group (temperature-balanced, see
 * sched/block_min_group.h); if a group is full the job overflows to
 * the other group, so placement only fails when the whole cluster is
 * out of cores.
 */

#ifndef VMT_CORE_VMT_TA_H
#define VMT_CORE_VMT_TA_H

#include <array>

#include "core/classification.h"
#include "core/vmt_config.h"
#include "sched/block_min_group.h"
#include "sched/placement_view.h"
#include "sched/scheduler.h"

namespace vmt {

/** Per-workload hot/cold mask used by the VMT schedulers. */
using HotMask = std::array<bool, kNumWorkloads>;

/** Build a mask from the model-driven classifier. */
HotMask hotMaskFromClassifier(const ThermalClassifier &classifier);

/** Build a mask from the paper's Table I labels. */
HotMask hotMaskFromPaper();

/** Static-group thermal-aware VMT scheduler. */
class VmtTaScheduler : public Scheduler
{
  public:
    /**
     * @param config VMT knobs (GV, PMT).
     * @param hot_mask Which workloads are hot jobs.
     */
    VmtTaScheduler(const VmtConfig &config, const HotMask &hot_mask);

    std::string name() const override { return "VMT-TA"; }

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    /** Each same-type run: the primary group's batch run, then the
     *  fallback's; whatever is left is unplaced. */
    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

    std::optional<std::size_t> hotGroupSize() const override;

  private:
    VmtConfig config_;
    HotMask hotMask_;
    PlacementView view_;
    bool initialized_ = false;
    std::size_t hotSize_ = 0;
    BlockMinGroup<CoolerFirst> hotGroup_;
    BlockMinGroup<CoolerFirst> coldGroup_;
};

} // namespace vmt

#endif // VMT_CORE_VMT_TA_H
