/**
 * @file
 * Coolest-first placement, the paper's second baseline: "a more
 * advanced coolest-first scheduler that presumes the coolest servers
 * have the greatest thermal headroom available and schedules on them
 * first" (Section V).
 */

#ifndef VMT_SCHED_COOLEST_FIRST_H
#define VMT_SCHED_COOLEST_FIRST_H

#include "sched/block_min_group.h"
#include "sched/placement_view.h"
#include "sched/scheduler.h"

namespace vmt {

/**
 * Thermal-aware load *balancing* baseline.
 *
 * Server temperatures only update once per interval, so placing many
 * jobs on "the coolest server" within one interval would dogpile a
 * single machine. Each placement therefore bumps the chosen server's
 * *virtual* temperature by the expected steady-state rise of the
 * added core, spreading same-interval placements across the coolest
 * set — which is what produces the paper's tight temperature band
 * (Fig. 10) versus round robin (Fig. 9).
 *
 * Each interval bulk-fills a BlockMinGroup (dense copy + fold pass,
 * block-scan selection, in-place key bump) from a PlacementView's
 * contiguous air-temperature array (DESIGN.md §14).
 */
class CoolestFirstScheduler : public Scheduler
{
  public:
    std::string name() const override { return "CoolestFirst"; }

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    /** One batch run of the group per same-type run of jobs. */
    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

  private:
    PlacementView view_;
    /** Every server, keyed by virtual air temperature. */
    BlockMinGroup<CoolerFirst> group_;
};

} // namespace vmt

#endif // VMT_SCHED_COOLEST_FIRST_H
