/**
 * @file
 * VMT melt-preservation placement (Section III): "VMT can also raise
 * the melting temperature by locating hot jobs in a subset of servers
 * with already melted wax, preserving wax in anticipation of a very
 * hot peak still to come."
 *
 * Where VMT-TA/WA spread hot jobs to melt as much wax as possible,
 * the preservation policy *packs* them: hot jobs go first to servers
 * whose wax is already melted, then to the projected-hottest
 * not-yet-melted hot-group server (sacrificing as few wax loads as
 * possible), keeping the rest of the fleet's wax solid for a later,
 * hotter peak. Cold jobs are balanced in the cold group as usual.
 *
 * Typically used with SwitchoverScheduler: preserve through a morning
 * shoulder, then hand over to VMT-WA for the extreme evening peak
 * (examples/peak_preservation.cpp).
 */

#ifndef VMT_CORE_VMT_PRESERVE_H
#define VMT_CORE_VMT_PRESERVE_H

#include "core/vmt_ta.h"
#include "sched/block_min_group.h"

namespace vmt {

/** Hot-job-packing VMT scheduler that preserves unmelted wax. */
class VmtPreserveScheduler : public Scheduler
{
  public:
    VmtPreserveScheduler(const VmtConfig &config,
                         const HotMask &hot_mask);

    std::string name() const override { return "VMT-Preserve"; }

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    std::optional<std::size_t> hotGroupSize() const override;

  private:
    std::size_t placeHot(Cluster &cluster, Watts watts);

    VmtConfig config_;
    HotMask hotMask_;
    PlacementView view_;
    bool initialized_ = false;
    std::size_t hotSize_ = 0;

    /** Hot-group servers already melted (preferred hot targets) and
     *  still-solid packing candidates, hottest first. */
    BlockMinGroup<HotterFirst> melted_;
    BlockMinGroup<HotterFirst> packing_;
    /** Cold group, balanced as usual. */
    BlockMinGroup<CoolerFirst> coldGroup_;
};

} // namespace vmt

#endif // VMT_CORE_VMT_PRESERVE_H
