/**
 * @file
 * VMT with Wax Aware job placement (VMT-WA, Section III-B).
 *
 * Schedules like VMT-TA until wax melts. Once per update period the
 * scheduler scans every server's *estimated* melt state (the on-board
 * model of [24] — not simulator ground truth), counts servers above
 * the wax threshold, and sizes the hot group as the Eq. 1 minimum
 * plus one server per fully melted server ("restarts from the minimum
 * hot group size and adds servers in order").
 *
 * Placement cascade (after the paper):
 *  hot job:  (0) a fully melted server that has fallen below its
 *            keep-warm load ("maintains just enough load on the
 *            melted servers to keep the wax melted" — refreezing a
 *            melted server during the peak releases its stored heat);
 *            (1) hot-group server below the wax threshold or below
 *            the melting temperature, power-balanced; (2) otherwise
 *            grow the hot group from the cold group sequentially
 *            until such a server exists; (3) otherwise any server
 *            below the melted threshold; (4) otherwise any remaining
 *            server.
 *  cold job: (1) cold group, power-balanced; (2) hot-group server
 *            already above the melted threshold and melting
 *            temperature (minimum thermal impact); (3) any remaining
 *            hot-group server.
 */

#ifndef VMT_CORE_VMT_WA_H
#define VMT_CORE_VMT_WA_H

#include <vector>

#include "core/vmt_ta.h"
#include "sched/block_min_group.h"

namespace vmt {

/** Dynamic-group wax-aware VMT scheduler. */
class VmtWaScheduler : public Scheduler
{
  public:
    VmtWaScheduler(const VmtConfig &config, const HotMask &hot_mask);

    std::string name() const override { return "VMT-WA"; }

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    /**
     * Each same-type run goes through the cascade stage by stage:
     * batch runs of the groups, and the per-job cascade where a
     * group runs out (DESIGN.md §14, "Batch runs").
     */
    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

    std::optional<std::size_t> hotGroupSize() const override;

    /**
     * Shed melted servers' excess hot load onto unmelted hot-group
     * members ("moves the additional load to the newly added server
     * to continue melting wax"). Without a migration budget the same
     * rebalance happens passively through job churn; with one it
     * happens within an interval.
     */
    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override;

    /** Servers counted as fully melted in the last scan. */
    std::size_t meltedCount() const { return meltedCount_; }

    /** Current grouping value. */
    double groupingValue() const { return config_.groupingValue; }

    /** Eq. 1 minimum hot-group size from the last interval (before
     *  melt-driven extension). */
    std::size_t baseHotGroupSize() const { return baseHotSize_; }

    /** Change the grouping value (takes effect at the next interval;
     *  used by the adaptive controller and day-to-day re-tuning). */
    void setGroupingValue(double gv);

    /**
     * Checkpoint the scalar state that crosses intervals: the learned
     * grouping value, the group-size/melt scan results (read by the
     * adaptive controller *before* the next beginInterval refreshes
     * them) and the placement cursors. The placement groups are
     * deliberately not saved — beginInterval rebuilds them from the
     * cluster, and every input to that rebuild is itself restored.
     */
    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    /** The cascade for one job; leaves anyExhausted_ as it is. */
    std::size_t placeOne(Cluster &cluster, WorkloadType type);
    std::size_t placeHot(Cluster &cluster, Watts watts);
    std::size_t placeCold(Cluster &cluster, Watts watts);
    void placeHotRun(Cluster &cluster, WorkloadType type, std::size_t k,
                     std::vector<std::size_t> &out);
    void placeColdRun(Cluster &cluster, WorkloadType type,
                      std::size_t k, std::vector<std::size_t> &out);

    /** True when the server still has unmelted wax or is cool enough
     *  to keep melting profitably. */
    bool placeable(const Server &srv) const;

    VmtConfig config_;
    HotMask hotMask_;
    PlacementView view_;
    bool initialized_ = false;
    std::size_t baseHotSize_ = 0;
    std::size_t hotSize_ = 0;
    std::size_t meltedCount_ = 0;
    /** Largest hot-group size the current hot load supports. */
    std::size_t domainCap_ = 0;

    /** Server power that holds air at the melting point (computed
     *  each interval from the thermal constants). */
    Watts keepWarmPower_ = 0.0;

    /** Melted servers currently below the keep-warm power,
     *  least-loaded first. */
    BlockMinGroup<CoolerFirst> keepWarm_;
    /** Hot-group servers eligible for new hot jobs. */
    BlockMinGroup<CoolerFirst> hotPlaceable_;
    /** Cold group. */
    BlockMinGroup<CoolerFirst> coldGroup_;
    /** Hot-group servers above threshold and melting temperature
     *  (cold-job overflow targets). */
    std::vector<std::size_t> hotMelted_;
    std::size_t meltedCursor_ = 0;
    std::size_t anyCursor_ = 0;
    /** Hot step (3) has failed a full scan in the current placeJob or
     *  placeJobs call; cleared on entry to both, since cores freed
     *  between calls (evacuation, migration) can make it succeed. */
    bool anyExhausted_ = false;
};

} // namespace vmt

#endif // VMT_CORE_VMT_WA_H
