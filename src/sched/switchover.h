/**
 * @file
 * Time-based policy switchover: run one scheduler before a switch
 * time and another after it. Used to compose the melt-preservation
 * policy with VMT-WA ("preserving wax in anticipation of a very hot
 * peak still to come", Section III).
 */

#ifndef VMT_SCHED_SWITCHOVER_H
#define VMT_SCHED_SWITCHOVER_H

#include "sched/scheduler.h"

namespace vmt {

/** Delegates to `before` until switch_time, then to `after`. */
class SwitchoverScheduler : public Scheduler
{
  public:
    /**
     * @param before Policy used while now < switch_time (borrowed;
     *        must outlive this object).
     * @param after Policy used once now >= switch_time (borrowed).
     * @param switch_time Simulation time of the handover (seconds).
     */
    SwitchoverScheduler(Scheduler &before, Scheduler &after,
                        Seconds switch_time);

    std::string name() const override;

    void beginInterval(Cluster &cluster, Seconds now) override;

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

    std::optional<std::size_t> hotGroupSize() const override;

    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override;

    /** True once the handover happened. */
    bool switched() const { return switched_; }

    /** Saves the switch flag and both delegates' state. */
    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    Scheduler &active() { return switched_ ? after_ : before_; }
    const Scheduler &active() const
    {
        return switched_ ? after_ : before_;
    }

    Scheduler &before_;
    Scheduler &after_;
    Seconds switchTime_;
    bool switched_ = false;
};

} // namespace vmt

#endif // VMT_SCHED_SWITCHOVER_H
