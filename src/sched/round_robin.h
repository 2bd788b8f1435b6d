/**
 * @file
 * Round-robin placement, the baseline used by the TTS paper and the
 * first baseline of the evaluation (Section V).
 */

#ifndef VMT_SCHED_ROUND_ROBIN_H
#define VMT_SCHED_ROUND_ROBIN_H

#include "sched/scheduler.h"

namespace vmt {

/**
 * Places each job on the next server in rotation that has a free
 * core, regardless of workload type or temperature.
 */
class RoundRobinScheduler : public Scheduler
{
  public:
    std::string name() const override { return "RoundRobin"; }

    std::size_t placeJob(Cluster &cluster, const Job &job) override;

    /**
     * The per-job decisions in one pass: the cursor walks with a
     * compare wrap and each job is applied as it is placed. Once a
     * full sweep finds no free core, the rest of the batch gets
     * kNoServer and the cursor stays, as n more probes per job would
     * leave it.
     */
    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override;

    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    std::size_t cursor_ = 0;
};

} // namespace vmt

#endif // VMT_SCHED_ROUND_ROBIN_H
