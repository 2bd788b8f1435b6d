#include "sched/coolest_first.h"

namespace vmt {

void
CoolestFirstScheduler::beginInterval(Cluster &cluster, Seconds)
{
    // One air-array gather, one dense fill + fold pass.
    view_.refreshAir(cluster);
    group_.assignKeys(view_.air(), 0, cluster.numServers());
}

std::size_t
CoolestFirstScheduler::placeJob(Cluster &cluster, const Job &job)
{
    // Select the coolest server with a free core (full members are
    // dropped for the rest of the interval), then bump the winner's
    // virtual temperature in place by the rise of the core we are
    // adding so same-interval placements spread over the coolest set.
    return group_.place(cluster,
                        cluster.powerModel().corePower(job.type));
}

} // namespace vmt
