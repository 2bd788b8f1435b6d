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

void
CoolestFirstScheduler::placeJobs(Cluster &cluster,
                                 std::span<const Job> jobs,
                                 std::vector<std::size_t> &out)
{
    const auto place_one = [&](const Job &job) {
        return CoolestFirstScheduler::placeJob(cluster, job);
    };
    const auto place_run = [&](WorkloadType type, std::size_t k) {
        group_.placeRun(cluster, type,
                        cluster.powerModel().corePower(type), k, out);
    };
    placeTypeRuns(cluster, jobs, out, place_one, place_run);
}

} // namespace vmt
