#include "sched/scheduler.h"

#include "util/logging.h"

namespace vmt {

void
Scheduler::beginInterval(Cluster &, Seconds)
{}

void
Scheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                     std::vector<std::size_t> &out)
{
    out.clear();
    out.reserve(jobs.size());
    for (const Job &job : jobs) {
        const std::size_t id = placeJob(cluster, job);
        if (id != kNoServer)
            cluster.addJob(id, job.type);
        out.push_back(id);
    }
}

std::optional<std::size_t>
Scheduler::hotGroupSize() const
{
    return std::nullopt;
}

std::vector<MigrationRequest>
Scheduler::proposeMigrations(Cluster &, Seconds)
{
    return {};
}

void
Scheduler::saveState(Serializer &) const
{}

void
Scheduler::loadState(Deserializer &)
{}

void
checkPlacements(const Scheduler &policy, std::size_t jobs,
                const std::vector<std::size_t> &out, std::size_t servers)
{
    if (out.size() != jobs)
        panic("placeJobs of policy " + policy.name() + " returned " +
              std::to_string(out.size()) + " placements for " +
              std::to_string(jobs) + " jobs");
    for (const std::size_t id : out) {
        if (id >= servers && id != kNoServer)
            panic("placeJobs of policy " + policy.name() +
                  " chose server " + std::to_string(id) + " in a " +
                  std::to_string(servers) + "-server pod");
    }
}

} // namespace vmt
