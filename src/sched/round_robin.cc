#include "sched/round_robin.h"

#include <algorithm>
#include <utility>

#include "state/serializer.h"

namespace vmt {

std::size_t
RoundRobinScheduler::placeJob(Cluster &cluster, const Job &)
{
    const std::size_t n = cluster.numServers();
    for (std::size_t probes = 0; probes < n; ++probes) {
        const std::size_t id = cursor_;
        cursor_ = (cursor_ + 1) % n;
        if (std::as_const(cluster).server(id).hasCapacity())
            return id;
    }
    return kNoServer;
}

void
RoundRobinScheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                               std::vector<std::size_t> &out)
{
    const Cluster &view = cluster;
    const std::size_t n = cluster.numServers();
    out.resize(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        std::size_t id = cursor_;
        std::size_t probes = 1;
        while (!view.server(id).hasCapacity()) {
            if (probes++ == n) {
                std::fill(out.begin() + k, out.end(), kNoServer);
                return;
            }
            id = id + 1 == n ? 0 : id + 1;
        }
        cursor_ = id + 1 == n ? 0 : id + 1;
        cluster.addJob(id, jobs[k].type);
        out[k] = id;
    }
}

void
RoundRobinScheduler::saveState(Serializer &out) const
{
    out.putSize(cursor_);
}

void
RoundRobinScheduler::loadState(Deserializer &in)
{
    cursor_ = in.getSize();
}

} // namespace vmt
