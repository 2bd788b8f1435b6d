#include "sched/switchover.h"

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

SwitchoverScheduler::SwitchoverScheduler(Scheduler &before,
                                         Scheduler &after,
                                         Seconds switch_time)
    : before_(before), after_(after), switchTime_(switch_time)
{
    if (switch_time < 0.0)
        fatal("SwitchoverScheduler requires switch_time >= 0");
}

std::string
SwitchoverScheduler::name() const
{
    return before_.name() + "->" + after_.name();
}

void
SwitchoverScheduler::beginInterval(Cluster &cluster, Seconds now)
{
    if (!switched_ && now >= switchTime_)
        switched_ = true;
    active().beginInterval(cluster, now);
}

std::size_t
SwitchoverScheduler::placeJob(Cluster &cluster, const Job &job)
{
    return active().placeJob(cluster, job);
}

void
SwitchoverScheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                               std::vector<std::size_t> &out)
{
    active().placeJobs(cluster, jobs, out);
}

std::optional<std::size_t>
SwitchoverScheduler::hotGroupSize() const
{
    return active().hotGroupSize();
}

std::vector<MigrationRequest>
SwitchoverScheduler::proposeMigrations(Cluster &cluster, Seconds now)
{
    return active().proposeMigrations(cluster, now);
}

void
SwitchoverScheduler::saveState(Serializer &out) const
{
    out.putBool(switched_);
    before_.saveState(out);
    after_.saveState(out);
}

void
SwitchoverScheduler::loadState(Deserializer &in)
{
    switched_ = in.getBool();
    before_.loadState(in);
    after_.loadState(in);
}

} // namespace vmt
