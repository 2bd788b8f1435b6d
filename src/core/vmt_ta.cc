#include "core/vmt_ta.h"

namespace vmt {

HotMask
hotMaskFromClassifier(const ThermalClassifier &classifier)
{
    HotMask mask{};
    for (WorkloadType type : kAllWorkloads)
        mask[workloadIndex(type)] = classifier.isHot(type);
    return mask;
}

HotMask
hotMaskFromPaper()
{
    HotMask mask{};
    for (WorkloadType type : kAllWorkloads) {
        mask[workloadIndex(type)] =
            workloadInfo(type).paperClass == ThermalClass::Hot;
    }
    return mask;
}

VmtTaScheduler::VmtTaScheduler(const VmtConfig &config,
                               const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

void
VmtTaScheduler::beginInterval(Cluster &cluster, Seconds)
{
    const std::size_t n = cluster.numServers();
    // Eq. 1 sizes the group over servers that can actually take load;
    // under the fault layer the alive set (and the group) shrinks.
    hotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());

    // One contiguous key sweep + two bulk fills (DESIGN.md §14).
    view_.refreshProjected(cluster);
    hotGroup_.assignKeys(view_.projected(), 0, hotSize_);
    coldGroup_.assignKeys(view_.projected(), hotSize_, n);
    initialized_ = true;
}

std::size_t
VmtTaScheduler::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0); // Placement before first interval.

    const Watts watts = cluster.powerModel().corePower(job.type);
    const bool hot = hotMask_[workloadIndex(job.type)];

    BlockMinGroup<CoolerFirst> &primary = hot ? hotGroup_ : coldGroup_;
    BlockMinGroup<CoolerFirst> &fallback = hot ? coldGroup_ : hotGroup_;

    const std::size_t id = primary.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return fallback.place(cluster, watts);
}

void
VmtTaScheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                          std::vector<std::size_t> &out)
{
    if (!initialized_ && !jobs.empty())
        beginInterval(cluster, 0.0);
    const auto place_one = [&](const Job &job) {
        return VmtTaScheduler::placeJob(cluster, job);
    };
    // The primary group only fails once every member is dropped, so
    // it fails for the rest of the run too.
    const auto place_run = [&](WorkloadType type, std::size_t k) {
        const Watts watts = cluster.powerModel().corePower(type);
        const bool hot = hotMask_[workloadIndex(type)];
        const std::size_t placed =
            (hot ? hotGroup_ : coldGroup_)
                .placeRun(cluster, type, watts, k, out);
        (hot ? coldGroup_ : hotGroup_)
            .placeRun(cluster, type, watts, k - placed, out);
    };
    placeTypeRuns(cluster, jobs, out, place_one, place_run);
}

std::optional<std::size_t>
VmtTaScheduler::hotGroupSize() const
{
    return hotSize_;
}

} // namespace vmt
