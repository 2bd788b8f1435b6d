#include "core/vmt_preserve.h"

namespace vmt {

VmtPreserveScheduler::VmtPreserveScheduler(const VmtConfig &config,
                                           const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

void
VmtPreserveScheduler::beginInterval(Cluster &cluster, Seconds)
{
    const std::size_t n = cluster.numServers();
    // Eq. 1 over the *alive* fleet (identical while nothing failed).
    hotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());

    // Dense melt/key sweep. The melted/packing split is two
    // complementary masked fills (branchless selects) instead of a
    // mispredicting partition.
    view_.refreshProjectedMelt(cluster);
    const double *est = view_.estMelt();
    const Celsius *key = view_.projected();
    melted_.assignKeysIf(key, 0, hotSize_, [&](std::size_t id) {
        return est[id] >= config_.waxThreshold;
    });
    packing_.assignKeysIf(key, 0, hotSize_, [&](std::size_t id) {
        return est[id] < config_.waxThreshold;
    });
    coldGroup_.assignKeys(key, hotSize_, n);
    initialized_ = true;
}

std::size_t
VmtPreserveScheduler::placeHot(Cluster &cluster, Watts watts)
{
    // (1) Servers whose wax is already melted: adding heat there
    // costs no stored capacity.
    std::size_t id = melted_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    // (2) Pack the projected-hottest unmelted hot-group server so as
    // few wax loads as possible are sacrificed.
    id = packing_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    // (3) Overflow into the cold group.
    return coldGroup_.place(cluster, watts);
}

std::size_t
VmtPreserveScheduler::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0);
    const Watts watts = cluster.powerModel().corePower(job.type);
    if (hotMask_[workloadIndex(job.type)])
        return placeHot(cluster, watts);

    // Cold jobs: cold group first, then wherever space remains.
    const std::size_t id = coldGroup_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return placeHot(cluster, watts);
}

std::optional<std::size_t>
VmtPreserveScheduler::hotGroupSize() const
{
    return hotSize_;
}

} // namespace vmt
