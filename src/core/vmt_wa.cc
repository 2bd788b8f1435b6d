#include "core/vmt_wa.h"

#include <algorithm>
#include <utility>

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

VmtWaScheduler::VmtWaScheduler(const VmtConfig &config,
                               const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

bool
VmtWaScheduler::placeable(const Server &srv) const
{
    return srv.estimatedMeltFraction() < config_.waxThreshold ||
           srv.airTemp() < config_.physicalMeltTemp;
}

void
VmtWaScheduler::beginInterval(Cluster &cluster, Seconds)
{
    const std::size_t n = cluster.numServers();
    // Eq. 1 over the *alive* fleet (identical while nothing failed).
    baseHotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());

    // Scan the fleet's estimated wax state (the per-server model
    // reports once per minute, Section IV-A) from the contiguous view
    // (DESIGN.md §14). Branchless count: the comparison result is
    // summed directly so the scan never mispredicts on the melt
    // pattern.
    view_.refresh(cluster);
    const double *est = view_.estMelt();
    std::size_t count = 0;
    for (std::size_t id = 0; id < n; ++id)
        count +=
            static_cast<std::size_t>(est[id] >= config_.waxThreshold);
    meltedCount_ = count;

    // The server power that holds the air at the melting point; a
    // melted server below it sheds stored heat back into the room.
    const ServerThermalParams &thermal = cluster.thermalParams();
    keepWarmPower_ =
        (config_.physicalMeltTemp + 0.3 - thermal.inletTemp) /
        thermal.airRisePerWatt;

    // Restart from the Eq. 1 minimum and add at most one server per
    // fully melted server, in id order — bounded by "current load
    // trends": after the melted servers' keep-warm load is set aside,
    // the remaining hot load must still hold every *placeable* group
    // member above the melting point (times extensionLoadFactor for
    // margin). Growing past that dilutes the hot jobs below the
    // melting point everywhere and stalls all thermal storage.
    Watts hot_dynamic = 0.0;
    for (WorkloadType type : kAllWorkloads) {
        if (hotMask_[workloadIndex(type)]) {
            hot_dynamic +=
                static_cast<double>(
                    cluster.activeCounts()[workloadIndex(type)]) *
                cluster.powerModel().corePower(type);
        }
    }
    const Watts warm_cost = std::max(
        1.0, keepWarmPower_ - cluster.powerModel().spec().idlePower);
    const Watts remaining = std::max(
        0.0, hot_dynamic -
                 static_cast<double>(meltedCount_) * warm_cost);
    const auto placeable_cap = static_cast<std::size_t>(
        remaining / (warm_cost * config_.extensionLoadFactor));
    std::size_t extension = 0;
    if (placeable_cap + meltedCount_ > baseHotSize_)
        extension = placeable_cap + meltedCount_ - baseHotSize_;
    extension = std::min(extension, meltedCount_);
    hotSize_ = std::min(n, baseHotSize_ + extension);
    // Capacity-driven mid-interval growth respects the same bound;
    // overflow falls through to cascade steps (3)/(4), which spread
    // it instead of committing more servers to the hot group.
    domainCap_ = hotSize_;

    // Keep-warm only matters while load is high: off-peak the wax is
    // supposed to refreeze and release its heat (that is TTS).
    const double utilization = cluster.aliveUtilization();
    const bool keep_warm_active =
        utilization >= config_.keepWarmUtilization;

    // Masked bulk fills over the dense view arrays + one bulk cold
    // fill: the data-dependent membership tests become branchless
    // selects instead of mispredicting appends.
    const Celsius *air = view_.air();
    const Celsius *key = view_.projected();
    if (keep_warm_active) {
        keepWarm_.assignKeysIf(key, 0, hotSize_, [&](std::size_t id) {
            return est[id] >= config_.waxThreshold;
        });
    } else {
        keepWarm_.clear();
    }
    hotPlaceable_.assignKeysIf(key, 0, hotSize_, [&](std::size_t id) {
        return est[id] < config_.waxThreshold ||
               air[id] < config_.physicalMeltTemp;
    });
    hotMelted_.clear();
    for (std::size_t id = 0; id < hotSize_; ++id) {
        if (est[id] >= config_.waxThreshold &&
            air[id] >= config_.physicalMeltTemp)
            hotMelted_.push_back(id);
    }
    coldGroup_.assignKeys(key, hotSize_, n);

    meltedCursor_ = 0;
    initialized_ = true;
}

std::size_t
VmtWaScheduler::placeHot(Cluster &cluster, Watts watts)
{
    const std::size_t n = cluster.numServers();

    // (0) Melted servers that need load to stay above the melting
    // point; refreezing them mid-peak would release stored heat.
    std::size_t id = keepWarm_.placeIfBelow(cluster, watts,
                                            keepWarmPower_);
    if (id != kNoServer)
        return id;

    // (1) Hot-group server below the wax threshold or melting temp.
    id = hotPlaceable_.place(cluster, watts);
    if (id != kNoServer)
        return id;

    // (2) Extend the hot group from the cold group sequentially until
    // a placeable server with capacity appears; still bounded by what
    // the current hot load can keep warm.
    while (hotSize_ < domainCap_) {
        const std::size_t added = hotSize_++;
        const Server &srv = std::as_const(cluster).server(added);
        if (placeable(srv)) {
            hotPlaceable_.add(cluster, added);
            id = hotPlaceable_.place(cluster, watts);
            if (id != kNoServer)
                return id;
        } else {
            hotMelted_.push_back(added);
        }
    }

    // (3) Any server below the melted threshold with capacity. Once a
    // full scan fails, every later one in the same call fails too and
    // also ends where it began: the call only takes cores and melt
    // estimates are frozen (DESIGN.md §14, "Exhausted scans").
    if (!anyExhausted_) {
        for (std::size_t probes = 0; probes < n; ++probes) {
            const std::size_t cand = anyCursor_;
            anyCursor_ = (anyCursor_ + 1) % n;
            const Server &srv = std::as_const(cluster).server(cand);
            if (srv.hasCapacity() &&
                srv.estimatedMeltFraction() < config_.waxThreshold)
                return cand;
        }
        anyExhausted_ = true;
    }

    // (4) Any remaining server.
    for (std::size_t probes = 0; probes < n; ++probes) {
        const std::size_t cand = anyCursor_;
        anyCursor_ = (anyCursor_ + 1) % n;
        if (std::as_const(cluster).server(cand).hasCapacity())
            return cand;
    }
    return kNoServer;
}

std::size_t
VmtWaScheduler::placeCold(Cluster &cluster, Watts watts)
{
    // (1) Cold group first.
    std::size_t id = coldGroup_.place(cluster, watts);
    if (id != kNoServer)
        return id;

    // (2) Hot-group server already melted and above melting temp
    // (minimum thermal impact).
    const std::size_t melted = hotMelted_.size();
    for (std::size_t probes = 0; probes < melted; ++probes) {
        if (meltedCursor_ >= melted)
            meltedCursor_ = 0;
        const std::size_t cand = hotMelted_[meltedCursor_];
        meltedCursor_ = (meltedCursor_ + 1) % melted;
        if (std::as_const(cluster).server(cand).hasCapacity())
            return cand;
    }

    // (3) Any remaining hot-group server.
    id = keepWarm_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return hotPlaceable_.place(cluster, watts);
}

std::size_t
VmtWaScheduler::placeOne(Cluster &cluster, WorkloadType type)
{
    const Watts watts = cluster.powerModel().corePower(type);
    return hotMask_[workloadIndex(type)] ? placeHot(cluster, watts)
                                         : placeCold(cluster, watts);
}

std::size_t
VmtWaScheduler::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0);
    // The caller may have freed cores since the last call.
    anyExhausted_ = false;
    return placeOne(cluster, job.type);
}

void
VmtWaScheduler::placeHotRun(Cluster &cluster, WorkloadType type,
                            std::size_t k, std::vector<std::size_t> &out)
{
    const Watts watts = cluster.powerModel().corePower(type);
    // (0) for the whole run first: once placeIfBelow fails, every live
    // keep-warm key is at or above the limit, keys only rise and
    // dropped members stay dropped, so it fails for every later hot
    // job this interval.
    std::size_t placed =
        keepWarm_.placeRun(cluster, type, watts, k, out, keepWarmPower_);
    while (placed < k) {
        // (1), then one job through the per-job cascade, which may
        // extend the hot group before (1) runs again.
        placed += hotPlaceable_.placeRun(cluster, type, watts,
                                         k - placed, out);
        if (placed == k)
            break;
        const std::size_t id = placeHot(cluster, watts);
        if (id != kNoServer)
            cluster.addJob(id, type);
        out.push_back(id);
        ++placed;
    }
}

void
VmtWaScheduler::placeColdRun(Cluster &cluster, WorkloadType type,
                             std::size_t k, std::vector<std::size_t> &out)
{
    const Watts watts = cluster.powerModel().corePower(type);
    // (1) fails only once the cold group is exhausted; the rest of the
    // run takes the per-job cascade.
    std::size_t placed =
        coldGroup_.placeRun(cluster, type, watts, k, out);
    for (; placed < k; ++placed) {
        const std::size_t id = placeCold(cluster, watts);
        if (id != kNoServer)
            cluster.addJob(id, type);
        out.push_back(id);
    }
}

void
VmtWaScheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                          std::vector<std::size_t> &out)
{
    if (!initialized_ && !jobs.empty())
        beginInterval(cluster, 0.0);
    anyExhausted_ = false;
    const auto place_one = [&](const Job &job) {
        return placeOne(cluster, job.type);
    };
    const auto place_run = [&](WorkloadType type, std::size_t k) {
        if (hotMask_[workloadIndex(type)])
            placeHotRun(cluster, type, k, out);
        else
            placeColdRun(cluster, type, k, out);
    };
    placeTypeRuns(cluster, jobs, out, place_one, place_run);
}

std::optional<std::size_t>
VmtWaScheduler::hotGroupSize() const
{
    return hotSize_;
}

std::vector<MigrationRequest>
VmtWaScheduler::proposeMigrations(Cluster &cluster, Seconds)
{
    std::vector<MigrationRequest> requests;
    const double utilization = cluster.aliveUtilization();
    if (utilization < config_.keepWarmUtilization)
        return requests; // Off-peak rebalancing has no thermal value.

    // Unmelted hot-group members with spare cores, coolest first.
    BlockMinGroup<CoolerFirst> targets;
    std::size_t target_slots = 0;
    for (std::size_t id = 0; id < hotSize_; ++id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.estimatedMeltFraction() < config_.waxThreshold &&
            srv.hasCapacity()) {
            targets.add(cluster, id);
            target_slots += srv.freeCores();
        }
    }
    if (target_slots == 0)
        return requests; // No target: every member added has a core.

    // Melted servers holding more than their keep-warm load shed the
    // excess, hottest jobs first.
    for (std::size_t id = 0; id < hotSize_ && target_slots > 0;
         ++id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.estimatedMeltFraction() < config_.waxThreshold)
            continue;
        Watts power = srv.power(cluster.powerModel());
        if (power <= keepWarmPower_)
            continue;
        // Move hot jobs until the server would drop to keep-warm.
        CoreCounts counts = srv.coreCounts();
        for (WorkloadType type : kAllWorkloads) {
            if (!hotMask_[workloadIndex(type)])
                continue;
            const Watts per_core =
                cluster.powerModel().corePower(type);
            while (counts[workloadIndex(type)] > 0 &&
                   power - per_core >= keepWarmPower_ &&
                   target_slots > 0) {
                const std::size_t to =
                    targets.place(cluster, per_core);
                if (to == kNoServer)
                    return requests;
                requests.push_back(
                    MigrationRequest{id, type, to});
                --counts[workloadIndex(type)];
                power -= per_core;
                --target_slots;
            }
        }
    }
    return requests;
}

void
VmtWaScheduler::setGroupingValue(double gv)
{
    if (gv <= 0.0)
        fatal("setGroupingValue requires gv > 0");
    config_.groupingValue = gv;
}

void
VmtWaScheduler::saveState(Serializer &out) const
{
    out.putDouble(config_.groupingValue);
    out.putBool(initialized_);
    out.putSize(baseHotSize_);
    out.putSize(hotSize_);
    out.putSize(meltedCount_);
    out.putSize(domainCap_);
    out.putDouble(keepWarmPower_);
    out.putSize(meltedCursor_);
    out.putSize(anyCursor_);
}

void
VmtWaScheduler::loadState(Deserializer &in)
{
    config_.groupingValue = in.getDouble();
    initialized_ = in.getBool();
    baseHotSize_ = in.getSize();
    hotSize_ = in.getSize();
    meltedCount_ = in.getSize();
    domainCap_ = in.getSize();
    keepWarmPower_ = in.getDouble();
    meltedCursor_ = in.getSize();
    anyCursor_ = in.getSize();
}

} // namespace vmt
