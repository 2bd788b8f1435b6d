#include "sim/datacenter_sim.h"

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vmt {

DatacenterSimResult::DatacenterSimResult()
    : coolingLoad(kMinute), totalPower(kMinute)
{}

DatacenterSimResult
runDatacenter(const DatacenterSimConfig &config,
              const SchedulerFactory &factory)
{
    if (config.numClusters == 0)
        fatal("DatacenterSimConfig requires at least one cluster");
    if (!factory)
        fatal("runDatacenter requires a scheduler factory");

    DatacenterSimResult result;
    result.coolingLoad = TimeSeries(config.cluster.interval);
    result.totalPower = TimeSeries(config.cluster.interval);

    // Draw every cluster's configuration and scheduler serially, in
    // cluster order, before any simulation starts: the RNG stream and
    // factory call order are then independent of how the runs are
    // scheduled below.
    Rng rng(config.cluster.seed ^ 0xdcdcdcdcULL);
    std::vector<SimConfig> cluster_cfgs;
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    cluster_cfgs.reserve(config.numClusters);
    schedulers.reserve(config.numClusters);
    result.clusterSeeds.reserve(config.numClusters);
    result.clusterPhaseOffsets.reserve(config.numClusters);
    for (std::size_t c = 0; c < config.numClusters; ++c) {
        SimConfig cluster_cfg = config.cluster;
        // One Observability cannot serve concurrent cluster runs
        // (beginRun resets the shared telemetry); the fan-out always
        // runs uninstrumented.
        cluster_cfg.obs = nullptr;
        cluster_cfg.seed = config.cluster.seed + 1000 * (c + 1);
        cluster_cfg.trace.seed = config.cluster.trace.seed + c;
        cluster_cfg.trace.phaseOffset =
            rng.uniform(-config.peakPhaseSpread,
                        config.peakPhaseSpread);
        result.clusterSeeds.push_back(cluster_cfg.seed);
        result.clusterPhaseOffsets.push_back(
            cluster_cfg.trace.phaseOffset);

        std::unique_ptr<Scheduler> sched = factory(c);
        if (!sched)
            fatal("SchedulerFactory returned null");
        cluster_cfgs.push_back(std::move(cluster_cfg));
        schedulers.push_back(std::move(sched));
    }

    // Independent cluster runs fan out; parallelMap returns them in
    // cluster order.
    result.clusters = parallelMap<SimResult>(
        globalPool(), config.numClusters, 1, [&](std::size_t c) {
            return runSimulation(cluster_cfgs[c], *schedulers[c]);
        });
    for (const SimResult &r : result.clusters)
        result.sumOfClusterPeaks += r.peakCoolingLoad;

    // Facility series: sum aligned samples across clusters. Every
    // cluster must have produced the same number of intervals — a
    // mismatch would silently mis-align the facility series.
    const std::size_t intervals =
        result.clusters.front().coolingLoad.size();
    for (std::size_t c = 0; c < result.clusters.size(); ++c) {
        const SimResult &r = result.clusters[c];
        if (r.coolingLoad.size() != intervals ||
            r.totalPower.size() != intervals)
            fatal("runDatacenter: cluster " + std::to_string(c) +
                  " produced " +
                  std::to_string(r.coolingLoad.size()) +
                  " cooling / " +
                  std::to_string(r.totalPower.size()) +
                  " power intervals, expected " +
                  std::to_string(intervals));
    }
    for (std::size_t i = 0; i < intervals; ++i) {
        Watts cooling = 0.0;
        Watts power = 0.0;
        for (const SimResult &r : result.clusters) {
            cooling += r.coolingLoad.at(i);
            power += r.totalPower.at(i);
        }
        result.coolingLoad.add(cooling);
        result.totalPower.add(power);
    }
    result.peakCoolingLoad = result.coolingLoad.smoothedPeak(kPeakWindow);
    return result;
}

} // namespace vmt
