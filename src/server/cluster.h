/**
 * @file
 * A homogeneous cluster of PCM-enabled servers ("servers are divided
 * into homogeneous clusters and job scheduling is performed at the
 * cluster level", Section IV-A).
 */

#ifndef VMT_SERVER_CLUSTER_H
#define VMT_SERVER_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "server/power_model.h"
#include "server/server.h"
#include "server/server_spec.h"
#include "thermal/thermal_params.h"
#include "thermal/thermal_soa.h"
#include "util/logging.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

/** Cluster-level thermal/power aggregate for one step. */
struct ClusterSample
{
    /** Total electrical power (W). */
    Watts totalPower = 0.0;
    /** Total heat rejected to the room, i.e. the cooling load (W). */
    Watts coolingLoad = 0.0;
    /** Total heat flow into wax across the cluster (W, signed). */
    Watts waxHeatFlow = 0.0;
    /** Mean air-at-wax temperature across servers. */
    Celsius meanAirTemp = 0.0;
    /** Mean ground-truth melt fraction across servers. */
    double meanMeltFraction = 0.0;
    /** Hottest air-at-wax temperature across servers. */
    Celsius maxAirTemp = 0.0;
    /** Servers whose air temperature is at or above the threshold
     *  passed to stepThermal. */
    std::size_t serversAboveThreshold = 0;
    /** Servers currently thermally throttled (DVFS downclocked). */
    std::size_t throttledServers = 0;
};

/** Owns the servers and the aggregate job bookkeeping. */
class Cluster
{
  public:
    /**
     * @param num_servers Cluster size.
     * @param spec Server hardware configuration.
     * @param thermal Thermal constants shared by all servers.
     * @param power Power model shared by all servers.
     * @param inlet_offsets Per-server inlet deviations; empty means
     *        zero for every server, otherwise must have one entry per
     *        server.
     * @throws FatalError on an empty cluster, mismatched offsets or
     *         invalid thermal constants (see ThermalSoA).
     */
    Cluster(std::size_t num_servers, const ServerSpec &spec,
            const ServerThermalParams &thermal, const PowerModel &power,
            const std::vector<Kelvin> &inlet_offsets = {});

    std::size_t numServers() const { return servers_.size(); }

    /** Total schedulable cores across the cluster. */
    std::size_t totalCores() const { return totalCores_; }

    /** Currently occupied cores. */
    std::size_t busyCores() const { return busyCores_; }

    /** Cluster-wide running jobs per workload. */
    const CoreCounts &activeCounts() const { return active_; }

    /** Servers not currently Failed (Quarantined counts as alive). */
    std::size_t aliveServers() const { return aliveServers_; }

    /** Schedulable cores on alive servers (homogeneous cluster). */
    std::size_t aliveCores() const
    {
        return aliveServers_ * spec_.cores();
    }

    /**
     * Busy cores over alive cores — the load the surviving fleet
     * actually carries (identical to busyCores()/totalCores() while
     * nothing is failed). 0 when every server is down.
     */
    double aliveUtilization() const
    {
        const std::size_t cores = aliveCores();
        if (cores == 0)
            return 0.0;
        return static_cast<double>(busyCores_) /
               static_cast<double>(cores);
    }

    /**
     * Change one server's operational state, keeping the alive-server
     * aggregate and power cache consistent. The fault engine is the
     * only caller; taking a server down does NOT evacuate its jobs —
     * the driver drains them through the active scheduler first.
     */
    void setHealth(std::size_t server_id, ServerHealth health);

    /** Mutable access: marks the server's power stale, since the
     *  caller may change its job mix. Panics out of range. */
    Server &server(std::size_t id);

    /** Read-only access; panics out of range. */
    const Server &
    server(std::size_t id) const
    {
        if (id >= servers_.size()) [[unlikely]]
            panic("Cluster::server out of range");
        return servers_[id];
    }

    /** Occupy a core on a server; updates cluster aggregates. Panics
     *  out of range or when the server has no capacity. */
    void
    addJob(std::size_t server_id, WorkloadType type)
    {
        if (server_id >= servers_.size()) [[unlikely]]
            panic("Cluster::addJob out of range");
        markPowerDirty(server_id);
        servers_[server_id].addJob(type);
        ++active_[workloadIndex(type)];
        ++busyCores_;
    }

    /** Release a core on a server; updates cluster aggregates. Panics
     *  out of range or when no such job is running. */
    void
    removeJob(std::size_t server_id, WorkloadType type)
    {
        if (server_id >= servers_.size()) [[unlikely]]
            panic("Cluster::removeJob out of range");
        markPowerDirty(server_id);
        servers_[server_id].removeJob(type);
        auto &count = active_[workloadIndex(type)];
        if (count == 0) [[unlikely]]
            panic("Cluster::removeJob underflow");
        --count;
        --busyCores_;
    }

    /**
     * Instantaneous total electrical power: the per-server power
     * caches reduced serially in server-index order (bitwise
     * identical to the historical serial recompute). The drivers read
     * stepThermal's sample instead.
     */
    Watts totalPower() const;

    /**
     * Advance every server's thermal state by dt and aggregate: gather
     * stale powers, step the ThermalSoA, then apply the throttle rule
     * and reduce serially in server-index order.
     *
     * From 256 servers up the batched chunks (independent of each
     * other) run on the global thread pool when it has more than one
     * thread; chunk boundaries are fixed and the reduction stays
     * serial, so the result is bitwise identical at any thread
     * count.
     *
     * @param dt Step length (seconds).
     * @param hot_threshold Air temperature counted as overheating in
     *        ClusterSample::serversAboveThreshold.
     */
    ClusterSample stepThermal(Seconds dt, Celsius hot_threshold = 1e9);

    /** Set every server's cold-aisle inlet (cooling feedback);
     *  per-server offsets are preserved. Inlet changes never affect
     *  electrical power, so no power cache is invalidated. */
    void setBaseInlet(Celsius inlet);

    /** Set one server's cold-aisle inlet (recirculation modelling). */
    void setBaseInlet(std::size_t server_id, Celsius inlet);

    /**
     * The batched thermal state: a read-only window for the placement
     * fast path (sched/placement_view.h). Its per-server arrays are
     * what the Server accessors read.
     */
    const ThermalSoA &thermalSoa() const { return *soa_; }

    /**
     * Re-gather stale entries of the SoA power array. After this call
     * ThermalSoA::power(i) equals server(i).power(powerModel())
     * bitwise for every server; the placement fast path calls it once
     * per interval before reading the gathered powers.
     */
    void refreshGatheredPower() { refreshPowerArray(); }

    /** Power model shared by the servers. */
    const PowerModel &powerModel() const { return power_; }

    /** Thermal constants shared by the servers. */
    const ServerThermalParams &thermalParams() const { return thermal_; }

    /** Mean air temperature over servers [0, count). */
    Celsius meanAirTemp(std::size_t count) const;

    /**
     * Checkpoint the cluster's dynamic state: job aggregates, the
     * base cold-aisle inlet (thermalParams().inletTemp tracks cooling
     * feedback and schedulers read it) and every server's state.
     * loadState requires a cluster constructed with the same server
     * count and invalidates the total-power cache.
     */
    void saveState(Serializer &out) const;
    void loadState(Deserializer &in);

  private:
    /** Mark one server's gathered power stale. */
    void
    markPowerDirty(std::size_t id)
    {
        powerDirty_[id >> 6] |= std::uint64_t{1} << (id & 63);
    }

    void markAllPowerDirty();
    /** Re-gather stale entries of the SoA power array. */
    void refreshPowerArray();

    ServerSpec spec_;
    ServerThermalParams thermal_;
    PowerModel power_;
    /** Every server's thermal state. Heap-held so the servers'
     *  pointers into it survive Cluster moves. */
    std::unique_ptr<ThermalSoA> soa_;
    std::vector<Server> servers_;
    std::size_t totalCores_ = 0;
    std::size_t busyCores_ = 0;
    /** Servers whose health is not Failed (see aliveServers()). Not
     *  serialized here — health lives in the snapshot FALT section. */
    std::size_t aliveServers_ = 0;
    CoreCounts active_{};
    /** Dirty bits for the SoA power gather: set on any event that can
     *  change a server's draw (job churn, health flips, throttle
     *  flips, mutable access), cleared by refreshPowerArray. */
    std::vector<std::uint64_t> powerDirty_;
};

} // namespace vmt

#endif // VMT_SERVER_CLUSTER_H
