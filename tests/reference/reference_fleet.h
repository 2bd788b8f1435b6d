/**
 * @file
 * The per-object thermal reference: every server steps its own
 * ServerThermal (RcNode air node + closed-form Pcm) and
 * WaxStateEstimator under the historical throttle and power rule, and
 * the fleet reduces a ClusterSample server by server. This is the
 * implementation the batched ThermalSoA kernel replaced inside
 * Cluster; it stays as the bitwise oracle of the `kernel` suite and as
 * the baseline bench/perf_kernel times Cluster::stepThermal against.
 */

#ifndef VMT_TESTS_REFERENCE_REFERENCE_FLEET_H
#define VMT_TESTS_REFERENCE_REFERENCE_FLEET_H

#include <cstddef>
#include <vector>

#include "server/cluster.h"
#include "reference/server_thermal.h"
#include "thermal/wax_state_estimator.h"

namespace vmt::reference {

/** One server with its own thermal model and melt estimator. */
class ReferenceServer
{
  public:
    ReferenceServer(const ServerSpec &spec,
                    const ServerThermalParams &params,
                    Kelvin inlet_offset);

    bool hasCapacity() const
    {
        return health_ == ServerHealth::Up && busyCores_ < spec_.cores();
    }
    ServerHealth health() const { return health_; }
    void setHealth(ServerHealth health);
    const CoreCounts &coreCounts() const { return counts_; }
    std::size_t busyCores() const { return busyCores_; }
    void addJob(WorkloadType type);
    void removeJob(WorkloadType type);

    /** Power including throttling, cached like Server::power. */
    Watts power(const PowerModel &model) const;
    bool throttled() const { return throttled_; }

    /** Step the thermal model at the current power, feed the
     *  estimator the container sensor, then apply the throttle
     *  hysteresis. */
    ThermalSample stepThermal(const PowerModel &model, Seconds dt);

    Celsius airTemp() const { return thermal_.airTemp(); }
    double waxMeltFraction() const
    {
        return thermal_.pcm().meltFraction();
    }
    double estimatedMeltFraction() const { return estimator_.estimate(); }
    Joules waxEnthalpy() const { return thermal_.pcm().enthalpy(); }
    Joules estimatedWaxEnthalpy() const
    {
        return estimator_.estimatedEnthalpy();
    }
    void setBaseInlet(Celsius inlet) { thermal_.setBaseInlet(inlet); }

    /** Server::saveState's byte layout. */
    void saveState(Serializer &out) const;

  private:
    void applyThrottle(Celsius cpu_temp);

    ServerSpec spec_;
    ServerThermal thermal_;
    WaxStateEstimator estimator_;
    CoreCounts counts_{};
    std::size_t busyCores_ = 0;
    bool throttled_ = false;
    ServerHealth health_ = ServerHealth::Up;
    mutable const PowerModel *powerCacheModel_ = nullptr;
    mutable Watts powerCache_ = 0.0;
};

/** A fleet of ReferenceServers behind Cluster's mutation, step and
 *  checkpoint interface. */
class ReferenceFleet
{
  public:
    ReferenceFleet(std::size_t num_servers, const ServerSpec &spec,
                   const ServerThermalParams &thermal,
                   const PowerModel &power,
                   const std::vector<Kelvin> &inlet_offsets = {});

    std::size_t numServers() const { return servers_.size(); }
    const ReferenceServer &server(std::size_t id) const
    {
        return servers_.at(id);
    }
    const PowerModel &powerModel() const { return power_; }

    void addJob(std::size_t id, WorkloadType type);
    void removeJob(std::size_t id, WorkloadType type);
    void setHealth(std::size_t id, ServerHealth health)
    {
        servers_.at(id).setHealth(health);
    }
    void setBaseInlet(Celsius inlet);
    void setBaseInlet(std::size_t id, Celsius inlet)
    {
        servers_.at(id).setBaseInlet(inlet);
    }

    /** Serial index-order sum of the per-server powers. */
    Watts totalPower() const;

    /** Step every server, then reduce serially in index order. From
     *  256 servers the per-server steps fan out on the global pool in
     *  fixed 64-server chunks, as Cluster's do. */
    ClusterSample stepThermal(Seconds dt, Celsius hot_threshold = 1e9);

    /** Cluster::saveState's byte layout. */
    void saveState(Serializer &out) const;

  private:
    ServerThermalParams thermal_;
    PowerModel power_;
    std::vector<ReferenceServer> servers_;
    std::size_t busyCores_ = 0;
    CoreCounts active_{};
    std::vector<ThermalSample> samples_;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_REFERENCE_FLEET_H
