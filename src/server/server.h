/**
 * @file
 * One PCM-enabled server: core slots, running-job mix, power draw and
 * read access to its thermal state and on-board wax-state estimate
 * (Section III-B, "Tracking Wax State"). The thermal state itself
 * lives in the owning Cluster's ThermalSoA, which steps the whole
 * fleet at once.
 */

#ifndef VMT_SERVER_SERVER_H
#define VMT_SERVER_SERVER_H

#include <cstddef>
#include <cstdint>

#include "server/power_model.h"
#include "server/server_spec.h"
#include "thermal/pcm_kernel.h"
#include "thermal/thermal_soa.h"
#include "util/logging.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

class Serializer;
class Deserializer;

/**
 * Operational state of a server under the fault layer (src/fault/).
 *
 * Up          — powered and eligible for placement.
 * Failed      — powered off (0 W); jobs evacuated, nothing placeable.
 * Quarantined — thermal emergency: powered (idle + residual load
 *               drains) but excluded from new placement until the air
 *               temperature drops back below the release threshold.
 */
enum class ServerHealth : std::uint8_t {
    Up = 0,
    Failed = 1,
    Quarantined = 2,
};

/** A single simulated server (constructed by Cluster). */
class Server
{
  public:
    /**
     * @param id Server index within the cluster, and its slot in soa.
     * @param spec Hardware configuration.
     * @param soa The cluster's thermal state, which holds this
     *        server's air, wax and estimator state and its throttle
     *        latch; must outlive the server.
     */
    Server(std::size_t id, const ServerSpec &spec, ThermalSoA &soa);

    /** Cluster-wide index. */
    std::size_t id() const { return id_; }

    /** Total core slots. */
    std::size_t cores() const { return spec_.cores(); }

    /** Unoccupied core slots. */
    std::size_t freeCores() const { return cores() - busyCores_; }

    /** Occupied core slots. */
    std::size_t busyCores() const { return busyCores_; }

    /**
     * True when at least one core is free AND the server accepts new
     * work. Every placement policy gates on this, so Failed and
     * Quarantined servers drop out of the eligible set without
     * policy-specific handling.
     */
    bool hasCapacity() const
    {
        return health_ == ServerHealth::Up && busyCores_ < cores();
    }

    /** Operational state under the fault layer. */
    ServerHealth health() const { return health_; }

    /** True unless the server is Failed (Quarantined is still on). */
    bool alive() const { return health_ != ServerHealth::Failed; }

    /**
     * Change operational state. A Failed server draws 0 W (the driver
     * evacuates its jobs first); coming back Up re-enables placement.
     * Invalidates the power cache.
     */
    void setHealth(ServerHealth health)
    {
        health_ = health;
        powerCacheModel_ = nullptr;
        soa_->setFailed(id_, health_ == ServerHealth::Failed);
    }

    /** Running jobs per workload type. */
    const CoreCounts &coreCounts() const { return counts_; }

    /** Occupy one core with a job of the given type.
     *  Panics unless the server has capacity. */
    void
    addJob(WorkloadType type)
    {
        if (!hasCapacity()) [[unlikely]]
            panic("Server::addJob on a full server");
        ++counts_[workloadIndex(type)];
        ++busyCores_;
        powerCacheModel_ = nullptr;
    }

    /** Release one core of the given type.
     *  Panics when no such job is running. */
    void
    removeJob(WorkloadType type)
    {
        auto &count = counts_[workloadIndex(type)];
        if (count == 0) [[unlikely]]
            panic("Server::removeJob with no such job running");
        --count;
        --busyCores_;
        powerCacheModel_ = nullptr;
    }

    /**
     * Instantaneous power under the given model, including any
     * active thermal throttling.
     *
     * The value is cached and invalidated only on addJob/removeJob
     * and throttle transitions, so the steady-state cost is one load
     * instead of a per-workload multiply-add reduction. The cache is
     * keyed on the model's address (the cluster passes its one shared
     * model on every call); passing a different model recomputes. The
     * cached value is produced by exactly the same expression as the
     * uncached computation, so results are bitwise identical.
     */
    Watts power(const PowerModel &model) const;

    /** True while the server is thermally throttled (DVFS
     *  downclocked because the CPU junction hit its limit). */
    bool throttled() const { return soa_->throttled(id_); }

    /** Estimated CPU junction temperature right now. */
    Celsius cpuTemp(const PowerModel &model) const;

    /**
     * Apply the thermal-limit hysteresis for a step that produced the
     * given CPU temperature: downclock when the junction hits the
     * limit, recover once it cools off. Called by the cluster's
     * post-step scan (the single source of the throttle rule).
     * @return True when the throttle latch flipped (power changed).
     */
    bool applyThrottle(Celsius cpu_temp);

    /** Air temperature at the wax (the heatmap quantity). */
    Celsius airTemp() const { return soa_->airTemp(id_); }

    /** Effective inlet temperature: the cold-aisle base inlet plus
     *  this server's fixed offset. */
    Celsius inletTemp() const
    {
        return soa_->baseInlet(id_) + soa_->inletOffset(id_);
    }

    /** Ground-truth melt fraction (the simulator's knowledge). */
    double waxMeltFraction() const
    {
        return pcmMeltFraction(soa_->derived(), soa_->enthalpy(id_));
    }

    /** The melt-fraction estimate the scheduler is allowed to see. */
    double estimatedMeltFraction() const
    {
        return soa_->estimatedEnthalpy(id_) / soa_->derived().latentCap;
    }

    /** Ground-truth latent energy stored in the wax. */
    Joules waxEnergyStored() const
    {
        return waxMeltFraction() * soa_->derived().latentCap;
    }

    /** Ground-truth wax enthalpy (checkpoint quantity). */
    Joules waxEnthalpy() const { return soa_->enthalpy(id_); }

    /** The estimator's integrated enthalpy (checkpoint quantity). */
    Joules estimatedWaxEnthalpy() const
    {
        return soa_->estimatedEnthalpy(id_);
    }

    /**
     * Checkpoint the server's dynamic state: job mix, throttle latch,
     * base inlet, air temperature, wax enthalpy and the estimator's
     * drift state. The power cache is not saved — loadState
     * invalidates it and the recompute is bitwise identical.
     */
    void saveState(Serializer &out) const;
    void loadState(Deserializer &in);

  private:
    /** Recompute the power cache against the given model. */
    void refreshPowerCache(const PowerModel &model) const;

    std::size_t id_;
    ServerSpec spec_;
    /** The cluster's thermal arrays; this server is slot id_. */
    ThermalSoA *soa_;
    CoreCounts counts_{};
    std::size_t busyCores_ = 0;
    // Not serialized in saveState (that layout is pinned by snapshot
    // v1 compatibility); the fault engine persists health in the FALT
    // section instead.
    ServerHealth health_ = ServerHealth::Up;

    // Power cache (see power()). nullptr means stale. Mutable so the
    // logically-const power() can fill it; the cluster's parallel
    // thermal chunks never read it (they read the gathered SoA power
    // array), so one thread at a time touches a server's cache.
    mutable const PowerModel *powerCacheModel_ = nullptr;
    /** Power including any active throttling (what power() returns). */
    mutable Watts powerCache_ = 0.0;
};

} // namespace vmt

#endif // VMT_SERVER_SERVER_H
