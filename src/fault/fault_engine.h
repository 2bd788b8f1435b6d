/**
 * @file
 * Event-driven fault injection for the simulation driver.
 *
 * FaultEngine owns the degraded-mode state of one run: the cursor
 * into the scripted FaultPlan, the current cooling derate, the
 * stochastic-failure Rng and repair queue, and the thermal-emergency
 * quarantine logic. runSimulation calls beginInterval() at every
 * interval boundary (after departures, before placement); the engine
 * mutates server health through Cluster::setHealth and returns the
 * servers whose jobs must be evacuated.
 *
 * Determinism contract: everything here is a pure function of
 * (FaultConfig, interval index, cluster state), with all stochastic
 * draws made in server-id order from the engine's private Rng — so a
 * faulted run is bitwise reproducible across thread counts and
 * across checkpoint/restore (the engine serializes into the snapshot
 * FALT section, format v2).
 */

#ifndef VMT_FAULT_FAULT_ENGINE_H
#define VMT_FAULT_FAULT_ENGINE_H

#include <cstddef>
#include <deque>
#include <vector>

#include "fault/fault_plan.h"
#include "reliability/failure_model.h"
#include "state/fields.h"
#include "util/rng.h"
#include "util/units.h"

namespace vmt {

class Cluster;

/** Applies scripted and stochastic faults at interval boundaries. */
class FaultEngine
{
  public:
    /**
     * @param config Fault-layer configuration (copied).
     * @param num_servers Cluster size, for validating plan targets.
     * @throws FatalError when the plan names a server out of range.
     */
    FaultEngine(const FaultConfig &config, std::size_t num_servers);

    /**
     * Apply everything due at the interval starting at @p now:
     * scripted events with time <= now, stochastic repairs that have
     * come due, quarantine releases, fresh stochastic failure draws
     * (one uniform per non-failed server, id order) and quarantine
     * triggers against the air temperatures of the previous
     * interval's end.
     *
     * @param dt The interval length (scales the per-draw hazard).
     * @return Ids of servers that newly stopped accepting jobs and
     *         hold evacuable work — i.e. newly Failed servers —
     *         sorted ascending. The caller evacuates their jobs.
     */
    std::vector<std::size_t> beginInterval(Cluster &cluster,
                                           Seconds now, Seconds dt);

    /** Current supply-air rise from cooling derates (>= 0). */
    Kelvin supplyRise() const { return supplyRise_; }

    /** Servers currently quarantined (thermal emergency). */
    std::size_t quarantinedServers() const { return quarantined_; }

    /**
     * Serialize the engine's dynamic state (plan cursor, derate,
     * Rng, repair queue, per-server health) into a snapshot section
     * (vmtsim's FALT, each vmtserve shard's slot in DGRD). loadState
     * re-applies health through Cluster::setHealth so the cluster
     * aggregates stay consistent.
     */
    void saveState(Serializer &out, const Cluster &cluster) const;
    void loadState(Restore &io, Cluster &cluster);

  private:
    /** One pending stochastic repair. */
    struct Repair
    {
        Seconds due;
        std::size_t serverId;
    };

    FaultConfig config_;
    std::size_t numServers_;
    /** Index of the next scripted event to apply. */
    std::size_t cursor_ = 0;
    Kelvin supplyRise_ = 0.0;
    /** Quarantined-server count (kept, not recomputed, so the
     *  per-interval cost is O(events), not O(servers)). */
    std::size_t quarantined_ = 0;
    Rng rng_;
    /** FIFO of pending stochastic repairs (due times non-decreasing
     *  because repairTime is constant). */
    std::deque<Repair> repairs_;
    /** Stochastic hazard model; meaningful only when mtbf > 0. */
    FailureModel failureModel_;
};

/**
 * The fault configuration a snapshot echoes (state/fields.h): the
 * stochastic and thermal parameters, seed first, and the plan event by
 * event. vmtsim's FALT and vmtserve's DGRD echo the enable flag, these
 * parameters and the plan in different orders; each keeps its own.
 */
template <typename IO>
void
echoFaultParams(IO &io, const FaultConfig &config)
{
    echo(io, "fault seed", config.seed);
    echo(io, "fault mtbf", config.mtbf);
    echo(io, "fault mtbf reference temp", config.mtbfRefTemp);
    echo(io, "fault mtbf doubling delta", config.mtbfDoublingDelta);
    echo(io, "fault repair time", config.repairTime);
    echo(io, "fault critical temp", config.criticalTemp);
    echo(io, "fault critical release", config.criticalRelease);
}

template <typename IO>
void
echoFaultPlan(IO &io, const FaultPlan &plan)
{
    echo(io, "fault plan length", plan.size());
    for (const FaultEvent &event : plan.events()) {
        echo(io, "fault event time", event.time);
        echo(io, "fault event type", event.type);
        echo(io, "fault event server", event.serverId);
        echo(io, "fault event supply rise", event.supplyRise);
    }
}

} // namespace vmt

#endif // VMT_FAULT_FAULT_ENGINE_H
