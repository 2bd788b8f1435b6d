/**
 * @file
 * One pod: a cluster, its placement policy, the departure ledger of
 * its running jobs (one (server, type) record per job,
 * sim/departure_ring.h), its fault engine and the supply-air rise
 * pushed into its inlets. runSimulation runs one pod and
 * ShardedDriver one per shard; each driver keeps its own interval
 * order, and the pod is the only code that files, drains, evacuates,
 * migrates or reloads departure records (DESIGN.md §11, §16).
 */

#ifndef VMT_SIM_POD_H
#define VMT_SIM_POD_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_engine.h"
#include "sched/scheduler.h"
#include "server/cluster.h"
#include "sim/departure_ring.h"
#include "util/units.h"
#include "workload/job.h"

namespace vmt {

class Deserializer;

class Pod
{
  public:
    /** @param scheduler Must outlive the pod.
     *  @param interval The driver's step, the ring's bucket width. */
    Pod(Cluster cluster, Scheduler &scheduler, Seconds interval);

    /** Complete every job due at or before `now`, one
     *  Cluster::removeJob per record; returns how many. */
    std::size_t drain(Seconds now);

    /**
     * The evacuation rule: take every job off the `failed` servers
     * into `refugees`, server by server and type by type from the
     * cluster's counts, so the type sequence placement sees does not
     * depend on the ring. The i-th refugee of a (server, type) keeps
     * the bucket of that pair's i-th record in drain order; dues[k]
     * is that bucket's boundary time, which filing maps back to it.
     * Panics when a pair's record count differs from the cluster's.
     */
    void evacuate(const std::vector<std::size_t> &failed);

    /** Place `jobs` as one batch through the policy, which applies
     *  each placement, into `placements`, and check the result. */
    void place(std::span<const Job> jobs);

    /** File a record due at due(k) for each jobs[k] the last place()
     *  call placed; returns how many it placed. */
    template <class Due>
    std::size_t
    file(std::span<const Job> jobs, Due due)
    {
        std::size_t placed = 0;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            if (placements[k] == kNoServer)
                continue;
            departures.schedule(
                due(k), DepartureRing::pack(placements[k], jobs[k].type));
            ++placed;
        }
        return placed;
    }

    /**
     * The migration rule, for moves already applied to the cluster's
     * counts: in request order, each move rewrites the source's
     * earliest-draining record of its type (records moved in by an
     * earlier move count) to name the destination. Panics when a
     * source has too few records.
     */
    void migrate(const std::vector<MigrationRequest> &moves);

    /** Push `setpoint` plus the fault engine's cooling-derate rise
     *  into every inlet when the rise differs from appliedRise. */
    void pushSupplyRise(Celsius setpoint);

    /** Rebuild the ledger from a format-`version` snapshot (a v3
     *  ring or a v1/v2 slot ledger) for a run resuming at `resume`.
     *  @throws FatalError on anything the ledger cannot hold. */
    void loadLedger(Deserializer &in, std::uint32_t version,
                    Seconds resume);

    /** @throws FatalError naming the first (server, type) whose
     *  pending records differ from the cluster's running jobs. */
    void checkLedger() const;

    Cluster cluster;
    Scheduler &scheduler;
    DepartureRing departures;
    /** Emplaced by the driver when it runs faults. */
    std::optional<FaultEngine> faults;
    /** Supply-air rise last pushed into the inlets. */
    Kelvin appliedRise = 0.0;

    /** Reused buffers: the last place() result (a server id or
     *  kNoServer per job), and the last evacuate() refugees and the
     *  boundary time each keeps. */
    std::vector<std::size_t> placements;
    std::vector<Job> refugees;
    std::vector<Seconds> dues;
};

} // namespace vmt

#endif // VMT_SIM_POD_H
