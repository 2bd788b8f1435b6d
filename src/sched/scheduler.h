/**
 * @file
 * Cluster-level job placement interface shared by the baselines
 * (round robin, coolest first) and the VMT schedulers.
 */

#ifndef VMT_SCHED_SCHEDULER_H
#define VMT_SCHED_SCHEDULER_H

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "server/cluster.h"
#include "util/units.h"
#include "workload/job.h"

namespace vmt {

class Serializer;
class Deserializer;

/** Returned by placeJob when no server has a free core. */
inline constexpr std::size_t kNoServer =
    std::numeric_limits<std::size_t>::max();

/**
 * A request to move one running job of the given type between
 * servers. The simulation picks a concrete job, re-homes it (its
 * remaining runtime is unchanged) and updates both servers — the
 * paper's Section IV-B-1 assumption that "all [workloads] can be
 * migrated or reallocated".
 */
struct MigrationRequest
{
    std::size_t fromServer = 0;
    WorkloadType type = WorkloadType::WebSearch;
    std::size_t toServer = 0;
};

/**
 * Abstract job placement policy.
 *
 * The simulation calls beginInterval() once per scheduling interval
 * (the paper's once-per-minute wax-state refresh) and then placeJob()
 * for each arriving job. placeJob() must return a server with a free
 * core, or kNoServer if the cluster is completely full; the caller
 * performs the actual Cluster::addJob.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Human-readable policy name (for reports). */
    virtual std::string name() const = 0;

    /**
     * Refresh per-interval state (wax scans, temperature ordering).
     * @param cluster The cluster being scheduled.
     * @param now Simulation time in seconds.
     */
    virtual void beginInterval(Cluster &cluster, Seconds now);

    /**
     * Pick a server for a job.
     * @return Server id with a free core, or kNoServer.
     */
    virtual std::size_t placeJob(Cluster &cluster, const Job &job) = 0;

    /**
     * Place a whole batch of jobs — the driver's arrival loop and
     * the fault-evacuation refugee loop both buffer an interval's
     * jobs, so one call serves the batch.
     *
     * Unlike placeJob, placeJobs *applies* each successful placement
     * (Cluster::addJob) before deciding the next one, because later
     * decisions depend on earlier capacity changes; the caller must
     * not addJob again. `out` receives one entry per job, in order:
     * the chosen server id, or kNoServer for jobs that could not be
     * placed (those are not applied).
     *
     * The default walks placeJob + addJob per job, which is exactly
     * the decision sequence the historical per-job driver loop
     * produced.
     */
    virtual void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                           std::vector<std::size_t> &out);

    /**
     * Current hot-group size for group-based policies; disengaged for
     * the baselines. The simulation uses it to record Fig. 12/15
     * hot-group temperature series.
     */
    virtual std::optional<std::size_t> hotGroupSize() const;

    /**
     * Migrations the policy would like executed this interval,
     * in priority order. Called after beginInterval(); the
     * simulation executes at most SimConfig::migrationBudget of
     * them, skipping any that are no longer valid. Base policies
     * migrate nothing.
     */
    virtual std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now);

    /**
     * Append policy state that must survive a checkpoint: cursors,
     * learned knobs — anything carried across intervals that the next
     * beginInterval() does not rebuild from the cluster. Policies
     * that rebuild everything per interval keep the default no-op.
     * See state/sim_snapshot.h.
     */
    virtual void saveState(Serializer &out) const;

    /** Restore exactly what saveState() wrote, in the same order. */
    virtual void loadState(Deserializer &in);
};

/**
 * The drivers' check on a placeJobs result: `out` must hold one entry
 * per job, each a server id below `servers` or kNoServer. Anything
 * else is a bug in the policy; panics, naming it.
 */
void checkPlacements(const Scheduler &policy, std::size_t jobs,
                     const std::vector<std::size_t> &out,
                     std::size_t servers);

} // namespace vmt

#endif // VMT_SCHED_SCHEDULER_H
