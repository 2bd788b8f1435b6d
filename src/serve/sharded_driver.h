/**
 * @file
 * The serving-mode driver (vmtserve): an open-ended interval loop
 * over an N-server datacenter partitioned into per-pod simulation
 * shards, fed by a streaming JobFeed through an admission-control
 * layer.
 *
 * Per interval:
 *
 *  1. every shard drains its due departures (thread pool, one shard
 *     per chunk — shards share no mutable state); the same fan-out
 *     runs each shard's FaultEngine (when faults are configured),
 *     refreshes its policy state and drains the jobs resident on
 *     newly failed servers into a refugee list;
 *  2. refugees are re-routed across shards through the waterfill
 *     router and batch-placed into surviving pods, with bounded
 *     retries before the remainder is shed (cross-shard migration);
 *  3. the feed's arrivals due before the next boundary enter the
 *     bounded ingress ring (overflow is shed and accounted);
 *  4. the admission budget's worth of queued arrivals is admitted and
 *     routed to shards by a deterministic waterfill over free cores
 *     (serve/waterfill.h) — arrivals beyond the fleet's free capacity
 *     are re-queued (queue policy) or shed (shed policy). Only the
 *     routed arrivals are popped; the others are counted, not copied.
 *     Under a thermal brownout the effective budget steps down before
 *     the admission pop, and a configured queue-age deadline sheds
 *     stale arrivals at the pop;
 *  5. every shard batch-places its routed jobs through
 *     Scheduler::placeJobs (the batched placement hot path), again
 *     fanned out per shard;
 *  6. every shard advances its thermal state; the per-shard samples
 *     reduce serially in shard order and feed the brownout governor.
 *
 * Everything the loop does is a pure function of (config, feed), so
 * results — including the JSONL telemetry stream — are bitwise
 * identical at any thread count and across checkpoint/resume. The
 * periodic checkpoints (src/state/ snapshot container) carry the feed
 * cursor, the ingress ring, the full shard map (cluster, policy and
 * departure ring per shard), in degraded mode only a DGRD section with
 * the fault/brownout state, and with observability attached an OBSV
 * section with the metric values and event log. Checkpoint
 * writes go through the crash-recovery manager (state/recovery.h):
 * failures are counted and retried instead of fatal, and resume scans
 * the retained generations instead of dying on a corrupt newest file.
 */

#ifndef VMT_SERVE_SHARDED_DRIVER_H
#define VMT_SERVE_SHARDED_DRIVER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_engine.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "sched/scheduler.h"
#include "serve/brownout.h"
#include "serve/ingress_queue.h"
#include "serve/job_feed.h"
#include "server/cluster.h"
#include "server/server_spec.h"
#include "sim/departure_ring.h"
#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {
class SnapshotWriter;
} // namespace vmt

namespace vmt::serve {

/** What to do with arrivals beyond the per-interval admission
 *  budget or the fleet's free capacity. */
enum class AdmitPolicy : std::uint8_t
{
    /** Keep them in the ingress ring for later intervals; shed only
     *  when the ring itself overflows. */
    Queue = 0,
    /** Shed them immediately — the ring only buffers within an
     *  interval, so backlog never carries over. */
    Shed = 1,
};

/** Parse queue|shed. @throws FatalError on anything else. */
AdmitPolicy admitPolicyFromString(const std::string &name);
const char *admitPolicyName(AdmitPolicy policy);

/** Everything needed to reproduce one serving run. */
struct ServeConfig
{
    /** Fleet size (10k+ is the sharded mode's design point). */
    std::size_t numServers = 1000;
    /** Servers per simulation shard (the pod size); the last shard
     *  takes the remainder. */
    std::size_t podSize = 256;
    ServerSpec spec{};
    ServerThermalParams thermal{};
    double powerScale = 1.77;
    /** Scheduling / model-update interval. */
    Seconds interval = kMinute;
    std::uint64_t seed = 7;

    /** Per-shard placement policy (core/policy_factory.h names). */
    std::string policy = "wa";
    double gv = 22.0;
    double waxThreshold = 0.98;
    Celsius overheatTemp = 45.0;

    /** Ingress ring capacity (jobs); arrivals beyond it are shed. */
    std::size_t queueCapacity = 65536;
    /** Jobs admitted per interval; 0 = no budget (admit everything
     *  queued). */
    std::size_t admissionBudget = 0;
    AdmitPolicy admit = AdmitPolicy::Queue;

    /**
     * Fault layer over the sharded fleet. Plan events target global
     * server ids (0..numServers); the driver slices the plan per
     * shard and runs one FaultEngine per pod with a decorrelated
     * per-shard Rng stream (faults.seed + shard index), so a clean
     * run stays bitwise unchanged. Default-constructed = off.
     */
    FaultConfig faults{};

    /** Thermal-brownout admission governor; default = off. */
    BrownoutParams brownout{};

    /**
     * Oldest a queued arrival may be when it reaches admission
     * (seconds); older arrivals are shed at the pop and accounted as
     * expired, separately from overflow sheds. 0 = no deadline.
     */
    Seconds maxQueueAge = 0.0;

    /** Re-route rounds for evacuated jobs before the remainder is
     *  shed as lost. */
    std::size_t evacRetries = 3;

    /** Stop after this many completed intervals; 0 = run until the
     *  feed is exhausted and drained (or a stop is requested). */
    std::size_t maxIntervals = 0;

    /** Snapshot every N completed intervals (0 = off); a final
     *  snapshot is always attempted on exit while enabled. */
    std::size_t checkpointEvery = 0;
    std::string checkpointPath = "vmtserve.ckpt";
    /** Resume from a snapshot written by an earlier run with the same
     *  configuration and feed. */
    std::string resumeFrom;

    /** JSONL telemetry stream: one line per interval, appended and
     *  flushed as produced (kill-safe). Empty = off. */
    std::string telemetryOut;
    /** Also retain the JSONL lines in ServeResult::telemetry
     *  (bounded test runs only — this grows without limit). */
    bool keepTelemetry = false;
    /** Record per-interval placement-phase wall time into
     *  ServeResult::placementSeconds (the perf_serve study). */
    bool recordPlacementLatency = false;

    /** Observability sink; null runs clock-free. `serve.*` metrics
     *  are deterministic, `profile.serve.*` are wall-clock. */
    obs::Observability *obs = nullptr;

    /** True when any degraded-mode machinery is configured; the
     *  driver's clean path is untouched while this is false. */
    bool degraded() const
    {
        return faults.enabled() || brownout.enabled() ||
               maxQueueAge > 0.0;
    }
};

/** Aggregates from one serving run. */
struct ServeResult
{
    std::string schedulerName;
    std::size_t shards = 0;
    /** Total completed intervals, including a resumed prefix. */
    std::size_t completedIntervals = 0;
    /** Intervals restored from the resume snapshot (0 = fresh). */
    std::size_t resumedIntervals = 0;

    /** Arrivals pulled from the feed (incl. the resumed prefix). */
    std::uint64_t arrivals = 0;
    /** Jobs admitted and routed to a shard. */
    std::uint64_t admitted = 0;
    /** Jobs shed by admission control (ring overflow, shed policy,
     *  or re-queue overflow). */
    std::uint64_t shed = 0;
    /** Jobs bounced off a full fleet back into the ring. */
    std::uint64_t requeued = 0;
    /** Jobs placed on a server. */
    std::uint64_t placed = 0;
    /** Admitted jobs a shard could not place (expected 0). */
    std::uint64_t droppedJobs = 0;
    /** Jobs that ran to completion. */
    std::uint64_t completedJobs = 0;

    /** True when any degraded-mode machinery was configured. */
    bool degraded = false;
    /** Jobs drained off newly failed servers. */
    std::uint64_t evacuatedJobs = 0;
    /** Evacuated jobs re-placed on a surviving server (possibly in
     *  another shard — the cross-shard migration path). */
    std::uint64_t migratedJobs = 0;
    /** Evacuated jobs shed after the bounded re-route retries. */
    std::uint64_t lostJobs = 0;
    /** Queued arrivals shed by the queue-age deadline. */
    std::uint64_t expiredJobs = 0;
    /** Failed checkpoint writes (run continued on the last good). */
    std::uint64_t checkpointFailures = 0;
    /** Servers down at exit. */
    std::size_t failedServers = 0;
    /** Servers quarantined (thermal emergency) at exit. */
    std::size_t quarantinedServers = 0;
    /** Deepest brownout level the run reached. */
    std::size_t maxBrownoutLevel = 0;
    /** Intervals whose admission ran at a non-zero brownout level. */
    std::uint64_t brownoutIntervals = 0;

    std::size_t finalQueueDepth = 0;
    std::size_t peakQueueDepth = 0;
    /** Jobs still running at exit. */
    std::size_t finalInFlight = 0;

    Watts peakCoolingLoad = 0.0;
    Watts peakPower = 0.0;
    Celsius maxAirTemp = 0.0;
    double maxMeltFraction = 0.0;
    std::uint64_t overheatedServerIntervals = 0;

    /** True when a shouldStop() request ended the run. */
    bool stopped = false;
    /** True when the run drained a finished feed. */
    bool feedExhausted = false;
    /** Final snapshot path (empty when checkpointing is off or the
     *  final write failed). */
    std::string finalCheckpoint;

    /** JSONL lines (ServeConfig::keepTelemetry). */
    std::string telemetry;
    /** Per-interval placement wall times
     *  (ServeConfig::recordPlacementLatency). */
    std::vector<double> placementSeconds;
};

/**
 * The sharded serving driver. Construct once per run; run() drives
 * the interval loop until the feed drains, the interval cap is hit,
 * or shouldStop() returns true (the CLI's SIGINT/SIGTERM flag) — in
 * every case draining to a final checkpoint when checkpointing is
 * enabled.
 */
class ShardedDriver
{
  public:
    /** @throws FatalError on a malformed configuration. */
    explicit ShardedDriver(const ServeConfig &config);

    /** Shards the fleet was partitioned into. */
    std::size_t numShards() const { return shards_.size(); }

    /**
     * Serve the feed. @p shouldStop is polled once per interval; a
     * true return ends the run after the current boundary's
     * checkpoint. Call run() at most once per driver instance.
     */
    ServeResult run(JobFeed &feed,
                    const std::function<bool()> &shouldStop = {});

  private:
    /** One pod's worth of servers with its own policy instance and
     *  departure ring — the unit of parallelism. */
    struct Shard
    {
        Shard(std::size_t num_servers, const ServeConfig &config,
              const PowerModel &power);

        Cluster cluster;
        std::unique_ptr<Scheduler> scheduler;
        /** Pending departures: one (server, type) record per running
         *  job, shard-local server ids. */
        DepartureRing departures;
        /** This interval's routed arrivals / placement results. */
        std::vector<Job> batch;
        std::vector<std::size_t> placements;

        /** Per-pod fault engine (degraded mode with faults only);
         *  sees the global plan sliced to this pod and its own
         *  decorrelated Rng stream. */
        std::optional<FaultEngine> faults;
        /** Supply-air rise currently pushed into this shard's
         *  inlets (mirrors the batch driver's applied-rise latch). */
        Kelvin appliedRise = 0.0;
        /** Newly failed servers' drained jobs (this interval), and
         *  later each retry round's refugees routed to this shard. */
        std::vector<Job> evacBatch;
        /** Parallel to the drained evacBatch: the boundary time of
         *  the departure bucket each refugee keeps (the evacuation
         *  rule). Every shard drains at the same boundaries, so the
         *  destination files it back into the same bucket. */
        std::vector<Seconds> evacDue;
        std::vector<std::size_t> evacPlacements;
        /** Refugees this shard's scheduler could not place in the
         *  current round (re-routed next round). */
        std::vector<WorkloadType> evacFailTypes;
        std::vector<Seconds> evacFailDue;

        ClusterSample sample{};
        std::uint64_t completedThisInterval = 0;
        std::uint64_t placedThisInterval = 0;
        std::uint64_t unplacedThisInterval = 0;
        std::uint64_t migratedThisInterval = 0;
    };

    /** Complete a shard's jobs due at or before now. */
    void drainDepartures(Shard &shard, Seconds now);
    /**
     * Per-shard boundary work (runs inside the departure fan-out):
     * fault-engine step and supply-rise push when the shard has an
     * engine, scheduler beginInterval and refugee drain off newly
     * failed servers.
     * @return Free cores on Up servers, the shard's routing capacity
     *         (totalCores - busyCores would count dead and
     *         quarantined capacity).
     */
    std::size_t faultPhase(Shard &shard, Seconds now);
    /** Cross-shard refugee re-routing: waterfill over surviving
     *  capacity, parallel batched placement, bounded retries, shed
     *  on exhaustion. Serial orchestration (shard order). */
    void evacuateRefugees();
    /** Place one round's refugees routed to this shard — indices
     *  into the round's `types` and `dues` — filing each into its
     *  kept departure bucket. */
    void placeEvac(Shard &shard, std::span<const std::size_t> routed,
                   const std::vector<WorkloadType> &types,
                   const std::vector<Seconds> &dues);
    /** Batch placement + departure records (faultPhase already ran
     *  the scheduler's beginInterval). */
    void placeBatch(Shard &shard, Seconds now);
    /** Admission: pop the budget's worth of queued arrivals (after
     *  the queue-age deadline), waterfill them over the shards' free
     *  cores into their batches, and re-queue or shed the rest. */
    void admit(Seconds now);
    void buildCheckpoint(SnapshotWriter &writer, const JobFeed &feed,
                         std::size_t completed) const;
    std::size_t loadCheckpoint(JobFeed &feed,
                               const std::string &path);
    /** The INGR and DGRD field lists (state/fields.h): buildCheckpoint
     *  walks them with a Serializer and a const Self, loadCheckpoint
     *  with a Restore. */
    template <typename IO, typename Self>
    static void ingressFields(IO &io, Self &self);
    template <typename IO, typename Self>
    static void degradedFields(IO &io, Self &self);

    ServeConfig config_;
    PowerModel power_;
    std::vector<Shard> shards_;
    IngressQueue ingress_;
    std::optional<BrownoutGovernor> brownout_;
    /** Cached ServeConfig::degraded(): gates the degraded-mode
     *  outputs (telemetry fields, metrics, the DGRD section) only;
     *  clean and degraded runs share one compute path. */
    bool degraded_ = false;
    /** Fleet-wide core count (the brownout's notional budget when
     *  admission is unlimited). */
    std::size_t totalCores_ = 0;

    /** Cumulative job counts (serialized, so totals survive resume). */
    struct Totals
    {
        std::uint64_t arrivals = 0;
        std::uint64_t admitted = 0;
        std::uint64_t shed = 0;
        std::uint64_t requeued = 0;
        std::uint64_t placed = 0;
        std::uint64_t dropped = 0;
        std::uint64_t completed = 0;
        std::uint64_t evacuated = 0;
        std::uint64_t migrated = 0;
        std::uint64_t lost = 0;
        std::uint64_t expired = 0;

        /** The counts since @p earlier, field by field. */
        Totals since(const Totals &earlier) const;
    };

    Totals totals_;
    std::uint64_t brownoutIntervals_ = 0;
    std::uint64_t nextJobId_ = 0;
    std::size_t peakQueueDepth_ = 0;
    Watts peakCoolingLoad_ = 0.0;
    Watts peakPower_ = 0.0;
    Celsius maxAirTemp_ = 0.0;
    double maxMeltFraction_ = 0.0;
    std::uint64_t overheated_ = 0;

    /** Reused per-interval buffer of the feed's arrivals. */
    std::vector<FeedJob> feedBuf_;
    /** Free cores per shard on Up servers (faultPhase), debited by
     *  the refugees routed before admission: the admission
     *  waterfill's input. */
    std::vector<std::size_t> freeEst_;
    bool ran_ = false;
};

} // namespace vmt::serve

#endif // VMT_SERVE_SHARDED_DRIVER_H
