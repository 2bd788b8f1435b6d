#include "serve/sharded_driver.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "core/policy_factory.h"
#include "serve/waterfill.h"
#include "state/fields.h"
#include "state/recovery.h"
#include "thermal/pcm.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::serve {

namespace {

constexpr ResumeCheck check{"serve snapshot"};

/**
 * The serving driver's metric/phase handles, resolved once per run.
 * Everything under `serve.` is deterministic; the placement-latency
 * histogram is wall-clock derived and therefore lives under
 * `profile.` (exempt from the determinism contract).
 */
struct ServeObs
{
    obs::PhaseId phaseDepartures;
    obs::PhaseId phaseFeed;
    obs::PhaseId phaseAdmit;
    obs::PhaseId phasePlace;
    obs::PhaseId phaseThermal;
    obs::PhaseId phaseCheckpoint;
    obs::CounterHandle intervals;
    obs::CounterHandle arrivals;
    obs::CounterHandle admitted;
    obs::CounterHandle shed;
    obs::CounterHandle requeued;
    obs::CounterHandle placed;
    obs::CounterHandle dropped;
    obs::CounterHandle completed;
    obs::GaugeHandle queueDepth;
    obs::GaugeHandle inFlight;
    obs::GaugeHandle coolingLoad;
    obs::GaugeHandle totalPower;
    obs::GaugeHandle meanAirTemp;
    obs::GaugeHandle meltFraction;
    obs::GaugeHandle peakCoolingLoad;
    obs::GaugeHandle peakPower;
    obs::GaugeHandle maxAirTemp;
    obs::HistogramHandle placementSeconds;

    /** Degraded-mode handles; registered only when the fault /
     *  brownout / deadline machinery is configured, so a clean run's
     *  metric surface is unchanged. */
    obs::CounterHandle evacuated;
    obs::CounterHandle migrated;
    obs::CounterHandle lost;
    obs::CounterHandle expired;
    obs::CounterHandle checkpointFailures;
    obs::GaugeHandle failedServers;
    obs::GaugeHandle quarantinedServers;
    obs::GaugeHandle brownoutLevel;
    obs::GaugeHandle supplyRise;

    void registerAll(obs::Observability &o)
    {
        obs::PhaseProfiler &prof = o.profiler();
        phaseDepartures = prof.phase("serve.departures");
        phaseFeed = prof.phase("serve.feed");
        phaseAdmit = prof.phase("serve.admit");
        phasePlace = prof.phase("serve.place");
        phaseThermal = prof.phase("serve.thermal");
        phaseCheckpoint = prof.phase("serve.checkpoint");

        obs::MetricsRegistry &m = o.metrics();
        intervals = m.counter("serve.intervals_total",
                              "Serving intervals completed");
        arrivals = m.counter("serve.arrivals_total",
                             "Jobs pulled from the feed");
        admitted = m.counter("serve.admitted_total",
                             "Jobs admitted and routed to a shard");
        shed = m.counter("serve.shed_total",
                         "Jobs shed by admission control");
        requeued = m.counter(
            "serve.requeued_total",
            "Jobs bounced off a full fleet back into the ring");
        placed = m.counter("serve.placed_total",
                           "Jobs placed on a server");
        dropped = m.counter("serve.dropped_total",
                            "Admitted jobs no shard could place");
        completed = m.counter("serve.completed_total",
                              "Jobs that ran to completion");
        queueDepth = m.gauge("serve.queue_depth",
                             "Ingress ring depth after admission");
        inFlight = m.gauge("serve.in_flight",
                           "Jobs currently running fleet-wide");
        coolingLoad =
            m.gauge("serve.cooling_load_watts",
                    "Fleet cooling load of the last interval (W)");
        totalPower = m.gauge("serve.total_power_watts",
                             "Fleet electrical power (W)");
        meanAirTemp = m.gauge("serve.mean_air_temp_celsius",
                              "Mean air-at-wax temperature (C)");
        meltFraction = m.gauge("serve.melt_fraction",
                               "Mean ground-truth melt fraction");
        peakCoolingLoad =
            m.gauge("serve.peak_cooling_load_watts",
                    "Peak fleet cooling load, set at end of run");
        peakPower = m.gauge("serve.peak_power_watts",
                            "Peak fleet power, set at end of run");
        maxAirTemp =
            m.gauge("serve.max_air_temp_celsius",
                    "Hottest air temperature seen across the run");
        placementSeconds = m.histogram(
            "profile.serve.placement_seconds",
            {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0},
            "Wall time of the per-interval placement fan-out (s)");
    }

    void registerDegraded(obs::Observability &o)
    {
        obs::MetricsRegistry &m = o.metrics();
        evacuated =
            m.counter("serve.evacuated_total",
                      "Jobs drained off newly failed servers");
        migrated = m.counter(
            "serve.migrated_total",
            "Evacuated jobs re-placed on a surviving server");
        lost = m.counter("serve.lost_total",
                         "Evacuated jobs shed after re-route "
                         "retries");
        expired = m.counter(
            "serve.expired_total",
            "Queued arrivals shed by the queue-age deadline");
        checkpointFailures = m.counter(
            "serve.checkpoint_failures_total",
            "Checkpoint writes that failed (run continued)");
        failedServers = m.gauge("serve.failed_servers",
                                "Servers currently down");
        quarantinedServers =
            m.gauge("serve.quarantined_servers",
                    "Servers in thermal-emergency quarantine");
        brownoutLevel = m.gauge("serve.brownout_level",
                                "Current brownout step level");
        supplyRise = m.gauge("serve.supply_rise_kelvin",
                             "Cooling-derate supply-air rise (K)");
    }
};

} // namespace

AdmitPolicy
admitPolicyFromString(const std::string &name)
{
    if (name == "queue")
        return AdmitPolicy::Queue;
    if (name == "shed")
        return AdmitPolicy::Shed;
    fatal("unknown admission policy '" + name + "' (queue|shed)");
}

const char *
admitPolicyName(AdmitPolicy policy)
{
    return policy == AdmitPolicy::Queue ? "queue" : "shed";
}

ShardedDriver::Totals
ShardedDriver::Totals::since(const Totals &earlier) const
{
    return {arrivals - earlier.arrivals,   admitted - earlier.admitted,
            shed - earlier.shed,           requeued - earlier.requeued,
            placed - earlier.placed,       dropped - earlier.dropped,
            completed - earlier.completed, evacuated - earlier.evacuated,
            migrated - earlier.migrated,   lost - earlier.lost,
            expired - earlier.expired};
}

ShardedDriver::Shard::Shard(std::size_t num_servers,
                            const ServeConfig &config,
                            const PowerModel &power)
    : policy(makeScheduler(config.policy, config.gv,
                           config.waxThreshold)),
      pod(Cluster(num_servers, config.spec, config.thermal, power),
          *policy, config.interval)
{}

ShardedDriver::ShardedDriver(const ServeConfig &config)
    : config_(config), power_(config.spec, config.powerScale),
      ingress_(config.queueCapacity), degraded_(config.degraded())
{
    if (config.numServers == 0)
        fatal("ServeConfig::numServers must be positive");
    if (config.podSize == 0)
        fatal("ServeConfig::podSize must be positive");
    if (config.interval <= 0.0)
        fatal("ServeConfig::interval must be positive");
    if (config.maxQueueAge < 0.0)
        fatal("ServeConfig::maxQueueAge must be non-negative");
    // Plan targets are fleet-global; validate here because the
    // per-shard slices silently drop out-of-range ids.
    for (const FaultEvent &event : config.faults.plan.events()) {
        if ((event.type == FaultEventType::ServerDown ||
             event.type == FaultEventType::ServerUp) &&
            event.serverId >= config.numServers)
            fatal("fault plan targets server " +
                  std::to_string(event.serverId) +
                  " but the serving fleet has " +
                  std::to_string(config.numServers) + " servers");
    }
    const std::size_t count =
        (config.numServers + config.podSize - 1) / config.podSize;
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        const std::size_t first = s * config.podSize;
        const std::size_t size =
            std::min(config.podSize, config.numServers - first);
        shards_.emplace_back(size, config_, power_);
        totalCores_ += shards_.back().pod.cluster.totalCores();
        if (config_.faults.enabled()) {
            // One engine per pod: the global plan sliced to the
            // pod's id range, and a decorrelated Rng stream per
            // shard (splitmix64 seed expansion makes seed + s
            // streams independent) so stochastic draws stay
            // identical regardless of the pod a server landed in
            // being stepped before or after its neighbours.
            FaultConfig local = config_.faults;
            local.plan = config_.faults.plan.shardSlice(first, size);
            local.seed = config_.faults.seed + s;
            shards_.back().pod.faults.emplace(local, size);
        }
    }
    if (config_.brownout.enabled())
        brownout_.emplace(config_.brownout);
    freeEst_.resize(shards_.size(), 0);
}

std::size_t
ShardedDriver::faultPhase(Shard &shard, Seconds now)
{
    Pod &pod = shard.pod;
    shard.migratedThisInterval = 0;

    std::vector<std::size_t> evacuating;
    if (pod.faults) {
        evacuating = pod.faults->beginInterval(pod.cluster, now,
                                               config_.interval);
        // A cooling derate hits the whole plant; push the supply
        // rise into this pod's inlets only when it changed (the
        // CLUS snapshot section restores the applied value, so the
        // latch survives resume).
        pod.pushSupplyRise(config_.thermal.inletTemp);
    }

    // Refresh policy state before draining, mirroring the batch
    // driver: a Failed server reports no capacity regardless of its
    // residual bookkeeping, and placement reads only frozen heap
    // keys, thermal state and live capacity.
    pod.scheduler.beginInterval(pod.cluster, now);

    // Drain every job resident on a newly failed server into the
    // refugee list; each refugee keeps its departure bucket, so a
    // migrated job finishes in the interval it would have.
    pod.evacuate(evacuating);

    // Routing capacity for refugees and admissions: free cores on Up
    // servers only — totalCores - busyCores would credit dead and
    // quarantined capacity and starve surviving pods.
    const Cluster &cluster = pod.cluster;
    std::size_t free = 0;
    for (std::size_t id = 0; id < cluster.numServers(); ++id) {
        const Server &srv = cluster.server(id);
        if (srv.health() == ServerHealth::Up)
            free += srv.freeCores();
    }
    return free;
}

void
ShardedDriver::placeEvac(Shard &shard, std::span<const std::size_t> routed,
                         const std::vector<WorkloadType> &types,
                         const std::vector<Seconds> &dues)
{
    Pod &pod = shard.pod;
    pod.refugees.clear();
    shard.evacFailed.clear();
    if (routed.empty())
        return;
    pod.refugees.reserve(routed.size());
    for (const std::size_t j : routed)
        pod.refugees.push_back(Job{0, types[j], 0.0});
    pod.place(pod.refugees);
    shard.migratedThisInterval += pod.file(
        pod.refugees, [&](std::size_t k) { return dues[routed[k]]; });
    for (std::size_t k = 0; k < routed.size(); ++k)
        if (pod.placements[k] == kNoServer)
            shard.evacFailed.push_back(routed[k]);
}

void
ShardedDriver::evacuateRefugees()
{
    // Gather this interval's refugees in shard order (determinism:
    // the drain order inside each shard is fixed, and shard order
    // fixes the cross-shard order).
    std::size_t refugees = 0;
    for (const Shard &shard : shards_)
        refugees += shard.pod.refugees.size();
    std::vector<WorkloadType> types;
    std::vector<Seconds> dues;
    types.reserve(refugees);
    dues.reserve(refugees);
    for (const Shard &shard : shards_) {
        for (const Job &job : shard.pod.refugees)
            types.push_back(job.type);
        dues.insert(dues.end(), shard.pod.dues.begin(),
                    shard.pod.dues.end());
        totals_.evacuated += shard.pod.refugees.size();
    }
    if (types.empty())
        return;

    ThreadPool &pool = globalPool();
    std::vector<WorkloadType> nextTypes;
    std::vector<Seconds> nextDues;
    // Shard s places routed[start[s] .. start[s + 1]): the indices,
    // in routing order, of the refugees the waterfill gave it.
    std::vector<std::size_t> routed;
    std::vector<std::size_t> start(shards_.size() + 1);
    for (std::size_t round = 0;
         round <= config_.evacRetries && !types.empty(); ++round) {
        // Waterfill the refugees over the surviving capacity
        // estimates. Estimates are never re-credited after a failed
        // placement, so the retry loop cannot ping-pong a job
        // between two shards that both refuse it. A first pass on a
        // copy of the estimates, emitting nothing, gives each shard's
        // share (what its estimate drops by), so the second writes
        // each refugee's index straight into its shard's slice.
        std::vector<std::size_t> left = freeEst_;
        waterfill(left, types.size(), [](std::size_t) {});
        for (std::size_t s = 0; s < shards_.size(); ++s)
            start[s + 1] = start[s] + (freeEst_[s] - left[s]);
        routed.resize(start.back());
        std::vector<std::size_t> fill(start.begin(), start.end() - 1);
        std::size_t next = 0;
        const std::size_t assigned =
            waterfill(freeEst_, types.size(),
                      [&](std::size_t s) { routed[fill[s]++] = next++; });
        // Every shard is out of estimated capacity past `assigned`;
        // those refugees go straight to the next round.
        nextTypes.assign(types.begin() +
                             static_cast<std::ptrdiff_t>(assigned),
                         types.end());
        nextDues.assign(dues.begin() +
                            static_cast<std::ptrdiff_t>(assigned),
                        dues.end());
        if (assigned == 0)
            break;

        parallelFor(pool, 0, shards_.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                        for (std::size_t s = begin; s < end; ++s)
                            placeEvac(shards_[s],
                                      std::span<const std::size_t>(
                                          routed.data() + start[s],
                                          start[s + 1] - start[s]),
                                      types, dues);
                    });

        // Collect this round's placement failures (shard order) for
        // the next round.
        for (const Shard &shard : shards_) {
            for (const std::size_t j : shard.evacFailed) {
                nextTypes.push_back(types[j]);
                nextDues.push_back(dues[j]);
            }
        }
        types.swap(nextTypes);
        dues.swap(nextDues);
    }

    // Out of retries (or capacity): the stragglers are lost. Their
    // departure records left the ring with the evacuation.
    totals_.lost += types.size();
    for (Shard &shard : shards_)
        totals_.migrated += shard.migratedThisInterval;
}

void
ShardedDriver::admit(Seconds now)
{
    // Brownout steps the effective budget down before the pop.
    std::size_t budget = config_.admissionBudget;
    if (brownout_) {
        budget = brownout_->effectiveBudget(config_.admissionBudget,
                                            totalCores_);
        if (brownout_->level() > 0)
            ++brownoutIntervals_;
    }
    // The queue-age deadline sheds stale arrivals at the pop without
    // charging them against the budget. The ring is not time-sorted
    // once re-queues happen, so it checks every popped entry.
    if (config_.maxQueueAge > 0.0)
        totals_.expired +=
            ingress_.dropExpired(now - config_.maxQueueAge, budget);

    // Pop the budget's worth (all of it without one) and route it to
    // shards by a deterministic waterfill over the post-evacuation
    // schedulable-free estimates, which do not count failed servers'
    // cores.
    const std::size_t depth = ingress_.size();
    const std::size_t take = budget > 0 ? std::min(budget, depth) : depth;
    std::size_t next = 0;
    const std::size_t routed =
        waterfill(freeEst_, take, [&](std::size_t s) {
            const FeedJob &job = ingress_.at(next++);
            shards_[s].batch.push_back(
                Job{nextJobId_++, job.type, job.duration});
        });
    ingress_.pop(routed);
    totals_.admitted += routed;

    // What the fleet cannot hold re-queues behind the entries the pop
    // left (queue policy), or sheds with the rest of the ring (shed
    // policy: backlog never carries across intervals).
    if (config_.admit == AdmitPolicy::Shed) {
        totals_.shed += ingress_.clear();
        return;
    }
    if (take < depth)
        ingress_.rotate(take - routed);
    totals_.requeued += take - routed;
}

ServeResult
ShardedDriver::run(JobFeed &feed,
                   const std::function<bool()> &shouldStop)
{
    if (ran_)
        fatal("ShardedDriver::run may only be called once per "
              "driver");
    ran_ = true;

    ServeResult result;
    result.schedulerName = shards_.front().pod.scheduler.name();
    result.shards = shards_.size();
    result.degraded = degraded_;

    // Register the metrics before a resume restores their values.
    obs::Observability *const o = config_.obs;
    ServeObs sobs;
    obs::PhaseProfiler *prof = nullptr;
    if (o) {
        sobs.registerAll(*o);
        if (degraded_)
            sobs.registerDegraded(*o);
        prof = &o->profiler();
        o->beginRun(result.schedulerName, config_.numServers,
                    config_.maxIntervals, config_.interval);
    }

    std::size_t completed = 0;
    if (!config_.resumeFrom.empty())
        completed = loadCheckpoint(feed, config_.resumeFrom);
    result.resumedIntervals = completed;
    if (config_.maxIntervals > 0 && completed > config_.maxIntervals)
        fatal("serve snapshot has more completed intervals than the "
              "configured run length");

    std::ofstream telemetry_out;
    if (!config_.telemetryOut.empty()) {
        telemetry_out.open(config_.telemetryOut, std::ios::app);
        if (!telemetry_out)
            fatal("cannot open serve telemetry stream '" +
                  config_.telemetryOut + "'");
    }
    const bool timing =
        o != nullptr || config_.recordPlacementLatency;

    // Serving-mode checkpoints go through the crash-recovery layer:
    // rotation keeps the previous generation, and a failed write is
    // counted and retried next period instead of killing the run.
    std::optional<RecoveryManager> recovery;
    if (config_.checkpointEvery > 0)
        recovery.emplace(config_.checkpointPath);
    const auto checkpoint = [&](std::size_t done) {
        obs::ScopedPhase timer(prof, sobs.phaseCheckpoint);
        SnapshotWriter writer;
        buildCheckpoint(writer, feed, done);
        if (recovery->save(writer))
            return true;
        warn("serve: checkpoint save failed (" +
             recovery->lastError() +
             "); keeping the last good snapshot and retrying next "
             "period");
        if (o && degraded_)
            o->metrics().inc(sobs.checkpointFailures);
        return false;
    };

    ThreadPool &pool = globalPool();
    const Seconds dt = config_.interval;
    std::string line;

    // Totals as of the last recorded interval, so the telemetry line
    // carries per-interval deltas (restored totals on resume).
    Totals prev = totals_;

    for (std::size_t interval = completed;; ++interval) {
        if (config_.maxIntervals > 0 &&
            interval >= config_.maxIntervals)
            break;
        if (shouldStop && shouldStop()) {
            result.stopped = true;
            break;
        }
        const Seconds now = static_cast<double>(interval) * dt;

        // 1. Complete departures due by now, one task per shard —
        // shards share no mutable state, and the serial reductions
        // below run in shard order, so results are bitwise identical
        // at any thread count. The per-shard boundary work (engine
        // step, supply-rise push, policy refresh, refugee drain,
        // capacity estimate) joins the same fan-out.
        {
            obs::ScopedPhase timer(prof, sobs.phaseDepartures);
            parallelFor(pool, 0, shards_.size(), 1,
                        [&](std::size_t begin, std::size_t end) {
                            for (std::size_t s = begin; s < end; ++s) {
                                Shard &shard = shards_[s];
                                shard.placedThisInterval = 0;
                                shard.unplacedThisInterval = 0;
                                shard.batch.clear();
                                shard.completedThisInterval =
                                    shard.pod.drain(now);
                                freeEst_[s] = faultPhase(shard, now);
                            }
                        });
        }

        // 1b. Cross-shard migration of evacuated jobs: waterfill
        // refugees over surviving capacity, place in parallel
        // batches, retry the failures a bounded number of rounds,
        // shed the rest. Admission routes over what they leave.
        evacuateRefugees();

        // 2. Ingest the feed's arrivals due before the next boundary
        // into the bounded ring; overflow is shed, not queued.
        {
            obs::ScopedPhase timer(prof, sobs.phaseFeed);
            feedBuf_.clear();
            feed.arrivalsUntil(now + dt, feedBuf_);
        }
        {
            obs::ScopedPhase timer(prof, sobs.phaseAdmit);
            totals_.arrivals += feedBuf_.size();
            totals_.shed += feedBuf_.size() - ingress_.pushAll(feedBuf_);
            peakQueueDepth_ =
                std::max(peakQueueDepth_, ingress_.size());

            // 3. Admission: pop, route, re-queue or shed.
            admit(now);
        }

        // 4. Per-shard batched placement. One batch call decides (and
        // applies) every placement; the departure records filed after
        // it are driver-local and cannot influence decisions.
        const auto place_start =
            timing ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{};
        {
            obs::ScopedPhase timer(prof, sobs.phasePlace);
            parallelFor(
                pool, 0, shards_.size(), 1,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t s = begin; s < end; ++s) {
                        Shard &shard = shards_[s];
                        if (shard.batch.empty())
                            continue;
                        shard.pod.place(shard.batch);
                        shard.placedThisInterval = shard.pod.file(
                            shard.batch, [&](std::size_t k) {
                                return now + shard.batch[k].duration;
                            });
                        shard.unplacedThisInterval =
                            shard.batch.size() - shard.placedThisInterval;
                    }
                });
        }
        if (timing) {
            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - place_start)
                    .count();
            if (o)
                o->metrics().observe(sobs.placementSeconds, seconds);
            if (config_.recordPlacementLatency)
                result.placementSeconds.push_back(seconds);
        }

        // 5. Per-shard thermal step, then the serial shard-order
        // reduction.
        {
            obs::ScopedPhase timer(prof, sobs.phaseThermal);
            parallelFor(pool, 0, shards_.size(), 1,
                        [&](std::size_t begin, std::size_t end) {
                            for (std::size_t s = begin; s < end; ++s)
                                shards_[s].sample =
                                    shards_[s].pod.cluster.stepThermal(
                                        dt, config_.overheatTemp);
                        });
        }

        Watts cooling = 0.0;
        Watts power = 0.0;
        Celsius max_air = 0.0;
        double mean_air_weighted = 0.0;
        double melt_weighted = 0.0;
        double max_shard_melt = 0.0;
        std::size_t in_flight = 0;
        std::size_t hot_group = 0;
        std::size_t failed_servers = 0;
        std::size_t quarantined_servers = 0;
        for (const Shard &shard : shards_) {
            const ClusterSample &sample = shard.sample;
            const Cluster &cluster = shard.pod.cluster;
            const auto servers =
                static_cast<double>(cluster.numServers());
            cooling += sample.coolingLoad;
            power += sample.totalPower;
            max_air = std::max(max_air, sample.maxAirTemp);
            mean_air_weighted += sample.meanAirTemp * servers;
            melt_weighted += sample.meanMeltFraction * servers;
            max_shard_melt =
                std::max(max_shard_melt, sample.meanMeltFraction);
            overheated_ += sample.serversAboveThreshold;
            in_flight += cluster.busyCores();
            totals_.placed += shard.placedThisInterval;
            totals_.dropped += shard.unplacedThisInterval;
            totals_.completed += shard.completedThisInterval;
            hot_group += shard.pod.scheduler.hotGroupSize().value_or(0);
            failed_servers +=
                cluster.numServers() - cluster.aliveServers();
            if (shard.pod.faults)
                quarantined_servers +=
                    shard.pod.faults->quarantinedServers();
        }
        const auto total_servers =
            static_cast<double>(config_.numServers);
        const Celsius mean_air = mean_air_weighted / total_servers;
        const double melt = melt_weighted / total_servers;
        peakCoolingLoad_ = std::max(peakCoolingLoad_, cooling);
        peakPower_ = std::max(peakPower_, power);
        maxAirTemp_ = std::max(maxAirTemp_, max_air);
        maxMeltFraction_ = std::max(maxMeltFraction_, melt);

        // 5b. The brownout governor sees this interval's thermal
        // outcome; the adjusted budget binds from the next
        // admission.
        if (brownout_)
            brownout_->observe(max_air, max_shard_melt);
        const std::optional<FaultEngine> &front = shards_.front().pod.faults;
        const Kelvin supply_rise = front ? front->supplyRise() : 0.0;
        const Totals delta = totals_.since(prev);
        prev = totals_;

        // 6. Telemetry: one JSONL line per interval, a pure function
        // of simulation state (no wall clock), so a resumed run
        // reproduces the stream bitwise. Flushed per line: a killed
        // process loses at most the line being written. Degraded
        // runs append their extra fields; a clean run's line is
        // byte-identical to the pre-fault driver's.
        if (telemetry_out.is_open() || config_.keepTelemetry) {
            line = "{\"type\":\"serve\",\"interval\":" +
                   std::to_string(interval) +
                   ",\"arrivals\":" + std::to_string(delta.arrivals) +
                   ",\"admitted\":" + std::to_string(delta.admitted) +
                   ",\"shed\":" + std::to_string(delta.shed) +
                   ",\"requeued\":" + std::to_string(delta.requeued) +
                   ",\"placed\":" + std::to_string(delta.placed) +
                   ",\"dropped\":" + std::to_string(delta.dropped) +
                   ",\"completed\":" + std::to_string(delta.completed) +
                   ",\"queue\":" + std::to_string(ingress_.size()) +
                   ",\"inflight\":" + std::to_string(in_flight) +
                   ",\"cooling_w\":" +
                   obs::formatMetricNumber(cooling) +
                   ",\"power_w\":" + obs::formatMetricNumber(power) +
                   ",\"mean_air_c\":" +
                   obs::formatMetricNumber(mean_air) +
                   ",\"max_air_c\":" +
                   obs::formatMetricNumber(max_air) +
                   ",\"melt\":" + obs::formatMetricNumber(melt);
            if (degraded_) {
                line +=
                    ",\"failed\":" + std::to_string(failed_servers) +
                    ",\"quarantined\":" +
                    std::to_string(quarantined_servers) +
                    ",\"evacuated\":" + std::to_string(delta.evacuated) +
                    ",\"migrated\":" + std::to_string(delta.migrated) +
                    ",\"lost\":" + std::to_string(delta.lost) +
                    ",\"expired\":" + std::to_string(delta.expired) +
                    ",\"supply_rise_k\":" +
                    obs::formatMetricNumber(supply_rise) +
                    ",\"brownout\":" +
                    std::to_string(brownout_ ? brownout_->level()
                                             : 0);
            }
            line += ",\"melt_by_shard\":[";
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                if (s > 0)
                    line += ',';
                line += obs::formatMetricNumber(
                    shards_[s].sample.meanMeltFraction);
            }
            line += "]}\n";
            if (telemetry_out.is_open())
                telemetry_out << line << std::flush;
            if (config_.keepTelemetry)
                result.telemetry += line;
        }

        if (o) {
            obs::MetricsRegistry &m = o->metrics();
            m.inc(sobs.intervals);
            m.inc(sobs.arrivals, delta.arrivals);
            m.inc(sobs.admitted, delta.admitted);
            m.inc(sobs.shed, delta.shed);
            m.inc(sobs.requeued, delta.requeued);
            m.inc(sobs.placed, delta.placed);
            m.inc(sobs.dropped, delta.dropped);
            m.inc(sobs.completed, delta.completed);
            m.set(sobs.queueDepth,
                  static_cast<double>(ingress_.size()));
            m.set(sobs.inFlight, static_cast<double>(in_flight));
            m.set(sobs.coolingLoad, cooling);
            m.set(sobs.totalPower, power);
            m.set(sobs.meanAirTemp, mean_air);
            m.set(sobs.meltFraction, melt);
            if (degraded_) {
                m.inc(sobs.evacuated, delta.evacuated);
                m.inc(sobs.migrated, delta.migrated);
                m.inc(sobs.lost, delta.lost);
                m.inc(sobs.expired, delta.expired);
                m.set(sobs.failedServers,
                      static_cast<double>(failed_servers));
                m.set(sobs.quarantinedServers,
                      static_cast<double>(quarantined_servers));
                m.set(sobs.brownoutLevel,
                      static_cast<double>(
                          brownout_ ? brownout_->level() : 0));
                m.set(sobs.supplyRise, supply_rise);
            }

            obs::IntervalSample telem;
            telem.interval = interval;
            telem.coolingLoad = cooling;
            telem.maxAirTemp = max_air;
            telem.meanAirTemp = mean_air;
            telem.hotGroupSize = static_cast<double>(hot_group);
            telem.meltFraction = melt;
            // Mirrors the batch driver's naming: evacuatedJobs are
            // the successfully re-placed refugees.
            telem.evacuatedJobs = delta.migrated;
            telem.lostJobs = delta.shed + delta.lost + delta.expired;
            o->telemetry().record(telem);
        }

        completed = interval + 1;

        // 7. Periodic checkpoint (the final one below covers the
        // exit boundary).
        if (config_.checkpointEvery > 0 &&
            completed % config_.checkpointEvery == 0)
            checkpoint(completed);

        // 8. Natural end: a finished feed, an empty ring and nothing
        // in flight — the serving loop has drained.
        if (feed.exhausted() && ingress_.empty() && in_flight == 0) {
            result.feedExhausted = true;
            break;
        }
    }

    // Drain to a final checkpoint: kill/restore (SIGINT, SIGTERM or
    // an interval cap) resumes from this boundary bitwise.
    if (config_.checkpointEvery > 0) {
        if (checkpoint(completed))
            result.finalCheckpoint = config_.checkpointPath;
        result.checkpointFailures = recovery->failures();
    }

    result.completedIntervals = completed;
    result.arrivals = totals_.arrivals;
    result.admitted = totals_.admitted;
    result.shed = totals_.shed;
    result.requeued = totals_.requeued;
    result.placed = totals_.placed;
    result.droppedJobs = totals_.dropped;
    result.completedJobs = totals_.completed;
    result.evacuatedJobs = totals_.evacuated;
    result.migratedJobs = totals_.migrated;
    result.lostJobs = totals_.lost;
    result.expiredJobs = totals_.expired;
    result.brownoutIntervals = brownoutIntervals_;
    if (brownout_)
        result.maxBrownoutLevel = brownout_->maxLevel();
    result.finalQueueDepth = ingress_.size();
    result.peakQueueDepth = peakQueueDepth_;
    for (const Shard &shard : shards_) {
        const Cluster &cluster = shard.pod.cluster;
        result.finalInFlight += cluster.busyCores();
        result.failedServers +=
            cluster.numServers() - cluster.aliveServers();
        if (shard.pod.faults)
            result.quarantinedServers +=
                shard.pod.faults->quarantinedServers();
    }
    result.peakCoolingLoad = peakCoolingLoad_;
    result.peakPower = peakPower_;
    result.maxAirTemp = maxAirTemp_;
    result.maxMeltFraction = maxMeltFraction_;
    result.overheatedServerIntervals = overheated_;

    if (o) {
        obs::MetricsRegistry &m = o->metrics();
        m.set(sobs.peakCoolingLoad, peakCoolingLoad_);
        m.set(sobs.peakPower, peakPower_);
        m.set(sobs.maxAirTemp, maxAirTemp_);
        o->endRun();
    }
    return result;
}

namespace {

/** SCON: the completed-interval count, then the reconstruction
 *  parameters, so a resume under a different configuration or feed
 *  is refused. */
template <typename IO>
void
configFields(IO &io, const ServeConfig &config,
             const std::string &scheduler, const std::string &feed,
             std::size_t &completed)
{
    field(io, completed);
    echo(io, "server count", config.numServers);
    echo(io, "pod size", config.podSize);
    echo(io, "interval", config.interval);
    echo(io, "seed", config.seed);
    echo(io, "power scale", config.powerScale);
    echo(io, "overheat temp", config.overheatTemp);
    echo(io, "queue capacity", config.queueCapacity);
    echo(io, "admission budget", config.admissionBudget);
    echo(io, "admission policy", config.admit, admitPolicyName);
    echo(io, "scheduler", scheduler);
    echo(io, "grouping value", config.gv);
    echo(io, "wax threshold", config.waxThreshold);
    echo(io, "PCM integrator", kClosedFormIntegratorTag,
         integratorTagName);
    echo(io, "feed", feed);
}

} // namespace

/** INGR: the ring contents plus the cumulative accounting, so totals
 *  (and the telemetry deltas derived from them) survive a resume. */
template <typename IO, typename Self>
void
ShardedDriver::ingressFields(IO &io, Self &self)
{
    nested(io, self.ingress_);
    field(io, self.totals_.arrivals);
    field(io, self.totals_.admitted);
    field(io, self.totals_.shed);
    field(io, self.totals_.requeued);
    field(io, self.totals_.placed);
    field(io, self.totals_.dropped);
    field(io, self.totals_.completed);
    field(io, self.nextJobId_);
    field(io, self.peakQueueDepth_);
    field(io, self.peakCoolingLoad_);
    field(io, self.peakPower_);
    field(io, self.maxAirTemp_);
    field(io, self.maxMeltFraction_);
    field(io, self.overheated_);
}

/** DGRD: the degraded-mode configuration echo, then the dynamic state:
 *  totals, the brownout governor, and each shard's applied supply rise
 *  and fault engine. */
template <typename IO, typename Self>
void
ShardedDriver::degradedFields(IO &io, Self &self)
{
    const ServeConfig &config = self.config_;
    echo(io, "fault layer enabled", config.faults.enable);
    echoFaultPlan(io, config.faults.plan);
    echoFaultParams(io, config.faults);
    const BrownoutParams &brownout = config.brownout;
    echo(io, "brownout air watermark", brownout.maxAirTemp);
    echo(io, "brownout release", brownout.release);
    echo(io, "brownout melt watermark", brownout.maxMelt);
    echo(io, "brownout melt release", brownout.meltRelease);
    echo(io, "brownout step", brownout.step);
    echo(io, "brownout floor", brownout.floor);
    echo(io, "brownout hold", brownout.holdIntervals);
    echo(io, "max queue age", config.maxQueueAge);
    echo(io, "evac retries", config.evacRetries);

    field(io, self.totals_.evacuated);
    field(io, self.totals_.migrated);
    field(io, self.totals_.lost);
    field(io, self.totals_.expired);
    field(io, self.brownoutIntervals_);
    if (self.brownout_)
        nested(io, *self.brownout_);
    for (auto &shard : self.shards_) {
        field(io, shard.pod.appliedRise);
        if (shard.pod.faults)
            nested(io, *shard.pod.faults, shard.pod.cluster);
    }
}

void
ShardedDriver::buildCheckpoint(SnapshotWriter &writer,
                               const JobFeed &feed,
                               std::size_t completed) const
{
    configFields(writer.section("SCON"), config_,
                 shards_.front().pod.scheduler.name(), feed.name(),
                 completed);
    feed.saveState(writer.section("FEED"));
    ingressFields(writer.section("INGR"), *this);

    // SHRD: the full shard map — per shard, the cluster, the policy
    // and the departure ring (format v3: 4 B per running job).
    Serializer &shrd = writer.section("SHRD");
    shrd.putSize(shards_.size());
    for (const Shard &shard : shards_) {
        shard.pod.cluster.saveState(shrd);
        shard.pod.scheduler.saveState(shrd);
        shard.pod.departures.saveState(shrd);
    }

    // DGRD only when the degraded machinery is configured, and OBSV
    // only when observability is attached, so a clean, uninstrumented
    // run's snapshot keeps its section set (and old clean checkpoints
    // remain loadable).
    if (degraded_)
        degradedFields(writer.section("DGRD"), *this);
    if (config_.obs)
        config_.obs->saveState(writer.section("OBSV"));
}

std::size_t
ShardedDriver::loadCheckpoint(JobFeed &feed, const std::string &path)
{
    // Startup recovery: scan the retained generations (path, then
    // path.prev) and fall back past a corrupt or truncated newest
    // file instead of dying on it.
    RecoveredSnapshot recovered = recoverSnapshot(path);
    const SnapshotReader &reader = recovered.reader;

    std::size_t completed = 0;
    restoreSection(reader, check, "SCON", [&](Restore &io) {
        configFields(io, config_, shards_.front().pod.scheduler.name(),
                     feed.name(), completed);
    });
    restoreSection(reader, check, "FEED",
                   [&](Restore &io) { nested(io, feed); });
    restoreSection(reader, check, "INGR",
                   [&](Restore &io) { ingressFields(io, *this); });

    Deserializer shrd = reader.section("SHRD");
    check.u64("shard count", shrd.getSize(), shards_.size());
    const Seconds resume_time =
        static_cast<double>(completed) * config_.interval;
    for (Shard &shard : shards_) {
        shard.pod.cluster.loadState(shrd);
        shard.pod.scheduler.loadState(shrd);
        // The next drain is the resume boundary; a v1/v2 slot ledger
        // converts to records.
        shard.pod.loadLedger(shrd, reader.version(), resume_time);
        shard.pod.checkLedger();
    }
    shrd.expectEnd();

    // DGRD must be present exactly when the run is degraded: a
    // degraded run cannot resume a clean snapshot (the fault state
    // is missing) and vice versa.
    if (degraded_ != reader.has("DGRD")) {
        if (degraded_)
            check.fail("snapshot carries no degraded-mode state but "
                       "the run configures faults/brownout/deadline");
        check.fail("snapshot carries degraded-mode state but the run "
                   "configures none");
    }
    if (degraded_)
        restoreSection(reader, check, "DGRD",
                       [&](Restore &io) { degradedFields(io, *this); });
    if (config_.obs)
        config_.obs->restoreState(reader, completed);
    return completed;
}

} // namespace vmt::serve
