/**
 * @file
 * Placement decisions pinned to the per-object reference engine
 * (DESIGN.md §14). Two tiers:
 *
 *  - Churn streams: one cluster + scheduler per policy runs a seeded
 *    stream of mutations (job churn, health flips with fault-style
 *    drains, per-server and global inlet shifts, thermal steps of
 *    varying length) with a batch and a single placement per step.
 *    Every decision, and the final cluster and scheduler snapshot
 *    bytes, must hash to the recorded digests.
 *  - Whole simulations: every policy on a faulted 20-server run with
 *    a migration budget must reproduce its recorded SimResult digest
 *    at threads 1 and 4.
 *  - Batch runs (DESIGN.md §14): the policies' placeJobs overrides
 *    against a per-job replay through the Scheduler::placeJobs
 *    default, on a type-major churn stream and on whole 300-server
 *    simulations, fault-free and under an outage; VMT-WA's also on a
 *    serving-shaped stream (types in runs of one or two, cores freed
 *    between two calls of one interval), where it skips cascade
 *    step (3) once a sweep of it has failed.
 *
 * The expected values are FNV-1a digests (tests/reference/digest.h)
 * recorded by running these exact streams and simulations under the
 * retired runtime-selectable per-object placement engine and scalar
 * thermal kernel (threads 1), before both were removed from src/.
 * A digest match is a bitwise match of every decision and byte. The
 * whole-simulation digests were re-recorded when the departure ring
 * replaced the per-job slot ledger: its evacuation and migration
 * rule (DESIGN.md §11, §16) moves other jobs than the slot ledger
 * did, while every series still matches the earlier recording
 * through the first evacuation or migration interval.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/adaptive_vmt.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "reference/digest.h"
#include "sched/coolest_first.h"
#include "sched/round_robin.h"
#include "sched/switchover.h"
#include "sim/simulation.h"
#include "state/serializer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

using reference::Digest;
using reference::digestBytes;
using reference::digestResult;

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

constexpr std::size_t kServers = 48;
constexpr std::size_t kSteps = 5000;

/** Drain every job off a server through the cluster bookkeeping (what
 *  the fault driver does before marking it Failed). */
void
drainServer(Cluster &c, std::size_t id)
{
    for (const WorkloadType type : kAllWorkloads) {
        const std::size_t idx = workloadIndex(type);
        while (std::as_const(c).server(id).coreCounts()[idx] > 0)
            c.removeJob(id, type);
    }
}

/**
 * One randomized mutation. Placements themselves go through the
 * schedulers below — this stream only provides churn, thermal drift
 * and health chaos.
 */
void
mutate(Rng &rng, Cluster &c)
{
    const Cluster &ref = c;
    const std::uint64_t roll = rng.below(100);
    const std::size_t id = rng.below(kServers);
    if (roll < 35) {
        // Departure churn: free cores so groups go stale mid-interval
        // and wax refreezes.
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t idx = workloadIndex(type);
            if (ref.server(id).coreCounts()[idx] > 0) {
                c.removeJob(id, type);
                break;
            }
        }
    } else if (roll < 55) {
        // Per-server inlet shift (recirculation modelling).
        c.setBaseInlet(id, rng.uniform(16.0, 40.0));
    } else if (roll < 70) {
        // Global inlet swing spanning freeze<->melt regimes.
        c.setBaseInlet(rng.uniform(14.0, 42.0));
    } else {
        // Health transition: Up -> Failed (drained first, like the
        // fault driver) or Up -> Quarantined, and back Up.
        const ServerHealth cur = ref.server(id).health();
        ServerHealth next = ServerHealth::Up;
        if (cur == ServerHealth::Up)
            next = rng.uniform() < 0.5 ? ServerHealth::Failed
                                       : ServerHealth::Quarantined;
        if (next == ServerHealth::Failed)
            drainServer(c, id);
        c.setHealth(id, next);
    }
}

/** Digests of one churn stream. */
struct StreamDigest
{
    std::uint64_t decisions;
    std::uint64_t cluster;
    std::uint64_t scheduler;
};

template <typename MakeSched>
void
expectStream(MakeSched make, std::uint64_t seed,
             const StreamDigest &expected, std::size_t steps = kSteps)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster(kServers, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.0));
    auto sched = make();

    Rng rng(seed);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    std::vector<Job> batch;
    std::vector<std::size_t> out;
    Digest decisions;
    Seconds now = 0.0;
    for (std::size_t step = 0; step < steps; ++step) {
        // Background churn between intervals (1-3 mutations).
        const std::size_t churn = 1 + rng.below(3);
        for (std::size_t k = 0; k < churn; ++k)
            mutate(rng, cluster);

        sched.beginInterval(cluster, now);

        // An arrival batch through the batch API (the driver's path).
        batch.clear();
        const std::size_t arrivals = rng.below(6);
        for (std::size_t k = 0; k < arrivals; ++k)
            batch.push_back(Job{
                step, kAllWorkloads[rng.below(kNumWorkloads)], 0.0});
        sched.placeJobs(cluster, batch, out);
        decisions.addU64(out.size());
        for (const std::size_t id : out)
            decisions.addU64(id);

        // Plus a single-job placement (the legacy path stays wired).
        const Job single{step, kAllWorkloads[rng.below(kNumWorkloads)],
                         0.0};
        const std::size_t id = sched.placeJob(cluster, single);
        decisions.addU64(id);
        if (id != kNoServer)
            cluster.addJob(id, single.type);

        const Seconds dt = dts[rng.below(3)];
        cluster.stepThermal(dt, 38.0);
        now += dt;
    }

    Serializer cluster_bytes;
    cluster.saveState(cluster_bytes);
    Serializer sched_bytes;
    sched.saveState(sched_bytes);
    EXPECT_EQ(decisions.value(), expected.decisions);
    EXPECT_EQ(digestBytes(cluster_bytes.bytes()), expected.cluster);
    EXPECT_EQ(digestBytes(sched_bytes.bytes()), expected.scheduler);
}

/** The digest of an empty byte stream (schedulers with no state). */
constexpr std::uint64_t kNoState = 0xcbf29ce484222325ull;

TEST(PlacementLockstep, CoolestFirst)
{
    expectStream([] { return CoolestFirstScheduler(); },
                 0xC001E57F1257ull,
                 {0x259f58b023127d10ull, 0xf4e59b6e3415e03bull,
                  kNoState});
}

TEST(PlacementLockstep, VmtTa)
{
    expectStream(
        [] {
            return VmtTaScheduler(bench::studyVmt(22.0),
                                  hotMaskFromPaper());
        },
        0x7A5EEDull,
        {0x2847fb05f9a60a98ull, 0x473e0c507c312381ull, kNoState});
}

TEST(PlacementLockstep, VmtWa)
{
    expectStream(
        [] {
            return VmtWaScheduler(bench::studyVmt(22.0),
                                  hotMaskFromPaper());
        },
        0x3A5EEDull,
        {0xfa1d525b213c9bd0ull, 0x9878e445049b4662ull,
         0xf4c9880c492956c2ull});
}

TEST(PlacementLockstep, VmtPreserve)
{
    expectStream(
        [] {
            return VmtPreserveScheduler(bench::studyVmt(22.0),
                                        hotMaskFromPaper());
        },
        0x9E5EEDull,
        {0x14e9d72e2aadc189ull, 0x2cc4ceb8581e144eull, kNoState});
}

TEST(PlacementLockstep, AdaptiveVmt)
{
    // The adaptive controller re-tunes GV from interval telemetry;
    // shorter run, same contract.
    expectStream(
        [] {
            return AdaptiveVmtScheduler(bench::studyVmt(22.0),
                                        hotMaskFromPaper());
        },
        0xADA7EEDull,
        {0x862940285f4c2909ull, 0xd170f842c7f12d33ull,
         0x292b1f4dae10f047ull},
        1500);
}

// ---------------------------------------------------------------------
// Whole simulations: arrivals, departures, migrations, fault
// evacuation — at any thread count.
// ---------------------------------------------------------------------

/** Faulted study config: half an aisle drops mid-run, one repair. */
SimConfig
faultedRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    std::string text;
    for (int id = 0; id < 8; ++id)
        text += "0.05 server-down " + std::to_string(id) + "\n";
    text += "0.15 server-up 3\n";
    config.faults.plan = FaultPlan::parse(text);
    config.migrationBudget = 8;
    return config;
}

/** A policy and the delegates it borrows; the policy is last. */
struct PolicyStack
{
    std::vector<std::unique_ptr<Scheduler>> parts;
    Scheduler &policy() const { return *parts.back(); }
};

template <typename S, typename... Args>
PolicyStack
single(Args &&...args)
{
    PolicyStack stack;
    stack.parts.push_back(
        std::make_unique<S>(std::forward<Args>(args)...));
    return stack;
}

struct NamedPolicy
{
    const char *name;
    std::function<PolicyStack()> make;
    std::uint64_t digest; // faultedRun(20, 0.2)

    SimResult run(const SimConfig &config) const
    {
        const PolicyStack stack = make();
        return runSimulation(config, stack.policy());
    }
};

std::vector<NamedPolicy>
allPolicies()
{
    return {
        {"rr", [] { return single<RoundRobinScheduler>(); },
         0xe2aeb4cf7dcd64e1ull},
        {"cf", [] { return single<CoolestFirstScheduler>(); },
         0xa58de423e1af1e07ull},
        {"switchover",
         [] {
             PolicyStack stack;
             stack.parts.push_back(
                 std::make_unique<RoundRobinScheduler>());
             stack.parts.push_back(
                 std::make_unique<CoolestFirstScheduler>());
             stack.parts.push_back(std::make_unique<SwitchoverScheduler>(
                 *stack.parts[0], *stack.parts[1], 0.1 * kHour));
             return stack;
         },
         0x42b96ea55bce146cull},
        {"ta",
         [] {
             return single<VmtTaScheduler>(bench::studyVmt(22.0),
                                           hotMaskFromPaper());
         },
         0x296c41efc8547705ull},
        {"wa",
         [] {
             return single<VmtWaScheduler>(bench::studyVmt(22.0),
                                           hotMaskFromPaper());
         },
         0x68a0459ad3a0c1f6ull},
        {"preserve",
         [] {
             return single<VmtPreserveScheduler>(bench::studyVmt(22.0),
                                                 hotMaskFromPaper());
         },
         0xa0e2691bf78a9c9eull},
        {"adaptive",
         [] {
             return single<AdaptiveVmtScheduler>(bench::studyVmt(22.0),
                                                 hotMaskFromPaper());
         },
         0x151289e12db40e5aull},
    };
}

TEST(PlacementSimEquivalence, EveryPolicyFaultedBothThreadCounts)
{
    ThreadCountGuard guard;
    const SimConfig config = faultedRun(20, 0.2);
    for (const NamedPolicy &policy : allPolicies()) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(policy.name) +
                         " threads=" + std::to_string(threads));
            setGlobalThreadCount(threads);
            EXPECT_EQ(digestResult(policy.run(config)), policy.digest);
        }
    }
}

TEST(PlacementSimEquivalence, DepartureLedgerMatchesTheClusterEveryInterval)
{
    // Outages, evacuations, a repair and migrations: after every
    // interval each (server, type)'s pending departure records must
    // equal the cluster's count of such jobs, at threads 1 and 4.
    ThreadCountGuard guard;
    for (const NamedPolicy &policy : allPolicies()) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(policy.name) +
                         " threads=" + std::to_string(threads));
            setGlobalThreadCount(threads);
            SimConfig config = faultedRun(20, 0.2);
            std::size_t intervals = 0;
            std::size_t mismatches = 0;
            config.checkpointHook = [&](const SimState &state,
                                        std::size_t) {
                const Cluster &cluster = state.cluster;
                const std::vector<std::uint32_t> pending =
                    state.departures.countsByRecord();
                for (std::size_t id = 0; id < cluster.numServers();
                     ++id)
                    for (const WorkloadType type : kAllWorkloads)
                        mismatches +=
                            pending[DepartureRing::pack(id, type)] !=
                            cluster.server(id)
                                .coreCounts()[workloadIndex(type)];
                ++intervals;
            };
            const SimResult result = policy.run(config);
            EXPECT_EQ(mismatches, 0u);
            EXPECT_EQ(intervals, result.coolingLoad.size());
            EXPECT_GT(result.evacuatedJobs, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Batch runs: every policy's placeJobs against a per-job replay.
// ---------------------------------------------------------------------

/** Forwards everything except placeJobs, so batches take the per-job
 *  Scheduler::placeJobs default (placeJob + addJob per job). */
class PerJob final : public Scheduler
{
  public:
    explicit PerJob(Scheduler &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    void beginInterval(Cluster &cluster, Seconds now) override
    {
        inner_.beginInterval(cluster, now);
    }

    std::size_t placeJob(Cluster &cluster, const Job &job) override
    {
        return inner_.placeJob(cluster, job);
    }

    std::optional<std::size_t> hotGroupSize() const override
    {
        return inner_.hotGroupSize();
    }

    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override
    {
        return inner_.proposeMigrations(cluster, now);
    }

    void saveState(Serializer &out) const override
    {
        inner_.saveState(out);
    }

    void loadState(Deserializer &in) override { inner_.loadState(in); }

  private:
    Scheduler &inner_;
};

/** Everything one churn stream decides and leaves behind. */
struct BatchStream
{
    std::vector<std::size_t> decisions;
    std::vector<std::uint8_t> cluster;
    std::vector<std::uint8_t> scheduler;
    std::size_t longRuns = 0;     // runs of at least kBlock jobs
    std::size_t unplaced = 0;     // kNoServer decisions
    std::size_t hotInlets = 0;    // intervals above PMT + 0.3 C
};

/**
 * The churn stream in type-major batch mode: the 48-server fleet
 * alternates 40-step fill and drain phases (departures of a random
 * share of each chosen server's jobs), arrivals come as 1-4 runs of
 * one type each, up to 300 jobs long, and mutate() keeps the inlet,
 * health and thermal chaos (global inlets up to 42 C, past VMT-WA's
 * keep-warm point, where its keep-warm power is negative).
 */
BatchStream
runBatchStream(const NamedPolicy &named, bool per_job,
               std::uint64_t seed, std::size_t steps)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster(kServers, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.0));
    const PolicyStack stack = named.make();
    PerJob replay(stack.policy());
    Scheduler &sched =
        per_job ? static_cast<Scheduler &>(replay) : stack.policy();
    const Celsius keep_warm_inlet =
        bench::studyVmt(22.0).physicalMeltTemp + 0.3;

    BatchStream trace;
    Rng rng(seed);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    std::vector<Job> batch;
    std::vector<std::size_t> out;
    Seconds now = 0.0;
    for (std::size_t step = 0; step < steps; ++step) {
        const bool draining = (step / 40) % 2 == 1;
        for (std::size_t id = 0; id < kServers; ++id) {
            if (rng.below(draining ? 2 : 6) != 0)
                continue;
            for (const WorkloadType type : kAllWorkloads) {
                const std::size_t idx = workloadIndex(type);
                const std::size_t leave = rng.below(
                    std::as_const(cluster).server(id).coreCounts()[idx] +
                    1);
                for (std::size_t j = 0; j < leave; ++j)
                    cluster.removeJob(id, type);
            }
        }
        const std::size_t churn = 1 + rng.below(3);
        for (std::size_t k = 0; k < churn; ++k)
            mutate(rng, cluster);
        trace.hotInlets +=
            cluster.thermalParams().inletTemp > keep_warm_inlet;

        sched.beginInterval(cluster, now);

        batch.clear();
        const std::size_t runs = 1 + rng.below(4);
        for (std::size_t r = 0; r < runs; ++r) {
            const WorkloadType type =
                kAllWorkloads[rng.below(kNumWorkloads)];
            const std::size_t length =
                1 + rng.below(draining ? 60 : 300);
            trace.longRuns +=
                length >= BlockMinGroup<CoolerFirst>::kBlock;
            for (std::size_t j = 0; j < length; ++j)
                batch.push_back(Job{step, type, 0.0});
        }
        sched.placeJobs(cluster, batch, out);
        EXPECT_EQ(out.size(), batch.size());
        trace.decisions.insert(trace.decisions.end(), out.begin(),
                               out.end());
        trace.unplaced += static_cast<std::size_t>(
            std::count(out.begin(), out.end(), kNoServer));

        const Seconds dt = dts[rng.below(3)];
        cluster.stepThermal(dt, 38.0);
        now += dt;
    }
    Serializer cluster_bytes;
    cluster.saveState(cluster_bytes);
    trace.cluster = cluster_bytes.bytes();
    Serializer sched_bytes;
    sched.saveState(sched_bytes);
    trace.scheduler = sched_bytes.bytes();
    return trace;
}

/** Index of the first differing decision (the shorter size if one is
 *  a prefix of the other), for a readable failure. */
std::size_t
firstMismatch(const std::vector<std::size_t> &a,
              const std::vector<std::size_t> &b)
{
    const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(),
                                        b.end());
    return static_cast<std::size_t>(ia - a.begin());
}

TEST(PlacementBatchLockstep, TypeMajorRunsMatchAPerJobReplay)
{
    std::uint64_t seed = 0xBA7C5EEDull;
    for (const NamedPolicy &policy : allPolicies()) {
        SCOPED_TRACE(policy.name);
        ++seed;
        const BatchStream batch = runBatchStream(policy, false, seed, 1200);
        const BatchStream replay = runBatchStream(policy, true, seed, 1200);
        EXPECT_EQ(batch.decisions.size(), replay.decisions.size());
        EXPECT_EQ(firstMismatch(batch.decisions, replay.decisions),
                  batch.decisions.size());
        EXPECT_TRUE(batch.cluster == replay.cluster);
        EXPECT_TRUE(batch.scheduler == replay.scheduler);
        // The stream reaches every regime the batch path must handle.
        EXPECT_GT(batch.longRuns, 1000u);
        EXPECT_GT(batch.unplaced, 0u);
        EXPECT_GT(batch.hotInlets, 0u);
    }
}

/**
 * Hot jobs of one VMT-WA placeJobs call that its cascade step (4)
 * decided: kNoServer, or a melted server outside the hot group (steps
 * (0)-(2) place inside the group, step (3) only on unmelted servers).
 * Every such job found step (3) exhausted; two in one call mean the
 * later one skipped the scan.
 */
std::size_t
stepFourHotJobs(const Cluster &cluster, const Scheduler &wa,
                std::span<const Job> jobs,
                const std::vector<std::size_t> &out)
{
    const HotMask hot = hotMaskFromPaper();
    const double threshold = bench::studyVmt(22.0).waxThreshold;
    const std::size_t group = wa.hotGroupSize().value();
    std::size_t count = 0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        if (!hot[workloadIndex(jobs[k].type)])
            continue;
        const std::size_t id = out[k];
        count += id == kNoServer ||
                 (id >= group &&
                  cluster.server(id).estimatedMeltFraction() >=
                      threshold);
    }
    return count;
}

/** `jobs` arrivals as the serving feed delivers them: random types
 *  in runs of one or two, so every run takes the per-job path. */
void
makeServingBatch(Rng &rng, std::size_t jobs, std::size_t step,
                 std::vector<Job> &batch)
{
    batch.clear();
    while (batch.size() < jobs) {
        const WorkloadType type =
            kAllWorkloads[rng.below(kNumWorkloads)];
        const std::size_t run = std::min<std::size_t>(
            1 + rng.below(2), jobs - batch.size());
        for (std::size_t j = 0; j < run; ++j)
            batch.push_back(Job{step, type, 0.0});
    }
}

/** Everything one serving-shaped stream decides and leaves behind. */
struct ServeStream
{
    std::vector<std::size_t> decisions;
    std::vector<std::uint8_t> cluster;
    std::vector<std::uint8_t> scheduler;
    std::size_t skips = 0;       // calls where a hot job skipped (3)
    std::size_t secondCalls = 0; // calls after a core came back
    std::size_t unplaced = 0;    // kNoServer decisions
};

/**
 * VMT-WA on the churn stream with serving batches: the 48-server
 * fleet alternates 40-step fill and drain phases, and in half the
 * intervals one core on an unmelted server is freed after the
 * arrivals and a second batch follows, as `vmtsim` frees cores by
 * migration between two placeJobs calls of one interval.
 */
ServeStream
runServeStream(bool per_job, std::uint64_t seed, std::size_t steps)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster(kServers, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.0));
    VmtWaScheduler wa(bench::studyVmt(22.0), hotMaskFromPaper());
    PerJob replay(wa);
    Scheduler &sched =
        per_job ? static_cast<Scheduler &>(replay) : wa;
    const double threshold = bench::studyVmt(22.0).waxThreshold;

    ServeStream trace;
    Rng rng(seed);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    std::vector<Job> batch;
    std::vector<std::size_t> out;
    const auto place = [&](std::size_t jobs, std::size_t step) {
        makeServingBatch(rng, jobs, step, batch);
        sched.placeJobs(cluster, batch, out);
        EXPECT_EQ(out.size(), batch.size());
        trace.decisions.insert(trace.decisions.end(), out.begin(),
                               out.end());
        trace.unplaced += static_cast<std::size_t>(
            std::count(out.begin(), out.end(), kNoServer));
        trace.skips += stepFourHotJobs(cluster, wa, batch, out) >= 2;
    };
    Seconds now = 0.0;
    for (std::size_t step = 0; step < steps; ++step) {
        const bool draining = (step / 40) % 2 == 1;
        for (std::size_t id = 0; id < kServers; ++id) {
            if (rng.below(draining ? 2 : 12) != 0)
                continue;
            for (const WorkloadType type : kAllWorkloads) {
                const std::size_t idx = workloadIndex(type);
                const std::size_t leave = rng.below(
                    std::as_const(cluster).server(id).coreCounts()[idx] +
                    1);
                for (std::size_t j = 0; j < leave; ++j)
                    cluster.removeJob(id, type);
            }
        }
        const std::size_t churn = 1 + rng.below(3);
        for (std::size_t k = 0; k < churn; ++k)
            mutate(rng, cluster);

        sched.beginInterval(cluster, now);
        place(1 + rng.below(draining ? 40 : 160), step);

        const std::size_t freed = rng.below(kServers);
        const Server &srv = std::as_const(cluster).server(freed);
        if (rng.below(2) == 0 && srv.busyCores() > 0 &&
            srv.estimatedMeltFraction() < threshold) {
            for (const WorkloadType type : kAllWorkloads) {
                if (srv.coreCounts()[workloadIndex(type)] > 0) {
                    cluster.removeJob(freed, type);
                    break;
                }
            }
            place(1 + rng.below(6), step);
            ++trace.secondCalls;
        }

        const Seconds dt = dts[rng.below(3)];
        cluster.stepThermal(dt, 38.0);
        now += dt;
    }
    Serializer cluster_bytes;
    cluster.saveState(cluster_bytes);
    trace.cluster = cluster_bytes.bytes();
    Serializer sched_bytes;
    sched.saveState(sched_bytes);
    trace.scheduler = sched_bytes.bytes();
    return trace;
}

TEST(PlacementBatchLockstep, ServingBatchesMatchAPerJobReplay)
{
    const ServeStream batch = runServeStream(false, 0x5E4BEull, 1200);
    const ServeStream replay = runServeStream(true, 0x5E4BEull, 1200);
    EXPECT_EQ(batch.decisions.size(), replay.decisions.size());
    EXPECT_EQ(firstMismatch(batch.decisions, replay.decisions),
              batch.decisions.size());
    EXPECT_TRUE(batch.cluster == replay.cluster);
    // The scheduler bytes carry anyCursor_, which every step (3) scan
    // and its skip must leave where the per-job scans leave it.
    EXPECT_TRUE(batch.scheduler == replay.scheduler);
    // The stream fills the fleet until hot jobs skip step (3), and
    // frees cores between two calls of one interval.
    EXPECT_GT(batch.skips, 50u);
    EXPECT_GT(batch.secondCalls, 200u);
    EXPECT_GT(batch.unplaced, 0u);
}

/**
 * Capacity that comes back between two calls of one interval must be
 * found: servers 0-11 are frozen and full, servers 12-19 melted and
 * half full; the hot group is within the frozen ones. The first call's hot jobs exhaust step (3) and take step (4)
 * on the melted half; a core freed on frozen server 3 must take the
 * second call's hot job, where step (4) would pick the melted server
 * at the cursor.
 */
TEST(PlacementBatchLockstep, SecondCallInAnIntervalFindsAFreedCore)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    const VmtConfig config = bench::studyVmt(22.0);
    const HotMask hot = hotMaskFromPaper();
    const auto first_of = [&](bool want_hot) {
        for (const WorkloadType type : kAllWorkloads)
            if (hot[workloadIndex(type)] == want_hot)
                return type;
        return kAllWorkloads[0];
    };
    const WorkloadType hot_type = first_of(true);
    const WorkloadType cold_type = first_of(false);
    constexpr std::size_t kFleet = 20;
    constexpr std::size_t kFrozen = 12;
    constexpr std::size_t kFreed = 3;

    const auto make_cluster = [&] {
        auto cluster = std::make_unique<Cluster>(
            kFleet, ServerSpec{}, ServerThermalParams{},
            PowerModel({}, 1.0));
        const std::size_t cores = cluster->server(0).cores();
        for (std::size_t id = 0; id < kFrozen; ++id)
            cluster->setBaseInlet(id, 18.0);
        for (std::size_t id = kFrozen; id < kFleet; ++id) {
            cluster->setBaseInlet(id, 45.0);
            for (std::size_t c = 0; c < cores; ++c)
                cluster->addJob(id, hot_type);
        }
        for (int i = 0; i < 600; ++i)
            cluster->stepThermal(60.0, 38.0);
        for (std::size_t id = 0; id < kFrozen; ++id)
            for (std::size_t c = 0; c < cores; ++c)
                cluster->addJob(id, cold_type);
        for (std::size_t id = kFrozen; id < kFleet; ++id)
            for (std::size_t c = 0; c < cores / 2; ++c)
                cluster->removeJob(id, hot_type);
        return cluster;
    };

    std::vector<Job> first;
    // Five hot jobs leave the cursor inside the melted half.
    for (std::size_t k = 0; k < 7; ++k)
        first.push_back(Job{k, k % 3 == 2 ? cold_type : hot_type, 0.0});
    const std::vector<Job> second = {Job{7, hot_type, 0.0}};

    std::vector<std::vector<std::size_t>> decisions[2];
    std::vector<std::uint8_t> cluster_bytes[2];
    std::vector<std::uint8_t> sched_bytes[2];
    for (const bool per_job : {false, true}) {
        SCOPED_TRACE(per_job ? "per-job replay" : "placeJobs");
        const auto cluster = make_cluster();
        for (std::size_t id = 0; id < kFleet; ++id) {
            const Server &srv = std::as_const(*cluster).server(id);
            if (id < kFrozen) {
                ASSERT_LT(srv.estimatedMeltFraction(),
                          config.waxThreshold);
                ASSERT_FALSE(srv.hasCapacity());
            } else {
                ASSERT_GE(srv.estimatedMeltFraction(),
                          config.waxThreshold);
                ASSERT_GE(srv.airTemp(), config.physicalMeltTemp);
            }
        }
        VmtWaScheduler wa(config, hot);
        PerJob replay(wa);
        Scheduler &sched =
            per_job ? static_cast<Scheduler &>(replay) : wa;
        std::vector<std::size_t> out;
        sched.beginInterval(*cluster, 0.0);
        ASSERT_LE(wa.hotGroupSize().value(), kFrozen);
        sched.placeJobs(*cluster, first, out);
        EXPECT_GE(stepFourHotJobs(*cluster, wa, first, out), 2u);
        decisions[per_job].push_back(out);

        cluster->removeJob(kFreed, cold_type);
        sched.placeJobs(*cluster, second, out);
        EXPECT_EQ(out, std::vector<std::size_t>{kFreed});
        decisions[per_job].push_back(out);

        Serializer cbytes;
        cluster->saveState(cbytes);
        cluster_bytes[per_job] = cbytes.bytes();
        Serializer sbytes;
        sched.saveState(sbytes);
        sched_bytes[per_job] = sbytes.bytes();
    }
    EXPECT_EQ(decisions[0], decisions[1]);
    EXPECT_TRUE(cluster_bytes[0] == cluster_bytes[1]);
    EXPECT_TRUE(sched_bytes[0] == sched_bytes[1]);
}

/** The 12-hour 300-server study run, optionally under an outage of a
 *  fifth of the fleet (hot-group members included) with a migration
 *  budget. */
SimConfig
batchStudyRun(bool outage)
{
    SimConfig config = bench::studyConfig(300);
    config.trace.duration = 12.0;
    if (outage) {
        std::string text;
        for (int id = 0; id < 60; ++id)
            text += "3 server-down " + std::to_string(id * 5) + "\n";
        for (int id = 0; id < 30; ++id)
            text += "6 server-up " + std::to_string(id * 5) + "\n";
        config.faults.plan = FaultPlan::parse(text);
        config.migrationBudget = 8;
    }
    return config;
}

void
expectBatchSimsMatchPerJob(bool outage)
{
    ThreadCountGuard guard;
    const SimConfig config = batchStudyRun(outage);
    for (const NamedPolicy &policy : allPolicies()) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(policy.name) +
                         " threads=" + std::to_string(threads));
            setGlobalThreadCount(threads);
            const SimResult batch = policy.run(config);
            const PolicyStack stack = policy.make();
            PerJob replay(stack.policy());
            const SimResult per_job = runSimulation(config, replay);
            EXPECT_EQ(digestResult(batch), digestResult(per_job));
            if (outage) {
                EXPECT_GT(batch.evacuatedJobs, 0u);
            }
        }
    }
}

TEST(PlacementBatchSimEquivalence, EveryPolicyFaultFree)
{
    expectBatchSimsMatchPerJob(false);
}

TEST(PlacementBatchSimEquivalence, EveryPolicyUnderAnOutage)
{
    expectBatchSimsMatchPerJob(true);
}

} // namespace
} // namespace vmt
