/**
 * @file
 * Output digests of small serving runs, pinned so that changes to the
 * admission path (routing, requeue, the ingress ring) and to the
 * synthetic feed must leave every byte of a run's output unchanged.
 *
 * Each digest is an FNV-1a hash (reference/digest.h) over the
 * ServeResult counters and peaks, the JSONL telemetry stream and the
 * final snapshot file. Every case runs at 1 and 4 threads against the
 * same pinned value. The cases cover a backlog that outlasts the
 * admission budget (the requeued entries rotate behind the unpopped
 * ones), the shed policy, an outage with a brownout, a queue-age
 * deadline, a small ring, a remainder pod with one evacuation retry,
 * and a ramped, bursty feed. The values were recorded from the
 * per-job heap router and are never edited.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "reference/digest.h"
#include "reference/scratch_path.h"
#include "reference/snapshot_mutator.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/thread_pool.h"

namespace vmt::serve {
namespace {

/** Servers [0, count) go down at @p down_hours and come back at
 *  @p up_hours. */
FaultPlan
outage(std::size_t count, double down_hours, double up_hours)
{
    std::vector<FaultEvent> events;
    for (const auto &[hours, type] :
         {std::pair{down_hours, FaultEventType::ServerDown},
          std::pair{up_hours, FaultEventType::ServerUp}}) {
        for (std::size_t id = 0; id < count; ++id) {
            FaultEvent event;
            event.time = hours * 3600.0;
            event.type = type;
            event.serverId = id;
            events.push_back(event);
        }
    }
    return FaultPlan(std::move(events));
}

struct DigestCase
{
    const char *name;
    ServeConfig config;
    SyntheticFeedParams feed;
    std::uint64_t pinned;
};

/** 300 servers in pods of 64 (four full pods and a remainder of 44),
 *  2.5 hours, a snapshot every 50 intervals. */
ServeConfig
fleet()
{
    ServeConfig config;
    config.numServers = 300;
    config.podSize = 64;
    config.maxIntervals = 150;
    config.checkpointEvery = 50;
    config.keepTelemetry = true;
    return config;
}

/** About 2,500 arrivals a minute at the diurnal peak: the 9,600-core
 *  fleet fills and a backlog builds. */
SyntheticFeedParams
heavyFeed()
{
    SyntheticFeedParams params;
    params.users = 200000.0;
    params.seed = 11;
    return params;
}

std::vector<DigestCase>
cases()
{
    std::vector<DigestCase> out;

    // The CI determinism command, scaled down: 400 servers, a quarter
    // of them down from hour 1 to hour 2.
    {
        ServeConfig config = fleet();
        config.numServers = 400;
        config.faults.plan = outage(100, 1.0, 2.0);
        SyntheticFeedParams feed;
        feed.users = 30000.0;
        out.push_back({"ci_outage", config, feed,
                       0x3284c48bb92ea2cdull});
    }
    // No budget: the whole backlog is offered every interval.
    out.push_back({"backlog", fleet(), heavyFeed(),
                   0x568e11fe9426ec71ull});
    // A budget below the queue depth: the unrouted part of the popped
    // prefix goes behind the unpopped entries.
    {
        ServeConfig config = fleet();
        config.admissionBudget = 600;
        out.push_back({"budget", config, heavyFeed(),
                       0xe9323ca49e1ce0c7ull});
    }
    {
        ServeConfig config = fleet();
        config.admissionBudget = 600;
        config.admit = AdmitPolicy::Shed;
        out.push_back({"budget_shed", config, heavyFeed(),
                       0x0eaa85cd5879508aull});
    }
    {
        ServeConfig config = fleet();
        config.admissionBudget = 700;
        config.faults.plan = outage(100, 1.0, 2.0);
        config.brownout.maxAirTemp = 36.0;
        out.push_back({"brownout_outage", config, heavyFeed(),
                       0xf814bf6d8cd2b777ull});
    }
    // The budget and the requeue rotation under degraded admission.
    {
        ServeConfig config = fleet();
        config.admissionBudget = 600;
        config.faults.plan = outage(150, 1.0, 2.0);
        out.push_back({"budget_outage", config, heavyFeed(),
                       0x6762c5a35b976152ull});
    }
    {
        ServeConfig config = fleet();
        config.maxQueueAge = 120.0;
        config.faults.plan = outage(150, 1.0, 2.0);
        out.push_back({"deadline_outage", config, heavyFeed(),
                       0x53812eb116721b57ull});
    }
    // A deadline with a budget: the scan stops at the budget's worth
    // of live entries, and expired ones never use budget.
    {
        ServeConfig config = fleet();
        config.admissionBudget = 600;
        config.maxQueueAge = 600.0;
        config.faults.plan = outage(150, 1.0, 2.0);
        out.push_back({"deadline_budget", config, heavyFeed(),
                       0x4a08f54dd833eef6ull});
    }
    {
        ServeConfig config = fleet();
        config.queueCapacity = 100;
        config.admissionBudget = 80;
        out.push_back({"small_ring", config, heavyFeed(),
                       0x6d7b263b2e0a4914ull});
    }
    // Pods of 30 over 310 servers (a remainder pod of 10), the shed
    // policy and a single evacuation retry.
    {
        ServeConfig config = fleet();
        config.numServers = 310;
        config.podSize = 30;
        config.admit = AdmitPolicy::Shed;
        config.evacRetries = 1;
        config.faults.plan = outage(155, 1.0, 2.0);
        out.push_back({"remainder_shed", config, heavyFeed(),
                       0xde339ccedd1c6bacull});
    }
    {
        ServeConfig config = fleet();
        config.faults.plan = outage(100, 1.0, 2.0);
        SyntheticFeedParams feed = heavyFeed();
        feed.rampHours = 0.5;
        feed.burstPeriodHours = 0.5;
        feed.burstMinutes = 5.0;
        out.push_back({"ramp_burst", config, feed,
                       0xb9113e64715b9631ull});
    }
    return out;
}

std::uint64_t
digestRun(const ServeResult &r, const std::vector<std::uint8_t> &snap)
{
    reference::Digest d;
    d.addString(r.schedulerName);
    for (const std::uint64_t count :
         {std::uint64_t{r.shards}, std::uint64_t{r.completedIntervals},
          std::uint64_t{r.resumedIntervals}, r.arrivals, r.admitted,
          r.shed, r.requeued, r.placed, r.droppedJobs, r.completedJobs,
          std::uint64_t{r.degraded}, r.evacuatedJobs, r.migratedJobs,
          r.lostJobs, r.expiredJobs, r.checkpointFailures,
          std::uint64_t{r.failedServers},
          std::uint64_t{r.quarantinedServers},
          std::uint64_t{r.maxBrownoutLevel}, r.brownoutIntervals,
          std::uint64_t{r.finalQueueDepth},
          std::uint64_t{r.peakQueueDepth},
          std::uint64_t{r.finalInFlight}, r.overheatedServerIntervals,
          std::uint64_t{r.stopped}, std::uint64_t{r.feedExhausted}})
        d.addU64(count);
    for (const double value : {r.peakCoolingLoad, r.peakPower,
                               r.maxAirTemp, r.maxMeltFraction})
        d.addDouble(value);
    d.addString(r.telemetry);
    d.addU64(snap.size());
    d.addBytes(snap.data(), snap.size());
    return d.value();
}

TEST(ServeDigests, OutputsMatchThePinnedDigestsAtOneAndFourThreads)
{
    for (const DigestCase &c : cases()) {
        for (const std::size_t threads : {1u, 4u}) {
            setGlobalThreadCount(threads);
            ServeConfig config = c.config;
            config.checkpointPath =
                reference::scratchPath(std::string(c.name) + ".ckpt");
            SyntheticFeed feed(c.feed);
            const ServeResult result = ShardedDriver(config).run(feed);
            const std::vector<std::uint8_t> snap =
                reference::readBytes(config.checkpointPath);
            std::remove(config.checkpointPath.c_str());
            std::remove((config.checkpointPath + ".prev").c_str());
            EXPECT_EQ(digestRun(result, snap), c.pinned)
                << c.name << " at " << threads << " threads: 0x"
                << std::hex << digestRun(result, snap) << std::dec
                << " (arrivals " << result.arrivals << ", requeued "
                << result.requeued << ", shed " << result.shed
                << ", expired " << result.expiredJobs << ", lost "
                << result.lostJobs << ", queue "
                << result.finalQueueDepth << ")";
        }
    }
    setGlobalThreadCount(0);
}

} // namespace
} // namespace vmt::serve
