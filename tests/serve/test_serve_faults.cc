/**
 * @file
 * Fault-tolerant serving: cross-shard evacuation accounting, bitwise
 * determinism of faulted runs across thread counts and
 * checkpoint/resume, plan-slice validation, the queue-age deadline,
 * and the clean-path guarantee (no degraded fields without degraded
 * configuration).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "reference/scratch_path.h"
#include "reference/snapshot_mutator.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::serve {
namespace {

ServeConfig
smallConfig()
{
    ServeConfig config;
    config.numServers = 24;
    config.podSize = 7; // 3 full shards + a remainder shard of 3.
    config.policy = "wa";
    config.maxIntervals = 20;
    config.keepTelemetry = true;
    return config;
}

SyntheticFeedParams
busyFeed()
{
    SyntheticFeedParams params;
    params.users = 14400.0;
    params.requestsPerUserHour = 1.0;
    params.diurnalTrough = 1.0;
    params.seed = 21;
    return params;
}

ServeResult
runSmall(const ServeConfig &config, const SyntheticFeedParams &params)
{
    SyntheticFeed feed(params);
    ShardedDriver driver(config);
    return driver.run(feed);
}

/** Half the fleet (global ids 0..11, spanning two pods) goes down at
 *  interval 5; one server comes back at interval 12. */
FaultPlan
halfFleetOutage()
{
    std::vector<FaultEvent> events;
    for (std::size_t id = 0; id < 12; ++id) {
        FaultEvent down;
        down.time = 300.0;
        down.type = FaultEventType::ServerDown;
        down.serverId = id;
        events.push_back(down);
    }
    FaultEvent up;
    up.time = 720.0;
    up.type = FaultEventType::ServerUp;
    up.serverId = 0;
    events.push_back(up);
    return FaultPlan(std::move(events));
}

TEST(ShardSlice, ProjectsServerEventsAndKeepsCoolingEvents)
{
    const FaultPlan plan = FaultPlan::parse("0.1 server-down 2\n"
                                            "0.2 cooling-derate 3\n"
                                            "0.3 server-down 9\n"
                                            "0.4 server-up 2\n"
                                            "0.5 cooling-restore\n");
    // Shard covering global ids [7, 14).
    const FaultPlan sliced = plan.shardSlice(7, 7);
    ASSERT_EQ(sliced.size(), 3u);
    EXPECT_EQ(sliced.events()[0].type, FaultEventType::CoolingDerate);
    EXPECT_DOUBLE_EQ(sliced.events()[0].supplyRise, 3.0);
    EXPECT_EQ(sliced.events()[1].type, FaultEventType::ServerDown);
    EXPECT_EQ(sliced.events()[1].serverId, 2u); // 9 - 7, remapped.
    EXPECT_EQ(sliced.events()[2].type,
              FaultEventType::CoolingRestore);

    // Shard covering [0, 7) keeps both events on server 2.
    const FaultPlan first = plan.shardSlice(0, 7);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first.events()[0].serverId, 2u);
    EXPECT_EQ(first.events()[2].type, FaultEventType::ServerUp);
    EXPECT_EQ(first.events()[3].type,
              FaultEventType::CoolingRestore);
}

TEST(ServeFaults, RejectsPlanTargetingOutOfRangeServer)
{
    ServeConfig config = smallConfig();
    FaultEvent event;
    event.time = 60.0;
    event.type = FaultEventType::ServerDown;
    event.serverId = 24; // Fleet has ids 0..23.
    config.faults.plan = FaultPlan({event});
    EXPECT_THROW(ShardedDriver{config}, FatalError);
}

TEST(ServeFaults, HalfFleetOutageConservesEveryJob)
{
    ServeConfig config = smallConfig();
    config.faults.plan = halfFleetOutage();
    const ServeResult result = runSmall(config, busyFeed());

    EXPECT_TRUE(result.degraded);
    // The outage spans two whole pods and part of a third, so jobs
    // were drained and the surviving pods absorbed them.
    EXPECT_GT(result.evacuatedJobs, 0u);
    EXPECT_GT(result.migratedJobs, 0u);
    // Every evacuated job was either migrated or lost...
    EXPECT_EQ(result.evacuatedJobs,
              result.migratedJobs + result.lostJobs);
    // ...every arrival is admitted, shed, expired or still queued...
    EXPECT_EQ(result.arrivals, result.admitted + result.shed +
                                   result.expiredJobs +
                                   result.finalQueueDepth);
    // ...and every placed job finished, still runs, or was lost in
    // an evacuation. No job disappears without being accounted.
    EXPECT_EQ(result.admitted, result.placed + result.droppedJobs);
    EXPECT_EQ(result.placed, result.completedJobs +
                                 result.finalInFlight +
                                 result.lostJobs);
    // Eleven servers are still down at exit (one scripted repair).
    EXPECT_EQ(result.failedServers, 11u);
}

TEST(ServeFaults, FaultedTelemetryIsBitwiseAcrossThreadCounts)
{
    ServeConfig config = smallConfig();
    config.faults.plan = halfFleetOutage();
    config.faults.criticalTemp = 60.0;

    setGlobalThreadCount(1);
    const ServeResult serial = runSmall(config, busyFeed());
    setGlobalThreadCount(4);
    const ServeResult parallel = runSmall(config, busyFeed());
    setGlobalThreadCount(0);

    ASSERT_FALSE(serial.telemetry.empty());
    EXPECT_EQ(serial.telemetry, parallel.telemetry);
    EXPECT_EQ(serial.evacuatedJobs, parallel.evacuatedJobs);
    EXPECT_EQ(serial.migratedJobs, parallel.migratedJobs);
    EXPECT_EQ(serial.lostJobs, parallel.lostJobs);
    EXPECT_DOUBLE_EQ(serial.maxAirTemp, parallel.maxAirTemp);
}

TEST(ServeFaults, StochasticFaultsAreBitwiseAcrossThreadCounts)
{
    // Stochastic draws come from per-shard Rng streams, so thread
    // interleaving must not perturb them.
    ServeConfig config = smallConfig();
    config.faults.mtbf = 2.0; // Aggressive: hours-scale failures.
    config.faults.repairTime = 0.1;

    setGlobalThreadCount(1);
    const ServeResult serial = runSmall(config, busyFeed());
    setGlobalThreadCount(4);
    const ServeResult parallel = runSmall(config, busyFeed());
    setGlobalThreadCount(0);

    EXPECT_EQ(serial.telemetry, parallel.telemetry);
    EXPECT_GT(serial.evacuatedJobs, 0u)
        << "mtbf too tame: no stochastic failures fired; the "
           "determinism check above proved nothing";
}

TEST(ServeFaults, ResumeWithActivePlanIsBitwise)
{
    const std::string ckpt =
        reference::scratchPath("serve_fault_resume.ckpt");

    ServeConfig reference = smallConfig();
    reference.faults.plan = halfFleetOutage();
    const ServeResult full = runSmall(reference, busyFeed());

    // First leg stops at interval 8 — after the outage fired (t=300,
    // interval 5) but before the scripted repair, so the snapshot
    // carries failed servers, re-filed refugee departures and the
    // plan cursor.
    ServeConfig first = reference;
    first.maxIntervals = 8;
    first.checkpointEvery = 8;
    first.checkpointPath = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(first);
        const ServeResult leg = driver.run(feed);
        EXPECT_EQ(leg.finalCheckpoint, ckpt);
        EXPECT_GT(leg.evacuatedJobs, 0u);
    }

    ServeConfig second = reference;
    second.checkpointEvery = 8;
    second.checkpointPath = ckpt;
    second.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(second);
    const ServeResult resumed = driver.run(feed);
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());

    EXPECT_EQ(resumed.resumedIntervals, 8u);
    const std::size_t tail_start = [&] {
        std::size_t seen = 0, pos = 0;
        while (seen < 8 && pos < full.telemetry.size()) {
            pos = full.telemetry.find('\n', pos) + 1;
            ++seen;
        }
        return pos;
    }();
    EXPECT_EQ(resumed.telemetry, full.telemetry.substr(tail_start));
    EXPECT_EQ(resumed.evacuatedJobs, full.evacuatedJobs);
    EXPECT_EQ(resumed.migratedJobs, full.migratedJobs);
    EXPECT_EQ(resumed.lostJobs, full.lostJobs);
    EXPECT_EQ(resumed.completedJobs, full.completedJobs);
    EXPECT_EQ(resumed.failedServers, full.failedServers);
    EXPECT_DOUBLE_EQ(resumed.maxAirTemp, full.maxAirTemp);
}

TEST(ServeFaults, DegradedRunRefusesCleanSnapshotAndViceVersa)
{
    const std::string ckpt =
        reference::scratchPath("serve_dgrd_mismatch.ckpt");
    ServeConfig clean = smallConfig();
    clean.maxIntervals = 4;
    clean.checkpointEvery = 4;
    clean.checkpointPath = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(clean);
        driver.run(feed);
    }

    // A faulted run cannot resume a clean snapshot (no fault state).
    ServeConfig faulted = smallConfig();
    faulted.faults.plan = halfFleetOutage();
    faulted.resumeFrom = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(faulted);
        EXPECT_THROW(driver.run(feed), FatalError);
    }

    // And a degraded snapshot refuses a clean run.
    ServeConfig faulted_first = smallConfig();
    faulted_first.faults.plan = halfFleetOutage();
    faulted_first.maxIntervals = 8;
    faulted_first.checkpointEvery = 8;
    faulted_first.checkpointPath = ckpt;
    {
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(faulted_first);
        driver.run(feed);
    }
    ServeConfig clean_resume = smallConfig();
    clean_resume.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(clean_resume);
    EXPECT_THROW(driver.run(feed), FatalError);
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
}

TEST(ServeFaults, QueueAgeDeadlineShedsStaleArrivalsSeparately)
{
    // A tiny admission budget builds a backlog; the deadline sheds
    // entries older than two intervals when they reach the front.
    ServeConfig config = smallConfig();
    config.admissionBudget = 3;
    config.maxQueueAge = 120.0;
    const ServeResult result = runSmall(config, busyFeed());

    EXPECT_TRUE(result.degraded);
    EXPECT_GT(result.expiredJobs, 0u);
    EXPECT_EQ(result.arrivals, result.admitted + result.shed +
                                   result.expiredJobs +
                                   result.finalQueueDepth);
    // Expired sheds never consume admission budget: the budget's
    // worth of fresh jobs is still admitted every interval.
    EXPECT_GT(result.admitted, 0u);

    // Without the deadline nothing expires.
    ServeConfig no_deadline = smallConfig();
    no_deadline.admissionBudget = 3;
    const ServeResult base = runSmall(no_deadline, busyFeed());
    EXPECT_EQ(base.expiredJobs, 0u);
    EXPECT_FALSE(base.degraded);
}

TEST(ServeFaults, CleanRunCarriesNoDegradedFields)
{
    const ServeResult result = runSmall(smallConfig(), busyFeed());
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.evacuatedJobs, 0u);
    EXPECT_EQ(result.expiredJobs, 0u);
    // The telemetry schema is the pre-fault driver's: none of the
    // degraded-mode fields appear.
    EXPECT_EQ(result.telemetry.find("\"failed\":"),
              std::string::npos);
    EXPECT_EQ(result.telemetry.find("\"brownout\":"),
              std::string::npos);

    // An empty-but-enabled fault layer changes accounting fields,
    // not behavior: same placements, same thermal trajectory.
    ServeConfig enabled = smallConfig();
    enabled.faults.enable = true;
    const ServeResult faulted = runSmall(enabled, busyFeed());
    EXPECT_TRUE(faulted.degraded);
    EXPECT_EQ(faulted.arrivals, result.arrivals);
    EXPECT_EQ(faulted.placed, result.placed);
    EXPECT_EQ(faulted.completedJobs, result.completedJobs);
    EXPECT_DOUBLE_EQ(faulted.peakCoolingLoad,
                     result.peakCoolingLoad);
    EXPECT_DOUBLE_EQ(faulted.maxAirTemp, result.maxAirTemp);
    EXPECT_NE(faulted.telemetry.find("\"failed\":"),
              std::string::npos);
}

TEST(ServeFaults, DepartureLedgerMatchesTheClusterEveryInterval)
{
    // Every interval's checkpoint is resumed by a second driver, whose
    // loader refuses a shard whose pending departure records of any
    // (server, type) differ from the cluster's job count — through
    // the outage, the cross-shard evacuation and the repair.
    const std::string ckpt =
        reference::scratchPath("serve_ledger.ckpt");
    ServeConfig config = smallConfig();
    config.faults.plan = halfFleetOutage();
    config.keepTelemetry = false;
    config.checkpointEvery = 1;
    config.checkpointPath = ckpt;
    std::size_t checked = 0;
    const auto check = [&](std::size_t completed) {
        ServeConfig probe = config;
        probe.checkpointEvery = 0;
        probe.maxIntervals = completed;
        probe.resumeFrom = ckpt;
        SyntheticFeed feed(busyFeed());
        ShardedDriver driver(probe);
        EXPECT_NO_THROW(driver.run(feed)) << "interval " << completed;
        ++checked;
    };
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(config);
    std::size_t polls = 0;
    const ServeResult result = driver.run(feed, [&] {
        if (polls > 0)
            check(polls);
        ++polls;
        return false;
    });
    check(result.completedIntervals);
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());

    EXPECT_EQ(checked, config.maxIntervals);
    EXPECT_GT(result.migratedJobs, 0u);
}

/** A 24-server CoolestFirst run under the half-fleet outage (the
 *  policy keeps no state of its own, so the SHRD payload is cluster
 *  and departure ring). */
ServeConfig
ledgerConfig()
{
    ServeConfig config = smallConfig();
    config.policy = "cf";
    config.faults.plan = halfFleetOutage();
    config.keepTelemetry = false;
    return config;
}

std::vector<std::uint8_t>
snapshotAfter(std::size_t completed, const std::string &tag)
{
    const std::string ckpt = reference::scratchPath(tag + "_source.ckpt");
    ServeConfig config = ledgerConfig();
    config.maxIntervals = completed;
    config.checkpointEvery = completed;
    config.checkpointPath = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver(config).run(feed);
    std::vector<std::uint8_t> image = reference::readBytes(ckpt);
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
    return image;
}

/** True when a run resumed from `image` goes to the end, false on a
 *  FatalError; anything else escapes and fails the test. */
bool
resumes(const std::vector<std::uint8_t> &image, const std::string &tag)
{
    const std::string ckpt = reference::scratchPath(tag + "_mutant.ckpt");
    reference::writeBytes(ckpt, image);
    ServeConfig config = ledgerConfig();
    config.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(config);
    bool ran = true;
    try {
        driver.run(feed);
    } catch (const FatalError &) {
        ran = false;
    }
    std::remove(ckpt.c_str());
    return ran;
}

/**
 * Resume from the interval-8 snapshot with the @p tag section's
 * payload truncated, byte-flipped or spliced with the interval-12
 * payload (CRCs recomputed), @p per_kind times each. Every resume
 * must end in a FatalError or run to the end, never a crash (the CI
 * sanitizer job runs this suite under ASan and UBSan). Returns the
 * fatals per kind.
 */
std::array<int, 3>
mutationFatals(const std::string &tag, int per_kind, std::uint64_t seed)
{
    reference::SnapshotSections base(snapshotAfter(8, tag));
    const std::vector<std::uint8_t> payload = base.payload(tag);
    const std::vector<std::uint8_t> donor =
        reference::SnapshotSections(snapshotAfter(12, tag)).payload(tag);
    EXPECT_TRUE(resumes(base.encode(), tag));

    Rng rng(seed);
    std::array<int, 3> fatals{};
    for (int i = 0; i < 3 * per_kind; ++i) {
        const auto kind = static_cast<reference::Mutation>(i % 3);
        reference::SnapshotSections image = base;
        image.payload(tag) = reference::mutate(payload, donor, kind, rng);
        if (!resumes(image.encode(), tag))
            ++fatals[static_cast<std::size_t>(kind)];
    }
    return fatals;
}

TEST(ServeFaults, MutatedShrdPayloadsEndInANamedFatalOrACleanResume)
{
    constexpr int kPerKind = 700;
    const std::array<int, 3> fatals =
        mutationFatals("SHRD", kPerKind, 1717);
    EXPECT_EQ(fatals[0], kPerKind); // Every cut falls short.
    EXPECT_GT(fatals[1], 0);
    EXPECT_GT(fatals[2], 0);
}

TEST(ServeFaults, MutatedIngrPayloadsEndInANamedFatalOrACleanResume)
{
    // The ring holds a backlog at interval 8, so most damage lands in
    // queued entries: an unknown workload type, or a non-finite or
    // negative time or duration, is a named fatal at load.
    ASSERT_GT(reference::SnapshotSections(snapshotAfter(8, "INGR"))
                  .payload("INGR")
                  .size(),
              1000u);
    constexpr int kPerKind = 300;
    const std::array<int, 3> fatals =
        mutationFatals("INGR", kPerKind, 1818);
    EXPECT_EQ(fatals[0], kPerKind);
    EXPECT_GT(fatals[1], 0);
    EXPECT_GT(fatals[2], 0);
}

TEST(ServeFaults, MutatedFeedPayloadsEndInANamedFatalOrACleanResume)
{
    constexpr int kPerKind = 300;
    const std::array<int, 3> fatals =
        mutationFatals("FEED", kPerKind, 1919);
    EXPECT_EQ(fatals[0], kPerKind);
    EXPECT_GT(fatals[1], 0);
    EXPECT_GT(fatals[2], 0);
}

TEST(ServeFaults, AllZeroShardEngineWordsAreANamedFatal)
{
    // Stochastic failures alone (an empty plan, no brownout), so each
    // shard's engine draws from a live Rng.
    ServeConfig config = smallConfig();
    config.faults.mtbf = 5.0;
    config.faults.repairTime = 0.2;
    const std::string ckpt = reference::scratchPath("engine.ckpt");
    {
        ServeConfig saving = config;
        saving.maxIntervals = 8;
        saving.checkpointEvery = 8;
        saving.checkpointPath = ckpt;
        SyntheticFeed feed(busyFeed());
        ShardedDriver(saving).run(feed);
    }
    reference::SnapshotSections sections(reference::readBytes(ckpt));
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());

    // DGRD's echo is 137 bytes with an empty plan (enable flag, plan
    // length, seed, six fault and six brownout parameters, the
    // brownout hold, queue age and retry count), then five totals and
    // shard 0's applied rise, plan cursor and supply rise precede its
    // engine's words.
    std::vector<std::uint8_t> &dgrd = sections.payload("DGRD");
    bool live = false;
    for (std::size_t i = 201; i < 201 + 32; ++i) {
        live = live || dgrd.at(i) != 0;
        dgrd.at(i) = 0;
    }
    ASSERT_TRUE(live);
    reference::writeBytes(ckpt, sections.encode());

    config.resumeFrom = ckpt;
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(config);
    std::string error;
    try {
        driver.run(feed);
    } catch (const FatalError &e) {
        error = e.what();
    }
    std::remove(ckpt.c_str());
    EXPECT_NE(error.find("serve snapshot DGRD section is corrupt: "
                         "all-zero RNG state"),
              std::string::npos)
        << error;
}

} // namespace
} // namespace vmt::serve
