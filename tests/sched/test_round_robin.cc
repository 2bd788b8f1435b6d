/**
 * @file
 * Unit tests for the round-robin baseline scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/round_robin.h"
#include "state/serializer.h"
#include "util/rng.h"

namespace vmt {
namespace {

Cluster
makeCluster(std::size_t n = 4)
{
    return Cluster(n, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.0));
}

Job
job(WorkloadType type = WorkloadType::WebSearch)
{
    Job j;
    j.type = type;
    j.duration = 300.0;
    return j;
}

TEST(RoundRobin, RotatesThroughServers)
{
    Cluster c = makeCluster(3);
    RoundRobinScheduler sched;
    EXPECT_EQ(sched.placeJob(c, job()), 0u);
    EXPECT_EQ(sched.placeJob(c, job()), 1u);
    EXPECT_EQ(sched.placeJob(c, job()), 2u);
    EXPECT_EQ(sched.placeJob(c, job()), 0u);
}

TEST(RoundRobin, SkipsFullServers)
{
    Cluster c = makeCluster(2);
    for (std::size_t i = 0; i < 32; ++i)
        c.addJob(0, WorkloadType::DataCaching);
    RoundRobinScheduler sched;
    EXPECT_EQ(sched.placeJob(c, job()), 1u);
    EXPECT_EQ(sched.placeJob(c, job()), 1u);
}

TEST(RoundRobin, FullClusterReturnsNoServer)
{
    Cluster c = makeCluster(2);
    for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t i = 0; i < 32; ++i)
            c.addJob(s, WorkloadType::DataCaching);
    RoundRobinScheduler sched;
    EXPECT_EQ(sched.placeJob(c, job()), kNoServer);
}

TEST(RoundRobin, IgnoresWorkloadType)
{
    Cluster c = makeCluster(2);
    RoundRobinScheduler sched;
    EXPECT_EQ(sched.placeJob(c, job(WorkloadType::VideoEncoding)), 0u);
    EXPECT_EQ(sched.placeJob(c, job(WorkloadType::VirusScan)), 1u);
}

TEST(RoundRobin, EvenArrivalDistribution)
{
    Cluster c = makeCluster(5);
    RoundRobinScheduler sched;
    std::array<int, 5> placed{};
    for (int i = 0; i < 100; ++i) {
        const std::size_t id = sched.placeJob(c, job());
        c.addJob(id, WorkloadType::WebSearch);
        ++placed[id];
    }
    for (int count : placed)
        EXPECT_EQ(count, 20);
}

// ---------------------------------------------------------------------
// The batch placeJobs against a per-job placeJob + addJob replay.
// ---------------------------------------------------------------------

/** What a batch leaves behind: its decisions and the cluster and
 *  scheduler bytes. */
struct Outcome
{
    std::vector<std::size_t> decisions;
    std::vector<std::uint8_t> cluster;
    std::vector<std::uint8_t> scheduler;
};

/** A fleet in a given state: per-server busy cores and health, and
 *  the scheduler's cursor. */
struct Fleet
{
    std::vector<std::size_t> busy;
    std::vector<ServerHealth> health;
    std::size_t cursor = 0;
};

Outcome
place(const Fleet &fleet, const std::vector<Job> &jobs, bool batch)
{
    Cluster c = makeCluster(fleet.busy.size());
    for (std::size_t id = 0; id < fleet.busy.size(); ++id) {
        for (std::size_t k = 0; k < fleet.busy[id]; ++k)
            c.addJob(id, kAllWorkloads[k % kNumWorkloads]);
        c.setHealth(id, fleet.health[id]);
    }
    RoundRobinScheduler sched;
    Serializer cursor;
    cursor.putSize(fleet.cursor);
    Deserializer in(cursor.bytes());
    sched.loadState(in);

    Outcome out;
    if (batch) {
        out.decisions.assign(3, 42); // placeJobs must overwrite these.
        sched.placeJobs(c, jobs, out.decisions);
    } else {
        for (const Job &j : jobs) {
            const std::size_t id = sched.placeJob(c, j);
            if (id != kNoServer)
                c.addJob(id, j.type);
            out.decisions.push_back(id);
        }
    }
    Serializer cluster_bytes;
    c.saveState(cluster_bytes);
    out.cluster = cluster_bytes.bytes();
    Serializer sched_bytes;
    sched.saveState(sched_bytes);
    out.scheduler = sched_bytes.bytes();
    return out;
}

/** Place `jobs` both ways; return the batch's outcome. */
Outcome
expectBatchMatchesReplay(const Fleet &fleet, std::size_t jobs)
{
    std::vector<Job> batch;
    for (std::size_t k = 0; k < jobs; ++k)
        batch.push_back(job(kAllWorkloads[(k * 3) % kNumWorkloads]));
    const Outcome got = place(fleet, batch, true);
    const Outcome want = place(fleet, batch, false);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_TRUE(got.cluster == want.cluster);
    EXPECT_TRUE(got.scheduler == want.scheduler);
    return got;
}

Fleet
upFleet(std::vector<std::size_t> busy, std::size_t cursor)
{
    Fleet fleet;
    fleet.health.assign(busy.size(), ServerHealth::Up);
    fleet.busy = std::move(busy);
    fleet.cursor = cursor;
    return fleet;
}

std::vector<std::uint8_t>
cursorBytes(std::size_t cursor)
{
    Serializer out;
    out.putSize(cursor);
    return out.bytes();
}

TEST(RoundRobinBatch, FleetFillsMidBatchAndTheCursorStays)
{
    // 7 free cores; jobs 8..20 find none.
    const Outcome out =
        expectBatchMatchesReplay(upFleet({30, 32, 27, 32}, 1), 20);
    ASSERT_EQ(out.decisions.size(), 20u);
    EXPECT_EQ(std::count(out.decisions.begin(), out.decisions.end(),
                         kNoServer),
              13);
    EXPECT_TRUE(std::all_of(out.decisions.begin() + 7,
                            out.decisions.end(),
                            [](std::size_t id) { return id == kNoServer; }));
    // The seventh job went to server 2, so the cursor rests on 3.
    EXPECT_EQ(out.decisions[6], 2u);
    EXPECT_EQ(out.scheduler, cursorBytes(3));
}

TEST(RoundRobinBatch, CursorAtTheLastServerWraps)
{
    const Outcome out =
        expectBatchMatchesReplay(upFleet({0, 32, 0, 0, 5}, 4), 9);
    EXPECT_EQ(out.decisions,
              (std::vector<std::size_t>{4, 0, 2, 3, 4, 0, 2, 3, 4}));
    EXPECT_EQ(out.scheduler, cursorBytes(0));
}

TEST(RoundRobinBatch, FailedAndQuarantinedServersAreSkipped)
{
    Fleet fleet = upFleet({3, 0, 10, 0, 31, 0}, 5);
    fleet.health[1] = ServerHealth::Failed;
    fleet.health[3] = ServerHealth::Quarantined;
    fleet.health[5] = ServerHealth::Failed;
    const Outcome out = expectBatchMatchesReplay(fleet, 100);
    for (const std::size_t id : out.decisions)
        EXPECT_TRUE(id == 0 || id == 2 || id == 4 || id == kNoServer)
            << id;
    // 29 + 22 + 1 free cores on the Up servers.
    EXPECT_EQ(std::count(out.decisions.begin(), out.decisions.end(),
                         kNoServer),
              100 - 52);

    // No Up server at all: every job is unplaced, the cursor stays.
    Fleet down = upFleet({0, 0, 0}, 2);
    down.health = {ServerHealth::Failed, ServerHealth::Quarantined,
                   ServerHealth::Failed};
    const Outcome none = expectBatchMatchesReplay(down, 4);
    EXPECT_EQ(none.decisions, std::vector<std::size_t>(4, kNoServer));
    EXPECT_EQ(none.scheduler, cursorBytes(2));
}

TEST(RoundRobinBatch, OneServerCluster)
{
    const Outcome out = expectBatchMatchesReplay(upFleet({20}, 0), 15);
    EXPECT_EQ(std::count(out.decisions.begin(), out.decisions.end(),
                         std::size_t{0}),
              12);
    EXPECT_EQ(out.scheduler, cursorBytes(0));
    // An empty batch leaves everything as it was.
    const Outcome empty = expectBatchMatchesReplay(upFleet({20}, 0), 0);
    EXPECT_TRUE(empty.decisions.empty());
}

TEST(RoundRobinBatch, SeededFleetsMatchThePerJobReplay)
{
    Rng rng(0x88B1ull);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        const std::size_t n = 1 + rng.below(12);
        Fleet fleet;
        for (std::size_t id = 0; id < n; ++id) {
            fleet.busy.push_back(rng.below(2) == 0 ? 32
                                                   : rng.below(33));
            const std::uint64_t h = rng.below(6);
            fleet.health.push_back(h == 0   ? ServerHealth::Failed
                                   : h == 1 ? ServerHealth::Quarantined
                                            : ServerHealth::Up);
        }
        fleet.cursor = rng.below(n);
        expectBatchMatchesReplay(fleet, rng.below(8 * n * 32 / 5));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(RoundRobin, NoHotGroup)
{
    RoundRobinScheduler sched;
    EXPECT_FALSE(sched.hotGroupSize().has_value());
    EXPECT_EQ(sched.name(), "RoundRobin");
}

} // namespace
} // namespace vmt
