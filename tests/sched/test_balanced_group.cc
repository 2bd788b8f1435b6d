/**
 * @file
 * Unit and lockstep tests for the temperature-ordered placement
 * groups: the production BlockMinGroup (sched/block_min_group.h) and
 * the binary-heap reference it replaced
 * (tests/reference/temp_ordered_group.h), in both orders.
 *
 *  - BalancedGroup.*   the coolest-first reference heap on its own;
 *  - PlacementGroup/<n>.*  one typed suite over both implementations and
 *                      both orders (ties, full servers, keep-warm
 *                      fill, mixed fills);
 *  - PlacementGroupLockstep.*  a seeded randomized stream of fills,
 *                      placements and capacity changes that both
 *                      implementations must answer identically;
 *  - PlacementRun.*    BlockMinGroup::placeRun against per-job
 *                      place()/placeIfBelow() on both implementations:
 *                      decisions, final keys (kDrop included) and core
 *                      counts, on both sides of the run-length gate.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "reference/temp_ordered_group.h"
#include "sched/block_min_group.h"
#include "sched/scheduler.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::BalancedGroup;
using reference::TempOrderedGroup;

Cluster
makeCluster(std::size_t n = 3)
{
    return Cluster(n, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.0));
}

/** Occupy every core of a server so it has no capacity. */
void
fillServer(Cluster &c, std::size_t id)
{
    while (std::as_const(c).server(id).hasCapacity())
        c.addJob(id, WorkloadType::VirusScan);
}

TEST(BalancedGroup, EmptyGroupPlacesNothing)
{
    Cluster c = makeCluster();
    BalancedGroup group;
    EXPECT_TRUE(group.empty());
    EXPECT_EQ(group.place(c, 10.0), kNoServer);
}

TEST(BalancedGroup, PicksLeastLoadedServer)
{
    Cluster c = makeCluster(3);
    c.addJob(0, WorkloadType::VideoEncoding);
    c.addJob(1, WorkloadType::VirusScan);
    BalancedGroup group;
    for (std::size_t id = 0; id < 3; ++id)
        group.add(c, id);
    // Server 2 is idle -> least power.
    EXPECT_EQ(group.place(c, 5.0), 2u);
}

TEST(BalancedGroup, VirtualBumpSpreadsPlacements)
{
    Cluster c = makeCluster(3);
    BalancedGroup group;
    for (std::size_t id = 0; id < 3; ++id)
        group.add(c, id);
    std::array<int, 3> placed{};
    for (int i = 0; i < 30; ++i) {
        const std::size_t id = group.place(c, 10.0);
        c.addJob(id, WorkloadType::WebSearch);
        ++placed[id];
    }
    for (int count : placed)
        EXPECT_EQ(count, 10);
}

TEST(BalancedGroup, DropsFullServersForTheInterval)
{
    Cluster c = makeCluster(2);
    for (std::size_t i = 0; i < 32; ++i)
        c.addJob(0, WorkloadType::VirusScan);
    BalancedGroup group;
    group.add(c, 0);
    group.add(c, 1);
    // Server 0 is cheaper by power (virus scan cores) but full... it
    // actually has higher power; make server 1 busy instead so 0
    // would be preferred if not full.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(group.place(c, 1.0), 1u);
}

TEST(BalancedGroup, AllFullReturnsNoServer)
{
    Cluster c = makeCluster(1);
    for (std::size_t i = 0; i < 32; ++i)
        c.addJob(0, WorkloadType::VirusScan);
    BalancedGroup group;
    group.add(c, 0);
    EXPECT_EQ(group.place(c, 1.0), kNoServer);
    EXPECT_TRUE(group.empty());
}

TEST(BalancedGroup, PlaceIfBelowRespectsLimit)
{
    Cluster c = makeCluster(2);
    BalancedGroup group;
    group.add(c, 0); // 100 W idle.
    group.add(c, 1);
    // Limit 120 W: two placements of 15 W each per server fit, then
    // every member is at/above the limit.
    int placed = 0;
    while (group.placeIfBelow(c, 15.0, 120.0) != kNoServer)
        ++placed;
    EXPECT_EQ(placed, 4);
    // Members remain for regular placement.
    EXPECT_FALSE(group.empty());
    EXPECT_NE(group.place(c, 15.0), kNoServer);
}

TEST(BalancedGroup, ClearEmpties)
{
    Cluster c = makeCluster(1);
    BalancedGroup group;
    group.add(c, 0);
    group.clear();
    EXPECT_TRUE(group.empty());
    EXPECT_EQ(group.size(), 0u);
}

// ---------------------------------------------------------------------
// Typed suite: both implementations, both orders.
// ---------------------------------------------------------------------

template <typename Group> struct OrderOf;
template <typename O> struct OrderOf<BlockMinGroup<O>>
{
    using type = O;
};
template <typename O> struct OrderOf<TempOrderedGroup<O>>
{
    using type = O;
};

template <typename Group>
class PlacementGroup : public ::testing::Test
{
  protected:
    static constexpr bool kCooler =
        std::is_same_v<typename OrderOf<Group>::type, CoolerFirst>;

    /** A key that orders ahead of `key` in this group's order. */
    static Celsius ahead(Celsius key, Celsius by = 1.0)
    {
        return kCooler ? key - by : key + by;
    }
};

using GroupTypes =
    ::testing::Types<BlockMinGroup<CoolerFirst>,
                     BlockMinGroup<HotterFirst>,
                     TempOrderedGroup<CoolerFirst>,
                     TempOrderedGroup<HotterFirst>>;
TYPED_TEST_SUITE(PlacementGroup, GroupTypes);

TYPED_TEST(PlacementGroup, TiesBreakById)
{
    // 70 equal keys span three 32-entry blocks: the tie must resolve
    // across blocks to the smallest id (coolest first) or the largest
    // id (hottest first).
    constexpr std::size_t n = 70;
    Cluster c = makeCluster(n);
    const std::vector<Celsius> keys(n, 30.0);
    TypeParam group;
    group.assignKeys(keys.data(), 0, n);
    if constexpr (TestFixture::kCooler) {
        // The bump sends each winner behind its equals: ids in order.
        for (std::size_t expect = 0; expect < 5; ++expect)
            EXPECT_EQ(group.place(c, 10.0), expect);
    } else {
        // The bump keeps the winner hottest: it packs.
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(group.place(c, 10.0), n - 1);
    }
}

TYPED_TEST(PlacementGroup, DropsFullServers)
{
    Cluster c = makeCluster(3);
    // Server 0 leads in the coolest-first order, server 2 in the
    // hottest-first order; fill the leader.
    const std::vector<Celsius> keys{20.0, 21.0, 22.0};
    const std::size_t leader = TestFixture::kCooler ? 0 : 2;
    fillServer(c, leader);
    TypeParam group;
    group.assignKeys(keys.data(), 0, 3);
    for (int i = 0; i < 5; ++i) {
        const std::size_t id = group.place(c, 1.0);
        EXPECT_NE(id, leader);
        EXPECT_NE(id, kNoServer);
    }
    // Full until the next rebuild, even once a core frees up.
    c.removeJob(leader, WorkloadType::VirusScan);
    EXPECT_NE(group.place(c, 1.0), leader);
}

TYPED_TEST(PlacementGroup, AllFullReturnsNoServer)
{
    Cluster c = makeCluster(2);
    fillServer(c, 0);
    fillServer(c, 1);
    const std::vector<Celsius> keys{25.0, 25.0};
    TypeParam group;
    group.assignKeys(keys.data(), 0, 2);
    EXPECT_EQ(group.place(c, 1.0), kNoServer);
    EXPECT_EQ(group.place(c, 1.0), kNoServer);
    TypeParam empty;
    EXPECT_EQ(empty.place(c, 1.0), kNoServer);
}

TYPED_TEST(PlacementGroup, PlaceIfBelowRespectsLimit)
{
    if constexpr (!TestFixture::kCooler) {
        GTEST_SKIP() << "keep-warm fill is a coolest-first operation";
    } else {
        Cluster c = makeCluster(2);
        TypeParam group;
        group.add(c, 0); // 100 W idle.
        group.add(c, 1);
        // Limit 120 W: two 15 W placements per server fit, then every
        // member is at/above the limit and stays in the group.
        int placed = 0;
        while (group.placeIfBelow(c, 15.0, 120.0) != kNoServer)
            ++placed;
        EXPECT_EQ(placed, 4);
        EXPECT_NE(group.place(c, 15.0), kNoServer);
    }
}

TYPED_TEST(PlacementGroup, AddKeyedAfterAssignKeys)
{
    // A bulk fill of [0, 3) extended mid-interval by ids 3 and 4 (VMT-WA
    // growing its hot group): the appended members compete on equal
    // terms, including ties against the bulk-filled ones.
    Cluster c = makeCluster(5);
    const std::vector<Celsius> keys{30.0, 30.0, 30.0};
    TypeParam group;
    group.assignKeys(keys.data(), 0, 3);
    group.addKeyed(TestFixture::ahead(30.0), 3);
    group.addKeyed(30.0, 4);
    EXPECT_EQ(group.place(c, 0.0), 3u);
    fillServer(c, 3);
    // Ties among 0, 1, 2 and 4: smallest id first, or largest.
    EXPECT_EQ(group.place(c, 0.0), TestFixture::kCooler ? 0u : 4u);
}

TYPED_TEST(PlacementGroup, AssignKeysIfMatchesCompactedFill)
{
    constexpr std::size_t n = 80;
    Cluster c = makeCluster(n);
    Rng rng(0x6A3u);
    std::vector<Celsius> keys(n);
    std::vector<bool> keep(n);
    for (std::size_t id = 0; id < n; ++id) {
        keys[id] = 20.0 + 0.5 * static_cast<double>(rng.below(6));
        keep[id] = rng.below(3) != 0;
        if (rng.below(8) == 0)
            fillServer(c, id);
    }
    TypeParam masked;
    masked.assignKeysIf(keys.data(), 10, n,
                        [&](std::size_t id) { return keep[id]; });
    TypeParam compact;
    for (std::size_t id = 10; id < n; ++id) {
        if (keep[id])
            compact.addKeyed(keys[id], id);
    }
    for (int i = 0; i < 200; ++i) {
        const Watts watts = 2.5 * static_cast<double>(i % 3);
        const std::size_t a = masked.place(c, watts);
        ASSERT_EQ(a, compact.place(c, watts)) << "placement " << i;
        if (a == kNoServer)
            break;
        ASSERT_TRUE(keep[a]);
        ASSERT_GE(a, 10u);
    }
}

// ---------------------------------------------------------------------
// Randomized lockstep: BlockMinGroup against the reference heap.
// ---------------------------------------------------------------------

template <typename Order>
void
runGroupLockstep(std::uint64_t seed)
{
    constexpr std::size_t n = 70;
    Cluster c = makeCluster(n);
    BlockMinGroup<Order> blocks;
    TempOrderedGroup<Order> heap;
    std::vector<Celsius> keys(n);
    Rng rng(seed);
    std::size_t next_id = n; // Next id addKeyed may append (if < n).

    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 10) {
            // Interval rebuild over a prefix, keys from a small set so
            // ties are common.
            const std::size_t end = 1 + rng.below(n);
            for (Celsius &key : keys)
                key = 20.0 + 0.25 * static_cast<double>(rng.below(8));
            if (rng.below(2) == 0) {
                blocks.assignKeys(keys.data(), 0, end);
                heap.assignKeys(keys.data(), 0, end);
            } else {
                std::vector<bool> keep(n);
                for (std::size_t id = 0; id < n; ++id)
                    keep[id] = rng.below(4) != 0;
                const auto mask = [&](std::size_t id) {
                    return static_cast<bool>(keep[id]);
                };
                blocks.assignKeysIf(keys.data(), 0, end, mask);
                heap.assignKeysIf(keys.data(), 0, end, mask);
            }
            next_id = end;
        } else if (roll < 15) {
            // Mid-interval extension by the next id.
            if (next_id < n) {
                const Celsius key =
                    20.0 + 0.25 * static_cast<double>(rng.below(8));
                blocks.addKeyed(key, next_id);
                heap.addKeyed(key, next_id);
                ++next_id;
            }
        } else if (roll < 30) {
            // Capacity churn: fill a server or free it completely.
            const std::size_t id = rng.below(n);
            if (rng.below(2) == 0) {
                fillServer(c, id);
            } else {
                while (std::as_const(c).server(id).busyCores() > 0)
                    c.removeJob(id, WorkloadType::VirusScan);
            }
        } else if (roll < 40 && std::is_same_v<Order, CoolerFirst>) {
            const Watts limit = 100.0 + 10.0 * rng.below(20);
            if constexpr (std::is_same_v<Order, CoolerFirst>) {
                ASSERT_EQ(blocks.placeIfBelow(c, 2.5, limit),
                          heap.placeIfBelow(c, 2.5, limit))
                    << "op " << op;
            }
        } else {
            const Watts watts = 2.5 * static_cast<double>(rng.below(3));
            ASSERT_EQ(blocks.place(c, watts), heap.place(c, watts))
                << "op " << op;
        }
    }
}

TEST(PlacementGroupLockstep, CoolerFirst)
{
    runGroupLockstep<CoolerFirst>(0xB10C5EEDull);
}

TEST(PlacementGroupLockstep, HotterFirst)
{
    runGroupLockstep<HotterFirst>(0x4EA75EEDull);
}

// ---------------------------------------------------------------------
// Batch runs: placeRun against k per-job placements.
// ---------------------------------------------------------------------

using CoolGroup = BlockMinGroup<CoolerFirst>;

constexpr WorkloadType kRunType = WorkloadType::WebSearch;

/** Run lengths on both sides of the kBlock gate, plus a long run and
 *  one that exhausts any case of at most 100 servers (3,200 cores). */
constexpr std::array<std::size_t, 6> kRunLengths{1, 31, 32, 33, 200,
                                                 4000};

/** A batch-run scenario: one key per server id (all are members) and
 *  the cluster state before the run. */
struct RunCase
{
    std::vector<Celsius> keys;
    std::function<void(Cluster &)> setup = [](Cluster &) {};
};

/** What one run leaves behind. */
struct RunOutcome
{
    std::vector<std::size_t> ids;
    std::vector<Celsius> keys; // final key per member id
    std::vector<std::size_t> busy;
};

template <typename Group>
void
record(RunOutcome &r, const Group &group, const Cluster &c)
{
    for (std::size_t id = 0; id < c.numServers(); ++id) {
        r.keys.push_back(group.keyOf(id));
        r.busy.push_back(c.server(id).busyCores());
    }
}

/** k per-job place() calls (placeIfBelow with a limit), each followed
 *  by addJob, until the first kNoServer. */
template <typename Group>
RunOutcome
runPerJob(const RunCase &rc, Watts watts, std::size_t k,
          std::optional<Watts> limit)
{
    const std::size_t n = rc.keys.size();
    Cluster c = makeCluster(n);
    rc.setup(c);
    Group group;
    group.assignKeys(rc.keys.data(), 0, n);
    RunOutcome r;
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t id = limit
                                   ? group.placeIfBelow(c, watts, *limit)
                                   : group.place(c, watts);
        if (id == kNoServer)
            break;
        c.addJob(id, kRunType);
        r.ids.push_back(id);
    }
    record(r, group, c);
    return r;
}

RunOutcome
runBatch(const RunCase &rc, Watts watts, std::size_t k,
         std::optional<Watts> limit)
{
    const std::size_t n = rc.keys.size();
    Cluster c = makeCluster(n);
    rc.setup(c);
    CoolGroup group;
    group.assignKeys(rc.keys.data(), 0, n);
    RunOutcome r;
    const std::size_t placed =
        group.placeRun(c, kRunType, watts, k, r.ids, limit);
    EXPECT_EQ(placed, r.ids.size());
    record(r, group, c);
    return r;
}

void
expectSame(const RunOutcome &batch, const RunOutcome &seq)
{
    EXPECT_EQ(batch.ids, seq.ids);
    EXPECT_EQ(batch.keys, seq.keys);
    EXPECT_EQ(batch.busy, seq.busy);
}

/** placeRun must equal both per-job paths for every run length;
 *  returns the batch outcome of the longest run. */
RunOutcome
expectRunsMatch(const RunCase &rc, Watts watts,
                std::optional<Watts> limit = std::nullopt)
{
    RunOutcome batch;
    for (const std::size_t k : kRunLengths) {
        SCOPED_TRACE("k=" + std::to_string(k));
        batch = runBatch(rc, watts, k, limit);
        expectSame(batch, runPerJob<CoolGroup>(rc, watts, k, limit));
        expectSame(batch, runPerJob<TempOrderedGroup<CoolerFirst>>(
                              rc, watts, k, limit));
    }
    return batch;
}

/** The projected-temperature key of `limit` watts (placeIfBelow's). */
Celsius
limitKey(Watts limit)
{
    const ServerThermalParams thermal{};
    return thermal.inletTemp + thermal.airRisePerWatt * limit;
}

TEST(PlacementRun, TiesAcrossBlocks)
{
    // 100 members over four blocks, keys from three values, and a bump
    // that lands exactly on the next value: ties between untouched
    // and bumped members at every level, resolved by id.
    Rng rng(0x71E5ull);
    RunCase rc;
    for (std::size_t id = 0; id < 100; ++id)
        rc.keys.push_back(30.0 + 0.5 * static_cast<double>(rng.below(3)));
    const RunOutcome r = expectRunsMatch(rc, 12.5);
    EXPECT_EQ(r.ids.size(), 3200u);
}

TEST(PlacementRun, BumpsThatRoundTogetherKeepIdOrder)
{
    // Below 32.0 adjacent doubles are 2^-48 apart, above it 2^-47: two
    // keys one ulp apart can bump to the same successor. Give the
    // smaller key the larger id, so the sequential path pushes the
    // larger id's successor first and must still pop the smaller id
    // first among the equal successors.
    const Watts watts = 25.0;
    const double bump = ServerThermalParams{}.airRisePerWatt * watts;
    double low = 0.0;
    double high = 0.0;
    for (int j = 1; j <= 8 && low == 0.0; ++j) {
        const double hi = 32.0 - std::ldexp(static_cast<double>(j), -48);
        const double lo = std::nextafter(hi, 0.0);
        if (lo + bump == hi + bump)
            low = lo, high = hi;
    }
    ASSERT_NE(low, 0.0) << "no colliding pair for bump " << bump;
    ASSERT_LT(high, 32.0);
    RunCase rc;
    for (std::size_t id = 0; id < 40; ++id)
        rc.keys.push_back(id % 2 == 1 ? low : high);
    const RunOutcome r = expectRunsMatch(rc, watts);
    // Odd ids first (smaller key), then even ids; the third lap is by
    // id over the shared successor.
    ASSERT_GE(r.ids.size(), 41u);
    EXPECT_EQ(r.ids[0], 1u);
    EXPECT_EQ(r.ids[20], 0u);
    EXPECT_EQ(r.ids[40], 0u);
}

TEST(PlacementRun, FullQuarantinedAndFailedMembersDropWhenTheySurface)
{
    RunCase rc;
    for (std::size_t id = 0; id < 64; ++id)
        rc.keys.push_back(20.0 + 0.25 * static_cast<double>(id % 7));
    rc.keys[63] = 40.0; // Full, and last: dropped only by long runs.
    rc.setup = [](Cluster &c) {
        fillServer(c, 0);
        fillServer(c, 63);
        c.setHealth(7, ServerHealth::Quarantined);
        c.setHealth(14, ServerHealth::Failed);
        // Two free cores each: these fill mid-run.
        for (std::size_t id = 1; id <= 5; ++id)
            while (std::as_const(c).server(id).freeCores() > 2)
                c.addJob(id, WorkloadType::VirusScan);
    };
    const RunOutcome r = expectRunsMatch(rc, 10.0);
    EXPECT_EQ(r.keys[0], CoolerFirst::kDrop);
    EXPECT_EQ(r.keys[7], CoolerFirst::kDrop);
    EXPECT_EQ(r.keys[14], CoolerFirst::kDrop);
    EXPECT_EQ(r.keys[63], CoolerFirst::kDrop);
    for (std::size_t id = 1; id <= 5; ++id)
        EXPECT_EQ(r.busy[id], 32u);

    // A short run never reaches the full member keyed 40 C.
    const RunOutcome brief = runBatch(rc, 10.0, 33, std::nullopt);
    EXPECT_EQ(brief.keys[63], 40.0);
}

TEST(PlacementRun, ExhaustionDropsEveryMember)
{
    RunCase rc;
    for (std::size_t id = 0; id < 8; ++id)
        rc.keys.push_back(25.0 + static_cast<double>(id % 3));
    rc.setup = [](Cluster &c) {
        for (std::size_t id = 0; id < 8; ++id)
            while (std::as_const(c).server(id).freeCores() > id % 4)
                c.addJob(id, WorkloadType::VirusScan);
    };
    const RunOutcome r = expectRunsMatch(rc, 7.5);
    EXPECT_EQ(r.ids.size(), 12u); // 0+1+2+3 free cores, twice.
    for (const Celsius key : r.keys)
        EXPECT_EQ(key, CoolerFirst::kDrop);
}

TEST(PlacementRun, LimitStopsBeforeAFullMemberAtTheLimit)
{
    const Watts limit = 150.0;
    const Celsius stop = limitKey(limit);
    RunCase rc;
    for (std::size_t id = 0; id < 48; ++id)
        rc.keys.push_back(stop - 3.0 + 0.125 * static_cast<double>(id));
    rc.keys[0] = stop;       // Full and exactly at the limit: it stops
                             // the run and stays in the group.
    rc.keys[1] = stop - 4.0; // Full and below: dropped.
    rc.setup = [](Cluster &c) {
        fillServer(c, 0);
        fillServer(c, 1);
    };
    const RunOutcome r = expectRunsMatch(rc, 5.0, limit);
    EXPECT_EQ(r.keys[0], stop);
    EXPECT_EQ(r.keys[1], CoolerFirst::kDrop);
    EXPECT_LT(r.ids.size(), 200u);
    for (std::size_t id = 2; id < 48; ++id)
        EXPECT_GE(r.keys[id], stop);
}

TEST(PlacementRun, NegativeLimitPlacesNothing)
{
    // VMT-WA's keep-warm power is negative once the inlet is past the
    // melting point: its limit key is below every member.
    RunCase rc;
    for (std::size_t id = 0; id < 40; ++id)
        rc.keys.push_back(25.0 + 0.1 * static_cast<double>(id));
    ASSERT_LT(limitKey(-50.0), 25.0);
    const RunOutcome r = expectRunsMatch(rc, 5.0, -50.0);
    EXPECT_TRUE(r.ids.empty());
    EXPECT_EQ(r.keys, rc.keys);
}

TEST(PlacementRun, ZeroIncrementFillsOneMemberAtATime)
{
    RunCase rc;
    for (std::size_t id = 0; id < 40; ++id)
        rc.keys.push_back(30.0 - 0.5 * static_cast<double>(id % 4));
    rc.setup = [](Cluster &c) {
        for (std::size_t id = 0; id < 40; id += 5)
            c.addJob(id, WorkloadType::VirusScan);
    };
    const RunOutcome r = expectRunsMatch(rc, 0.0);
    // Server 3 (key 28.5, lowest id) takes all 32 cores first.
    ASSERT_GE(r.ids.size(), 33u);
    EXPECT_EQ(r.ids[0], 3u);
    EXPECT_EQ(r.ids[31], 3u);
    EXPECT_EQ(r.ids[32], 7u);
    expectRunsMatch(rc, 0.0, 200.0);
}

TEST(PlacementRun, LargeGroupsMatchOnBothSidesOfTheRankingGate)
{
    // 2,100 members fill 66 blocks: a run that has to rank the group
    // takes the batch path only from 66 jobs on.
    Rng rng(0x1A26Eull);
    RunCase rc;
    for (std::size_t id = 0; id < 2100; ++id)
        rc.keys.push_back(25.0 + 0.01 * static_cast<double>(rng.below(900)));
    rc.setup = [](Cluster &c) {
        for (std::size_t id = 0; id < 2100; id += 7)
            fillServer(c, id);
    };
    expectRunsMatch(rc, 5.0);
    for (const std::size_t k : {65, 66, 67}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        expectSame(runBatch(rc, 5.0, k, std::nullopt),
                   runPerJob<CoolGroup>(rc, 5.0, k, std::nullopt));
    }
}

/**
 * Randomized lockstep of batch runs interleaved with everything else a
 * group sees in an interval: rebuilds, mid-interval extensions,
 * single placements (which must invalidate the run order), capacity
 * churn and limits on either side of every key, negative ones
 * included. BlockMinGroup runs its batch path; the reference heap
 * replays each run job by job.
 */
TEST(PlacementRun, InterleavedWithSinglePlacementsMatchesTheReference)
{
    constexpr std::size_t n = 90;
    Cluster batch_cluster = makeCluster(n);
    Cluster ref_cluster = makeCluster(n);
    CoolGroup blocks;
    TempOrderedGroup<CoolerFirst> heap;
    std::vector<Celsius> keys(n);
    Rng rng(0xBA7C4ull);
    std::size_t next_id = n;
    const auto both = [&](auto &&mutate) {
        mutate(batch_cluster);
        mutate(ref_cluster);
    };
    std::vector<std::size_t> batch_ids;
    std::size_t runs = 0;
    for (int op = 0; op < 3000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const std::uint64_t roll = rng.below(100);
        const Watts watts = 2.5 * static_cast<double>(rng.below(6));
        if (roll < 8) {
            const std::size_t end = 1 + rng.below(n);
            for (Celsius &key : keys)
                key = 20.0 + 0.25 * static_cast<double>(rng.below(24));
            std::vector<bool> keep(n);
            for (std::size_t id = 0; id < n; ++id)
                keep[id] = rng.below(5) != 0;
            const auto mask = [&](std::size_t id) {
                return static_cast<bool>(keep[id]);
            };
            blocks.assignKeysIf(keys.data(), 0, end, mask);
            heap.assignKeysIf(keys.data(), 0, end, mask);
            next_id = end;
        } else if (roll < 12) {
            if (next_id < n) {
                const Celsius key =
                    20.0 + 0.25 * static_cast<double>(rng.below(24));
                blocks.addKeyed(key, next_id);
                heap.addKeyed(key, next_id);
                ++next_id;
            }
        } else if (roll < 27) {
            const std::size_t id = rng.below(n);
            const std::size_t keep_free = rng.below(4);
            both([&](Cluster &c) {
                if (keep_free == 3) {
                    for (const WorkloadType type : kAllWorkloads)
                        while (std::as_const(c)
                                   .server(id)
                                   .coreCounts()[workloadIndex(type)] > 0)
                            c.removeJob(id, type);
                } else {
                    while (std::as_const(c).server(id).freeCores() >
                           keep_free)
                        c.addJob(id, WorkloadType::VirusScan);
                }
            });
        } else if (roll < 45) {
            // One single placement on each side.
            const std::size_t id = blocks.place(batch_cluster, watts);
            ASSERT_EQ(id, heap.place(ref_cluster, watts));
            if (id != kNoServer) {
                batch_cluster.addJob(id, kRunType);
                ref_cluster.addJob(id, kRunType);
            }
        } else {
            // A run, with a limit half the time.
            const std::size_t k = 1 + rng.below(300);
            std::optional<Watts> limit;
            if (rng.below(2) == 0)
                limit = -100.0 + 10.0 * static_cast<double>(rng.below(60));
            batch_ids.clear();
            const std::size_t placed = blocks.placeRun(
                batch_cluster, kRunType, watts, k, batch_ids, limit);
            ASSERT_EQ(placed, batch_ids.size());
            for (std::size_t j = 0; j < k; ++j) {
                const std::size_t id =
                    limit ? heap.placeIfBelow(ref_cluster, watts, *limit)
                          : heap.place(ref_cluster, watts);
                if (id == kNoServer) {
                    ASSERT_EQ(j, placed);
                    break;
                }
                ASSERT_LT(j, placed);
                ASSERT_EQ(id, batch_ids[j]) << "pick " << j;
                ref_cluster.addJob(id, kRunType);
            }
            runs += placed >= CoolGroup::kBlock;
        }
        for (std::size_t id = 0; id < n; ++id)
            ASSERT_EQ(blocks.keyOf(id), heap.keyOf(id)) << "id " << id;
    }
    EXPECT_GT(runs, 40u); // The batch path ran, not just the gate.
}

} // namespace
} // namespace vmt
