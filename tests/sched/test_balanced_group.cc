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
 *                      implementations must answer identically.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
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

} // namespace
} // namespace vmt
