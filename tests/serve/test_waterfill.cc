/**
 * @file
 * The closed-form shard router (serve/waterfill.h) against the
 * retired per-job heap (reference/waterfill_heap.h): the same shard
 * for every job, the same routed count and the same final free
 * counts, over randomized fleets with forced ties and empty shards and
 * job counts below, at and above the fleet's free capacity.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "reference/waterfill_heap.h"
#include "serve/waterfill.h"
#include "util/rng.h"

namespace vmt::serve {
namespace {

std::vector<std::size_t>
route(std::vector<std::size_t> &free, std::size_t jobs,
      std::size_t &routed)
{
    std::vector<std::size_t> shards;
    routed = waterfill(free, jobs,
                       [&shards](std::size_t s) { shards.push_back(s); });
    return shards;
}

TEST(Waterfill, FillsLevelByLevelInShardOrder)
{
    // Level 5: shards 1 and 2; level 4: 1 and 2 again; level 3: shard
    // 0 joins, and ties go to the lowest id.
    std::vector<std::size_t> free{3, 5, 5, 0, 1};
    std::size_t routed = 0;
    EXPECT_EQ(route(free, 7, routed),
              (std::vector<std::size_t>{1, 2, 1, 2, 0, 1, 2}));
    EXPECT_EQ(routed, 7u);
    EXPECT_EQ(free, (std::vector<std::size_t>{2, 2, 2, 0, 1}));
}

TEST(Waterfill, StopsWhenTheFleetIsFull)
{
    std::vector<std::size_t> free{0, 2, 0, 1};
    std::size_t routed = 0;
    EXPECT_EQ(route(free, 10, routed),
              (std::vector<std::size_t>{1, 1, 3}));
    EXPECT_EQ(routed, 3u);
    EXPECT_EQ(free, (std::vector<std::size_t>{0, 0, 0, 0}));

    std::vector<std::size_t> none{0, 0};
    EXPECT_TRUE(route(none, 5, routed).empty());
    EXPECT_EQ(routed, 0u);
}

TEST(Waterfill, MatchesThePerJobHeapOnRandomFleets)
{
    Rng rng(2018);
    // Mostly small free counts, so that routing at and above the
    // capacity stays cheap for the heap; one case in a hundred has up
    // to four shards with up to 10^5 free cores each.
    constexpr std::size_t kScales[] = {0, 1, 2, 3, 10, 40, 300, 1000};
    constexpr int kCases = 12000;
    std::size_t compared = 0;
    for (int c = 0; c < kCases; ++c) {
        const bool deep = rng.below(100) == 0;
        const std::size_t shards = 1 + rng.below(deep ? 4 : 64);
        const std::size_t scale =
            deep ? 100000 : kScales[rng.below(std::size(kScales))];
        std::vector<std::size_t> free(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            const std::uint64_t pick = rng.below(10);
            if (pick < 2)
                free[s] = 0;
            else if (pick < 5 && s > 0)
                free[s] = free[rng.below(s)]; // A tie.
            else
                free[s] = rng.below(scale + 1);
        }
        const std::size_t total =
            std::accumulate(free.begin(), free.end(), std::size_t{0});
        std::size_t jobs = 0;
        switch (c % 3) {
        case 0:
            jobs = total > 0 ? rng.below(total) : 0;
            break;
        case 1:
            jobs = total;
            break;
        default:
            jobs = total + 1 + rng.below(100);
            break;
        }

        std::vector<std::size_t> heap_free = free;
        std::vector<std::size_t> heap_shards;
        const std::size_t heap_routed =
            reference::waterfillHeap(heap_free, jobs, heap_shards);
        std::size_t routed = 0;
        const std::vector<std::size_t> shards_of =
            route(free, jobs, routed);

        ASSERT_EQ(routed, heap_routed) << "case " << c;
        ASSERT_EQ(routed, std::min(jobs, total)) << "case " << c;
        ASSERT_EQ(shards_of, heap_shards) << "case " << c;
        ASSERT_EQ(free, heap_free) << "case " << c;
        compared += routed;
    }
    EXPECT_GT(compared, 1000000u);
}

} // namespace
} // namespace vmt::serve
