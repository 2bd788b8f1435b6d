/**
 * @file
 * The serving driver's retired per-job shard router: a max-heap of
 * (free cores, shard id), popped and re-pushed once per routed job.
 * serve/waterfill.h computes the same routing level by level; the
 * serve suite checks the two against each other.
 */

#ifndef VMT_TESTS_REFERENCE_WATERFILL_HEAP_H
#define VMT_TESTS_REFERENCE_WATERFILL_HEAP_H

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

namespace vmt::reference {

/** Most free cores first, ties to the lowest shard id. */
struct MoreFree
{
    bool operator()(const std::pair<std::size_t, std::size_t> &a,
                    const std::pair<std::size_t, std::size_t> &b) const
    {
        if (a.first != b.first)
            return a.first < b.first;
        return a.second > b.second;
    }
};

/**
 * Route up to @p jobs jobs one at a time: each goes to the heap's top
 * shard, which then has one core fewer; stop when the top has none.
 * Appends each routed job's shard to @p shards, debits @p free and
 * returns the number routed.
 */
inline std::size_t
waterfillHeap(std::vector<std::size_t> &free, std::size_t jobs,
              std::vector<std::size_t> &shards)
{
    std::priority_queue<std::pair<std::size_t, std::size_t>,
                        std::vector<std::pair<std::size_t, std::size_t>>,
                        MoreFree>
        heap;
    for (std::size_t s = 0; s < free.size(); ++s)
        heap.push({free[s], s});
    std::size_t routed = 0;
    for (; routed < jobs; ++routed) {
        const auto [cores, s] = heap.top();
        if (cores == 0)
            break;
        heap.pop();
        shards.push_back(s);
        free[s] = cores - 1;
        heap.push({cores - 1, s});
    }
    return routed;
}

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_WATERFILL_HEAP_H
