/**
 * @file
 * The serving driver's shard router: a water-fill of jobs over the
 * shards' free cores, computed level by level instead of job by job.
 */

#ifndef VMT_SERVE_WATERFILL_H
#define VMT_SERVE_WATERFILL_H

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

namespace vmt::serve {

/**
 * Route up to @p jobs jobs over shards holding @p free[s] free cores:
 * each job goes to the shard with the most free cores, ties to the
 * lowest id, and takes one of them. Calls @p emit(s) once per routed
 * job, in job order, debits @p free by what each shard took, and
 * returns the number routed, min(jobs, sum of free).
 *
 * Closed form: at level v every shard with free >= v takes one job,
 * in ascending id order, before the level drops to v - 1. Between two
 * adjacent distinct free values the set of such shards is fixed, so
 * job j of that stretch goes to active[j mod |active|]. Sorting the
 * shards once makes the cost O(S log S + jobs), with no per-job heap
 * operation.
 */
template <typename Emit>
std::size_t
waterfill(std::vector<std::size_t> &free, std::size_t jobs, Emit &&emit)
{
    const std::size_t total =
        std::accumulate(free.begin(), free.end(), std::size_t{0});
    const std::size_t routed = std::min(jobs, total);
    if (routed == 0)
        return 0;
    std::vector<std::size_t> order(free.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&free](std::size_t a, std::size_t b) {
                  return free[a] != free[b] ? free[a] > free[b] : a < b;
              });

    std::vector<std::size_t> active; // Ascending id.
    active.reserve(free.size());
    std::size_t next = 0; // First shard of `order` not yet active.
    std::size_t level = free[order[0]];
    for (std::size_t left = routed; left > 0;) {
        const std::size_t joined = active.size();
        while (next < order.size() && free[order[next]] == level)
            active.push_back(order[next++]);
        std::inplace_merge(active.begin(),
                           active.begin() +
                               static_cast<std::ptrdiff_t>(joined),
                           active.end());
        const std::size_t floor =
            next < order.size() ? free[order[next]] : 0;
        const std::size_t take =
            std::min(left, (level - floor) * active.size());
        const std::size_t rounds = take / active.size();
        const std::size_t rest = take % active.size();
        for (std::size_t r = 0; r < rounds; ++r)
            for (const std::size_t s : active)
                emit(s);
        for (std::size_t i = 0; i < rest; ++i)
            emit(active[i]);
        for (std::size_t i = 0; i < active.size(); ++i)
            free[active[i]] -= rounds + (i < rest ? 1 : 0);
        left -= take;
        level = floor;
    }
    return routed;
}

} // namespace vmt::serve

#endif // VMT_SERVE_WATERFILL_H
