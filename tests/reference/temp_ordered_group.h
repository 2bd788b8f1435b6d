/**
 * @file
 * The binary-heap placement group that BlockMinGroup replaced
 * (sched/block_min_group.h): a 4-ary heap of (projected temperature,
 * server id) with a lazy Floyd heapify on bulk fills and in-place key
 * bumps on placement. Because (temp, id) is a strict total order, its
 * pop sequence depends only on the entry multiset, never on the heap
 * layout — which makes it an independent oracle for BlockMinGroup's
 * decisions (tests/sched/test_balanced_group.cc).
 */

#ifndef VMT_TESTS_REFERENCE_TEMP_ORDERED_GROUP_H
#define VMT_TESTS_REFERENCE_TEMP_ORDERED_GROUP_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sched/block_min_group.h"
#include "sched/scheduler.h"
#include "server/cluster.h"
#include "util/units.h"

namespace vmt::reference {

/** One heap member: a server keyed by projected air temperature. */
struct GroupEntry
{
    Celsius temp;
    std::size_t id;
};

/** True when `a` pops before `b` in the given BlockMinGroup order. */
template <typename Order> struct PopsBefore;

template <> struct PopsBefore<CoolerFirst>
{
    bool operator()(const GroupEntry &a, const GroupEntry &b) const
    {
        if (a.temp != b.temp)
            return a.temp < b.temp;
        return a.id < b.id;
    }
};

template <> struct PopsBefore<HotterFirst>
{
    bool operator()(const GroupEntry &a, const GroupEntry &b) const
    {
        if (a.temp != b.temp)
            return a.temp > b.temp;
        return a.id > b.id;
    }
};

/** Heap with BlockMinGroup's interface and decisions. */
template <typename Order>
class TempOrderedGroup
{
  public:
    /** Drop all members. */
    void clear()
    {
        heap_.clear();
        dirty_ = false;
    }

    /** True when no members remain placeable this interval. */
    bool empty() const { return heap_.empty(); }

    /** Number of members still in the heap. */
    std::size_t size() const { return heap_.size(); }

    /** Current key of member `id`; kDrop once it has been dropped
     *  (or was never added). */
    Celsius keyOf(std::size_t id) const
    {
        for (const GroupEntry &entry : heap_) {
            if (entry.id == id)
                return entry.temp;
        }
        return Order::kDrop;
    }

    /** Add one server keyed by its projected steady-state air
     *  temperature (inlet + rise-per-watt x current power). */
    void add(const Cluster &cluster, std::size_t id)
    {
        const Server &srv = cluster.server(id);
        addKeyed(srv.inletTemp() + cluster.thermalParams().airRisePerWatt *
                                       srv.power(cluster.powerModel()),
                 id);
    }

    /** Add one server with a caller-computed key. */
    void addKeyed(Celsius temp, std::size_t id)
    {
        heap_.push_back(GroupEntry{temp, id});
        dirty_ = true;
    }

    /** Replace the contents with servers [begin, end) keyed by
     *  keys[id]; heapified lazily on first use. */
    void assignKeys(const Celsius *keys, std::size_t begin,
                    std::size_t end)
    {
        clear();
        for (std::size_t id = begin; id < end; ++id)
            addKeyed(keys[id], id);
    }

    /** Replace the contents with the servers in [begin, end) for
     *  which keep(id) holds (a compacted fill). */
    template <typename Keep>
    void assignKeysIf(const Celsius *keys, std::size_t begin,
                      std::size_t end, Keep &&keep)
    {
        clear();
        for (std::size_t id = begin; id < end; ++id) {
            if (keep(id))
                addKeyed(keys[id], id);
        }
    }

    /**
     * Place one job: pop the first-ordered member with a free core,
     * re-insert it with `added_watts` folded into its key, and return
     * its id. Members found full are dropped until the next rebuild.
     * @return Server id, or kNoServer when every member is full.
     */
    std::size_t place(Cluster &cluster, Watts added_watts)
    {
        return placeWhile(cluster, added_watts, [](Celsius) {
            return true;
        });
    }

    /** Like place(), but only while the first member's key is below
     *  the projected-temperature equivalent of `limit` watts; members
     *  at or above it stay in the heap. */
    std::size_t placeIfBelow(Cluster &cluster, Watts added_watts,
                             Watts limit)
    {
        const ServerThermalParams &thermal = cluster.thermalParams();
        const Celsius temp_limit =
            thermal.inletTemp + thermal.airRisePerWatt * limit;
        return placeWhile(cluster, added_watts, [&](Celsius key) {
            return key < temp_limit;
        });
    }

  private:
    template <typename Accept>
    std::size_t placeWhile(Cluster &cluster, Watts added_watts,
                           Accept &&accept)
    {
        const KelvinPerWatt rise =
            cluster.thermalParams().airRisePerWatt;
        ensureHeap();
        while (!heap_.empty()) {
            if (!accept(heap_[0].temp))
                return kNoServer;
            if (!std::as_const(cluster)
                     .server(heap_[0].id)
                     .hasCapacity()) {
                popRoot(); // Full until the next interval rebuild.
                continue;
            }
            const std::size_t id = heap_[0].id;
            heap_[0].temp += rise * added_watts;
            siftDown(0);
            return id;
        }
        return kNoServer;
    }

    /** Heapify heap_ if adds arrived since the last ordered access. */
    void ensureHeap()
    {
        if (!dirty_)
            return;
        // Floyd heapify: sift every internal node down, last first.
        const std::size_t n = heap_.size();
        if (n > 1) {
            for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;)
                siftDown(i);
        }
        dirty_ = false;
    }

    /** Restore the heap property downward from node i (4-ary: the
     *  children of i are 4i+1..4i+4). */
    void siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        const GroupEntry moving = heap_[i];
        const PopsBefore<Order> before{};
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t last = std::min(first + 4, n);
            std::size_t child = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(heap_[c], heap_[child]))
                    child = c;
            }
            if (!before(heap_[child], moving))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = moving;
    }

    /** Remove the root (capacity-exhausted member). */
    void popRoot()
    {
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    std::vector<GroupEntry> heap_;
    bool dirty_ = false;
};

/** Coolest-first heap (the balanced-placement reference). */
using BalancedGroup = TempOrderedGroup<CoolerFirst>;

/** Hottest-first heap (melt-preservation packing order). */
using PackingGroup = TempOrderedGroup<HotterFirst>;

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_TEMP_ORDERED_GROUP_H
