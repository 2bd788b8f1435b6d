/**
 * @file
 * Temperature-ordered placement groups: block-min selection over
 * dense double keys (DESIGN.md §14).
 *
 * Section III-A: "Within each group, jobs are distributed evenly
 * among the servers." Even distribution must hold for the resulting
 * *temperatures*, not just arrival counts — departures are random and
 * inlet temperatures vary between slots (Section V-D), so a rotating
 * cursor lets per-server thermal state drift by several kelvin. A
 * group therefore keys each member by its *projected steady-state air
 * temperature* (inlet plus rise-per-watt times current power,
 * refreshed once per scheduling interval and bumped by every
 * placement), so each new job lands on the member that will run
 * coolest — or, in the hottest-first order, the melt-preservation
 * policy packs hot jobs onto the hottest member instead.
 *
 * BlockMinGroup keeps a flat key array cut into fixed blocks plus a
 * per-block best-key cache ("front"): the interval rebuild is one
 * memcpy-shaped fill plus one fold pass, and each placement scans the
 * front for the best block, then the block for the best entry —
 * O(n/B + B) ≈ O(sqrt n) folds, all on plain doubles. The fold loops
 * run four independent accumulators, so they pipeline on the FP
 * min/max units at plain -O2 instead of serializing on one
 * accumulator's latency chain (min/max are exact regardless of
 * association, unlike FP sums — that is what makes the unroll free).
 *
 * Decision contract: members pop in the strict (temp, id) total order
 * — coolest first with ties to the smallest id, or hottest first with
 * ties to the largest id — the order of the binary-heap reference in
 * tests/reference/temp_ordered_group.h, which `ctest -L sched`
 * compares against. Ties are broken by *position*: every fill path
 * appends servers in ascending id order (asserted), so "first
 * position among equal keys" IS "smallest id" (and last position is
 * largest id). The dropped-entry sentinel is +-infinity, which no
 * finite temperature reaches, so it orders strictly after every live
 * entry.
 */

#ifndef VMT_SCHED_BLOCK_MIN_GROUP_H
#define VMT_SCHED_BLOCK_MIN_GROUP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "server/cluster.h"
#include "util/units.h"

namespace vmt {

/** Coolest-first order: ascending key, ties to the smallest id. */
struct CoolerFirst
{
    /** Dropped-entry sentinel: orders after every live key. */
    static constexpr double kDrop =
        std::numeric_limits<double>::infinity();
    static double fold(double a, double b) { return std::min(a, b); }
    /** Ties: smallest id = first position. */
    static std::size_t pick(const double *x, double m)
    {
        std::size_t k = 0;
        while (x[k] != m)
            ++k;
        return k;
    }
};

/** Hottest-first order: descending key, ties to the largest id. */
struct HotterFirst
{
    static constexpr double kDrop =
        -std::numeric_limits<double>::infinity();
    static double fold(double a, double b) { return std::max(a, b); }
    // Ties pop the largest id = last position; locate() scans
    // backward instead of using a forward pick.
};

/** Fold a key run with four independent accumulator chains. Exact:
 *  min/max give the same result under any association. */
template <typename Order>
inline double
foldRun(const double *x, std::size_t n)
{
    if (n < 4) { // n >= 1 (callers guard empty runs)
        double m = x[0];
        if (n > 1)
            m = Order::fold(m, x[1]);
        if (n > 2)
            m = Order::fold(m, x[2]);
        return m;
    }
    const std::size_t n4 = n & ~std::size_t{3};
    double m0 = x[0], m1 = x[1], m2 = x[2], m3 = x[3];
    std::size_t k = 4;
    for (; k < n4; k += 4) {
        m0 = Order::fold(m0, x[k]);
        m1 = Order::fold(m1, x[k + 1]);
        m2 = Order::fold(m2, x[k + 2]);
        m3 = Order::fold(m3, x[k + 3]);
    }
    double m = Order::fold(Order::fold(m0, m1), Order::fold(m2, m3));
    for (; k < n; ++k)
        m = Order::fold(m, x[k]);
    return m;
}

/**
 * Placement group in `Order` (CoolerFirst or HotterFirst), with an
 * O(n) fold rebuild and O(sqrt n) placements.
 *
 * Precondition: servers are added in ascending id order (every
 * interval rebuild iterates ids forward; asserted in debug builds).
 */
template <typename Order>
class BlockMinGroup
{
  public:
    /** Entries per block; the front holds one key per block. */
    static constexpr std::size_t kBlock = 32;

    /** Drop all members (storage is retained across intervals). */
    void clear()
    {
        fill_ = 0;
        blocks_ = 0;
        implicitBase_ = kNoServer;
        frontDirty_ = false;
    }

    /** Add one server keyed by its projected steady-state air
     *  temperature (inlet + rise-per-watt x current power). */
    void add(const Cluster &cluster, std::size_t id)
    {
        const Server &srv = cluster.server(id);
        const Celsius projected =
            srv.inletTemp() + cluster.thermalParams().airRisePerWatt *
                                  srv.power(cluster.powerModel());
        addKeyed(projected, id);
    }

    /** Add one server with a caller-computed key. Ids must arrive
     *  ascending (the position tie-break depends on it). The front is
     *  rebuilt lazily on the next placement, so a fill is just
     *  appends. */
    void addKeyed(Celsius temp, std::size_t id)
    {
        assert(fill_ == 0 || id > idAt(fill_ - 1));
        if (implicitBase_ != kNoServer)
            materializeIds();
        if (fill_ == blocks_ * kBlock) {
            // Resize keeps stale keys from the previous interval in
            // re-used slots, so pad the whole new block explicitly.
            keys_.resize(fill_ + kBlock);
            std::fill(keys_.begin() +
                          static_cast<std::ptrdiff_t>(fill_),
                      keys_.end(), Order::kDrop);
            ids_.resize(fill_ + kBlock, 0);
            front_.resize(blocks_ + 1);
            ++blocks_;
        }
        keys_[fill_] = temp;
        ids_[fill_] = id;
        ++fill_;
        frontDirty_ = true;
    }

    /**
     * Replace the contents with servers [begin, end) keyed by
     * keys[id] — the interval rebuild: one dense copy, one fold pass,
     * and ids stay implicit (id = begin + position).
     */
    void assignKeys(const Celsius *keys, std::size_t begin,
                    std::size_t end)
    {
        const std::size_t n = end - begin;
        fill_ = n;
        implicitBase_ = begin;
        blocks_ = (n + kBlock - 1) / kBlock;
        keys_.resize(blocks_ * kBlock);
        front_.resize(blocks_);
        if (n > 0)
            std::memcpy(keys_.data(), keys + begin,
                        n * sizeof(double));
        for (std::size_t k = n; k < blocks_ * kBlock; ++k)
            keys_[k] = Order::kDrop;
        for (std::size_t b = 0; b < blocks_; ++b)
            front_[b] =
                foldRun<Order>(keys_.data() + b * kBlock, kBlock);
        frontDirty_ = false;
    }

    /**
     * Masked bulk rebuild: like assignKeys, but positions where
     * `keep(id)` is false hold the drop sentinel instead of their
     * key. A dropped slot is never selected, so the live-entry
     * multiset — and every decision — matches a compacted fill of
     * only the kept ids; keeping the dense layout turns the branchy
     * partition append into a branchless select the compiler lowers
     * without mispredict stalls.
     */
    template <typename Keep>
    void assignKeysIf(const Celsius *keys, std::size_t begin,
                      std::size_t end, Keep &&keep)
    {
        const std::size_t n = end - begin;
        fill_ = n;
        implicitBase_ = begin;
        blocks_ = (n + kBlock - 1) / kBlock;
        keys_.resize(blocks_ * kBlock);
        front_.resize(blocks_);
        for (std::size_t k = 0; k < n; ++k)
            keys_[k] =
                keep(begin + k) ? keys[begin + k] : Order::kDrop;
        for (std::size_t k = n; k < blocks_ * kBlock; ++k)
            keys_[k] = Order::kDrop;
        for (std::size_t b = 0; b < blocks_; ++b)
            front_[b] =
                foldRun<Order>(keys_.data() + b * kBlock, kBlock);
        frontDirty_ = false;
    }

    /**
     * Place one job: select the first-ordered member with a free
     * core, fold `added_watts` into its key in place, and return its
     * id. Members found full are dropped until the next rebuild.
     * @return Server id, or kNoServer when every member is full.
     */
    std::size_t place(Cluster &cluster, Watts added_watts)
    {
        const KelvinPerWatt rise =
            cluster.thermalParams().airRisePerWatt;
        ensureFront();
        while (blocks_ > 0) {
            const double m = foldRun<Order>(front_.data(), blocks_);
            if (m == Order::kDrop)
                break;
            const auto [idx, id] = locate(m);
            if (!std::as_const(cluster).server(id).hasCapacity()) {
                drop(idx);
                continue;
            }
            keys_[idx] = m + rise * added_watts;
            refold(idx / kBlock);
            return id;
        }
        return kNoServer;
    }

    /**
     * Like place(), but only while the best member's key is still
     * below the projected-temperature equivalent of `limit` watts
     * (VMT-WA keep-warm fill). Coolest-first order only.
     */
    std::size_t placeIfBelow(Cluster &cluster, Watts added_watts,
                             Watts limit)
    {
        static_assert(std::is_same_v<Order, CoolerFirst>,
                      "keep-warm fill is a coolest-first operation");
        const ServerThermalParams &thermal = cluster.thermalParams();
        const KelvinPerWatt rise = thermal.airRisePerWatt;
        const Celsius temp_limit = thermal.inletTemp + rise * limit;
        ensureFront();
        while (blocks_ > 0) {
            const double m = foldRun<Order>(front_.data(), blocks_);
            if (m == Order::kDrop || m >= temp_limit)
                break; // Everyone is warm enough already (or gone).
            const auto [idx, id] = locate(m);
            if (!std::as_const(cluster).server(id).hasCapacity()) {
                drop(idx);
                continue;
            }
            keys_[idx] = m + rise * added_watts;
            refold(idx / kBlock);
            return id;
        }
        return kNoServer;
    }

  private:
    std::size_t idAt(std::size_t pos) const
    {
        return implicitBase_ != kNoServer ? implicitBase_ + pos
                                          : ids_[pos];
    }

    /** Switch from implicit ids to the explicit array (only needed
     *  when add() extends an assignKeys() fill mid-interval). */
    void materializeIds()
    {
        ids_.resize(keys_.size());
        for (std::size_t k = 0; k < fill_; ++k)
            ids_[k] = implicitBase_ + k;
        implicitBase_ = kNoServer;
    }

    /** Find the entry holding the best key `m`: best block in the
     *  front, then best position in that block. */
    std::pair<std::size_t, std::size_t> locate(double m) const
    {
        std::size_t b, off;
        if constexpr (std::is_same_v<Order, CoolerFirst>) {
            b = Order::pick(front_.data(), m);
            off = Order::pick(keys_.data() + b * kBlock, m);
        } else {
            // Hottest-first ties pop the largest id = last position.
            b = blocks_;
            while (front_[--b] != m) {}
            const double *blk = keys_.data() + b * kBlock;
            off = kBlock;
            while (blk[--off] != m) {}
        }
        const std::size_t idx = b * kBlock + off;
        return {idx, idAt(idx)};
    }

    /** Remove a capacity-exhausted entry until the next rebuild. */
    void drop(std::size_t idx)
    {
        keys_[idx] = Order::kDrop;
        refold(idx / kBlock);
    }

    /** Rebuild every block's front after deferred appends. */
    void ensureFront()
    {
        if (!frontDirty_)
            return;
        for (std::size_t b = 0; b < blocks_; ++b)
            front_[b] =
                foldRun<Order>(keys_.data() + b * kBlock, kBlock);
        frontDirty_ = false;
    }

    /** Recompute one block's front key after a member changed. */
    void refold(std::size_t b)
    {
        front_[b] =
            foldRun<Order>(keys_.data() + b * kBlock, kBlock);
    }

    std::vector<double> keys_;      // blocks_ * kBlock, kDrop-padded
    std::vector<std::size_t> ids_;  // parallel; unused while implicit
    std::vector<double> front_;     // best key per block
    std::size_t fill_ = 0;
    std::size_t blocks_ = 0;
    /** True while appends have outrun the per-block front cache. */
    bool frontDirty_ = false;
    /** id of position 0 when ids are implicit; kNoServer otherwise. */
    std::size_t implicitBase_ = kNoServer;
};

} // namespace vmt

#endif // VMT_SCHED_BLOCK_MIN_GROUP_H
