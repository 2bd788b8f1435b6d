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
 * placeRun places a run of same-type jobs (coolest-first only) as one
 * merge over the live members ranked by (key, position): the
 * untouched members in ranked order against a FIFO of bumped
 * successors. Every pick adds the same increment, so the sequential
 * path's pops are that merge, and its decisions, final keys and
 * drops are bitwise those of per-job place() calls (DESIGN.md §14,
 * "Batch runs").
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
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
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
        orderValid_ = false;
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
        orderValid_ = false;
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
        orderValid_ = false;
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
        orderValid_ = false;
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
            orderValid_ = false;
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
        const KelvinPerWatt rise =
            cluster.thermalParams().airRisePerWatt;
        const Celsius temp_limit = limitKey(cluster, limit);
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
            orderValid_ = false;
            return id;
        }
        return kNoServer;
    }

    /**
     * Place a run of `k` jobs of one type, applying each pick with
     * Cluster::addJob and appending its id to `out`. Bitwise the same
     * as k successive place() calls — placeIfBelow(limit) calls when
     * `limit` is given — each followed by addJob: the same ids, final
     * keys and drops. Stops where that sequence first returns
     * kNoServer (every member dropped, or the best key at or above
     * the limit) without consuming or dropping the member that stops
     * it. Coolest-first order only.
     *
     * A batch run costs O(k) plus, when the group's ranked order is
     * stale, O(group) to rebuild it; a per-job placement costs
     * O(sqrt group). Runs shorter than kBlock take the per-job path.
     * @return Jobs placed (the leading part of the run).
     */
    std::size_t placeRun(Cluster &cluster, WorkloadType type,
                         Watts watts, std::size_t k,
                         std::vector<std::size_t> &out,
                         std::optional<Watts> limit = std::nullopt)
    {
        static_assert(std::is_same_v<Order, CoolerFirst>,
                      "batch runs are a coolest-first operation");
        const double bump =
            cluster.thermalParams().airRisePerWatt * watts;
        // The merge needs keys that only rise (bump >= 0, not NaN).
        if (k < kBlock || !(bump >= 0.0))
            return placeEach(cluster, type, watts, k, out, limit);
        const Celsius stop =
            limit ? limitKey(cluster, *limit) : Order::kDrop;
        if (!orderValid_) {
            // A per-job placement folds O(blocks), ranking the group
            // costs O(members): a run that must rank it first needs a
            // job per block to repay that (this binds only above
            // kBlock * kBlock members), and a run that stops at once
            // (every key at the limit, as in a warm keep-warm group)
            // needs no ranking.
            if (k < blocks_)
                return placeEach(cluster, type, watts, k, out, limit);
            ensureFront();
            const double best = blocks_ > 0
                                    ? foldRun<Order>(front_.data(), blocks_)
                                    : Order::kDrop;
            if (best >= stop)
                return 0;
            if (!buildOrder())
                return placeEach(cluster, type, watts, k, out, limit);
        }
        return mergeRun(cluster, type, bump, k, out, stop);
    }

    /** Current key of member `id` (kDrop once dropped, or when `id`
     *  is not a member). Linear; for tests and diagnostics. */
    Celsius keyOf(std::size_t id) const
    {
        for (std::size_t pos = 0; pos < fill_; ++pos) {
            if (idAt(pos) == id)
                return keys_[pos];
        }
        return Order::kDrop;
    }

  private:
    /** One ranked member: key, position and, for a member bumped in
     *  the current run, its cores left. */
    struct Ranked
    {
        double key;
        std::size_t pos;
        std::size_t left;
    };

    /** The strict (key, position) order members pop in. */
    static bool ranksBefore(const Ranked &a, const Ranked &b)
    {
        return a.key < b.key || (a.key == b.key && a.pos < b.pos);
    }

    /** The key equivalent of `limit` watts (placeIfBelow's bound). */
    static Celsius limitKey(const Cluster &cluster, Watts limit)
    {
        const ServerThermalParams &thermal = cluster.thermalParams();
        return thermal.inletTemp + thermal.airRisePerWatt * limit;
    }

    /** placeRun's per-job path. */
    std::size_t placeEach(Cluster &cluster, WorkloadType type,
                          Watts watts, std::size_t k,
                          std::vector<std::size_t> &out,
                          std::optional<Watts> limit)
    {
        std::size_t placed = 0;
        for (; placed < k; ++placed) {
            const std::size_t id =
                limit ? placeIfBelow(cluster, watts, *limit)
                      : place(cluster, watts);
            if (id == kNoServer)
                break;
            cluster.addJob(id, type);
            out.push_back(id);
        }
        return placed;
    }

    /**
     * Rank the live members by (key, position) into order_: a stable
     * bucket sort (bucket index monotone in the key; members
     * scattered in position order), then an insertion pass that never
     * crosses a bucket boundary. False, with no order, when the keys
     * cannot be bucketed (a NaN or infinite key, or a key range too
     * wide or too narrow to scale); the caller then takes the per-job
     * path.
     */
    bool buildOrder()
    {
        // Branchless compaction: masked groups drop members in no
        // predictable pattern.
        order_.resize(fill_);
        std::size_t m = 0;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        bool nan = false;
        for (std::size_t pos = 0; pos < fill_; ++pos) {
            const double x = keys_[pos];
            const bool live = x != Order::kDrop;
            order_[m] = Ranked{x, pos, 0};
            m += live;
            lo = std::min(lo, live ? x : lo);
            hi = std::max(hi, live ? x : hi);
            nan |= x != x;
        }
        order_.resize(m);
        if (nan || (m > 0 && !std::isfinite(hi - lo)))
            return false;
        if (m > 1 && hi > lo) {
            // Equal keys need no sort: position order is rank order.
            const double scale = static_cast<double>(m) / (hi - lo);
            if (!std::isfinite(scale))
                return false;
            // (x - lo) * scale is monotone in x and lies in [0, m(1+e)];
            // clamp in double before the integer cast. `left` holds the
            // bucket until the scatter (members read their cores when
            // they surface).
            const double top = static_cast<double>(m - 1);
            bucketStart_.assign(m + 1, 0);
            for (Ranked &r : order_) {
                r.left = static_cast<std::size_t>(
                    std::min((r.key - lo) * scale, top));
                ++bucketStart_[r.left + 1];
            }
            for (std::size_t b = 1; b <= m; ++b)
                bucketStart_[b] += bucketStart_[b - 1];
            scratch_.resize(m);
            for (const Ranked &r : order_)
                scratch_[bucketStart_[r.left]++] = r;
            order_.swap(scratch_);
            for (std::size_t i = 1; i < m; ++i) {
                const Ranked r = order_[i];
                std::size_t j = i;
                for (; j > 0 && order_[j - 1].key > r.key; --j)
                    order_[j] = order_[j - 1];
                order_[j] = r;
            }
        }
        orderBegin_ = 0;
        orderValid_ = true;
        return true;
    }

    /**
     * The batch path of placeRun. The sequential path always pops the
     * least (key, position) live member, and a pick turns key v into
     * v + bump, so its pops are a merge of two sorted streams:
     *  - A: members not yet picked this run (order_ from
     *    orderBegin_), and
     *  - B: bumped successors (bumped_), pushed in nondecreasing key
     *    order because rounding is monotone; two keys can round to
     *    one successor, so a push moves past equal keys with larger
     *    positions.
     * An A member's cores are read when it surfaces (no pick of this
     * run touched it); a B entry carries its own count. A member with
     * no free core is dropped exactly when it surfaces, as place()
     * drops it. The unconsumed tails of both streams, merged in
     * place, are the next run's order.
     */
    std::size_t mergeRun(Cluster &cluster, WorkloadType type,
                         double bump, std::size_t k,
                         std::vector<std::size_t> &out, Celsius stop)
    {
        const std::size_t an = order_.size();
        std::size_t ai = orderBegin_;
        std::size_t bi = 0;
        bumped_.clear();
        bumped_.reserve(k);
        std::size_t placed = 0;
        while (placed < k) {
            const bool have_b = bi < bumped_.size();
            const bool from_a =
                ai < an &&
                (!have_b || ranksBefore(order_[ai], bumped_[bi]));
            if (!from_a && !have_b)
                break; // Every member dropped.
            Ranked head = from_a ? order_[ai] : bumped_[bi];
            if (head.key >= stop)
                break; // At the limit (or overflowed to kDrop).
            const std::size_t id = idAt(head.pos);
            if (from_a) {
                ++ai;
                const Server &srv = std::as_const(cluster).server(id);
                head.left = srv.hasCapacity() ? srv.freeCores() : 0;
            } else {
                ++bi;
            }
            if (head.left == 0) {
                keys_[head.pos] = Order::kDrop;
                continue;
            }
            cluster.addJob(id, type);
            out.push_back(id);
            ++placed;
            head.key += bump;
            --head.left;
            keys_[head.pos] = head.key;
            bumped_.push_back(head);
            for (std::size_t j = bumped_.size() - 1;
                 j > bi && bumped_[j - 1].key == head.key &&
                 bumped_[j - 1].pos > head.pos;
                 --j)
                std::swap(bumped_[j - 1], bumped_[j]);
        }
        if (ai == orderBegin_ && bumped_.empty())
            return 0; // Stopped at the first head: nothing changed.
        // Merge B's tail into the consumed front of A's storage. Each
        // live B entry is a member consumed from A, so the merge
        // starts at or after orderBegin_ and never overtakes A's
        // read position; A's entries past B's last one stay put.
        // O(B tail + the A entries that interleave with it).
        assert(bumped_.size() - bi <= ai - orderBegin_);
        std::size_t w = ai - (bumped_.size() - bi);
        orderBegin_ = w;
        for (; bi < bumped_.size(); ++w) {
            if (ai < an && ranksBefore(order_[ai], bumped_[bi]))
                order_[w] = order_[ai++];
            else
                order_[w] = bumped_[bi++];
        }
        frontDirty_ = true;
        return placed;
    }

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
        orderValid_ = false;
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

    // Batch-run state, allocated on the first run.
    /** Live members in (key, position) order, order_[orderBegin_..];
     *  valid while orderValid_ (any other key change or fill clears
     *  it). */
    std::vector<Ranked> order_;
    std::size_t orderBegin_ = 0;
    std::vector<Ranked> bumped_;  // B stream of the current run
    std::vector<Ranked> scratch_; // bucket scatter
    std::vector<std::size_t> bucketStart_;
    bool orderValid_ = false;
};

/**
 * placeJobs for the group policies: cut `jobs` into maximal same-type
 * runs. A run shorter than kBlock goes job by job through
 * `place_one(job)` plus Cluster::addJob, the Scheduler::placeJobs
 * default; a longer one goes to `place_run(type, k)`, which appends
 * at most k entries to `out`, and the rest of that run is filled with
 * kNoServer.
 */
template <typename PlaceOne, typename PlaceRun>
void
placeTypeRuns(Cluster &cluster, std::span<const Job> jobs,
              std::vector<std::size_t> &out, PlaceOne &&place_one,
              PlaceRun &&place_run)
{
    out.clear();
    out.reserve(jobs.size());
    for (std::size_t begin = 0; begin < jobs.size();) {
        const WorkloadType type = jobs[begin].type;
        std::size_t end = begin + 1;
        while (end < jobs.size() && jobs[end].type == type)
            ++end;
        if (end - begin < BlockMinGroup<CoolerFirst>::kBlock) {
            for (std::size_t k = begin; k < end; ++k) {
                const std::size_t id = place_one(jobs[k]);
                if (id != kNoServer)
                    cluster.addJob(id, type);
                out.push_back(id);
            }
        } else {
            place_run(type, end - begin);
            out.resize(end, kNoServer);
        }
        begin = end;
    }
}

} // namespace vmt

#endif // VMT_SCHED_BLOCK_MIN_GROUP_H
