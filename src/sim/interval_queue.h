/**
 * @file
 * Interval-bucketed calendar queue for the drivers' departures (it
 * replaced a binary-heap event queue, which survives as the test
 * reference in tests/reference/event_queue.h).
 *
 * The drivers only ever drain events at fixed interval boundaries
 * (now = i * dt), so a binary heap's O(log N) per push/pop is wasted
 * generality. This queue files each event into the bucket of the
 * first interval boundary at or after its timestamp (O(1) push into
 * the dense window, O(1) pop plus a linear-time ordering pass per
 * bucket), and reproduces the heap's (time, then insertion order)
 * pop sequence exactly:
 *
 *  - bucket b holds times t with double(b)*dt >= t and, for b > 0,
 *    double(b-1)*dt < t — computed with the same floating-point
 *    expression the drivers use for interval boundaries, so the
 *    buckets partition timestamps strictly and draining buckets in
 *    index order is globally time-sorted;
 *  - a bucket receives its events in schedule order, so a stable
 *    sort by time alone reproduces the heap's tie-break. Each bucket
 *    is ordered once, when the drain reaches it and something in it
 *    can be due, by a counting sort over sub-ranges of its time span
 *    (orderByTime) — no comparison sort over the whole bucket;
 *  - the next bucket stays unordered while the drain sits on the
 *    boundary before it: its own events all postdate that boundary,
 *    so schedules into it are plain appends;
 *  - an event stamped in an already-drained bucket is late: it joins
 *    the front bucket and pops with it, ahead of every later time.
 *    Scheduled into a front that is mid-drain (e.g. a zero-duration
 *    job), it is inserted after every pending event with an equal or
 *    earlier time — exactly where the heap would surface it, since
 *    it is the newest.
 *
 * Memory scales with the number of pending events, whatever their
 * times: the queue stays anchored at its drain position, the
 * kWindow buckets from there on are dense, and events further out
 * wait in an overflow ordered by bucket until the window reaches
 * them. A time that is not finite, negative, or in a bucket whose
 * index reaches 2^53 is a fatal. Drained bucket storage is recycled
 * through a spare pool, so the steady state performs no allocation.
 */

#ifndef VMT_SIM_INTERVAL_QUEUE_H
#define VMT_SIM_INTERVAL_QUEUE_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/units.h"

namespace vmt {

/**
 * Time-ordered queue with FIFO tie-breaking, specialized for drains
 * at multiples of a fixed interval. Pop order is identical to the
 * binary heap's for any schedule/pop sequence.
 *
 * @tparam Payload Default-constructible, movable event payload.
 */
template <typename Payload>
class IntervalQueue
{
  public:
    /** @param interval The driver's step length dt (> 0). */
    explicit IntervalQueue(Seconds interval)
        : dt_(interval), invDt_(1.0 / interval),
          maxTime_(std::min(static_cast<double>(kMaxBucket) * interval,
                            std::numeric_limits<double>::max()))
    {
        if (!(interval > 0.0 && std::isfinite(interval)))
            fatal("IntervalQueue requires a positive interval");
    }

    /**
     * Schedule a payload at an absolute time.
     * @throws FatalError when the time is NaN, negative, or beyond
     *         the last representable bucket (infinite included).
     */
    void
    schedule(Seconds time, Payload payload)
    {
        const std::uint64_t b = bucketOf(time);
        Entry entry{time, std::move(payload)};
        if (b <= base_) {
            // The front bucket, or a drained one that pops with it.
            std::vector<Entry> &front = bucketAt(base_);
            if (frontSorted_) {
                const auto it = std::upper_bound(
                    front.begin() +
                        static_cast<std::ptrdiff_t>(cursor_),
                    front.end(), time,
                    [](Seconds t, const Entry &e) {
                        return t < e.time;
                    });
                front.insert(it, std::move(entry));
            } else {
                if (b < base_)
                    lateMin_ = std::min(lateMin_, time);
                front.push_back(std::move(entry));
            }
        } else if (b - base_ < kWindow) {
            bucketAt(b).push_back(std::move(entry));
        } else {
            overflow_[b].push_back(std::move(entry));
        }
        ++size_;
    }

    /** True when no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Timestamp of the earliest pending event; queue must not be
     *  empty. */
    Seconds
    nextTime()
    {
        if (!prepareFront())
            panic("IntervalQueue::nextTime on empty queue");
        return window_.front()[cursor_].time;
    }

    /** True when an event is due at or before the given time. */
    bool
    hasEventDue(Seconds now)
    {
        for (;;) {
            if (window_.empty()) {
                // Anchor at the drain position, or at the first
                // overflow bucket if that comes sooner.
                std::uint64_t next = bucketAfter(now);
                if (!overflow_.empty())
                    next = std::min(next, overflow_.begin()->first);
                if (next > base_)
                    advanceTo(next);
                if (window_.empty())
                    return false;
            }
            std::vector<Entry> &front = window_.front();
            if (cursor_ == front.size()) {
                // Drained; retire it once the drain reaches its
                // boundary (later buckets hold only later times).
                if (static_cast<double>(base_) * dt_ > now)
                    return false;
                retireFront();
                continue;
            }
            if (!frontSorted_) {
                // Nothing in the front can be due while `now` is at
                // or before the previous boundary and before its
                // earliest late event: leave the front unordered.
                if (base_ > 0 &&
                    now <= static_cast<double>(base_ - 1) * dt_ &&
                    now < lateMin_)
                    return false;
                orderFront();
            }
            return front[cursor_].time <= now;
        }
    }

    /** Pop the earliest event's payload; queue must not be empty. */
    Payload
    pop()
    {
        if (!prepareFront())
            panic("IntervalQueue::pop on empty queue");
        Payload payload =
            std::move(window_.front()[cursor_].payload);
        ++cursor_;
        --size_;
        return payload;
    }

    /**
     * Visit every pending event as fn(time, payload) in pop order
     * (checkpoint save): bucket by bucket, each ordered on a copy.
     * The queue itself is not modified; feeding the visited sequence
     * back through restoreFront() + schedule() on a fresh queue
     * reproduces this queue's pop order exactly, since the stable
     * order by time keeps the visited tie order.
     */
    template <typename Fn>
    void
    visitPending(Fn &&fn) const
    {
        std::vector<Entry> ordered;
        std::vector<Entry> scratch;
        std::vector<std::size_t> ends;
        const auto visit = [&](const std::vector<Entry> &bucket,
                               std::size_t from) {
            ordered.assign(bucket.begin() +
                               static_cast<std::ptrdiff_t>(from),
                           bucket.end());
            orderByTime(ordered, scratch, ends);
            for (const Entry &entry : ordered)
                fn(entry.time, entry.payload);
        };
        for (std::size_t bi = 0; bi < window_.size(); ++bi)
            visit(window_[bi], bi == 0 ? cursor_ : 0);
        for (const auto &[b, bucket] : overflow_)
            visit(bucket, 0);
    }

    /**
     * Pin a fresh queue's drain position to the bucket of `now`
     * before re-filling it from a checkpoint, so the rebuilt queue
     * files every event in the same bucket as the saved one did.
     */
    void
    restoreFront(Seconds now)
    {
        if (size_ != 0 || !window_.empty())
            panic("IntervalQueue::restoreFront on non-empty queue");
        advanceTo(bucketOf(now));
    }

  private:
    struct Entry
    {
        Seconds time;
        Payload payload;
    };

    /** Largest bucket index: every index up to it is an exact
     *  double, so the boundary expression stays strictly monotone. */
    static constexpr std::uint64_t kMaxBucket =
        (std::uint64_t{1} << 53) - 1;
    /** Dense buckets from the drain position on; later ones wait in
     *  the overflow. */
    static constexpr std::uint64_t kWindow = 4096;
    /** Spare vectors kept beyond this are freed. */
    static constexpr std::size_t kMaxSpare = 64;
    /** Sub-ranges longer than this are ordered by std::stable_sort
     *  rather than insertion sort. */
    static constexpr std::size_t kInsertionMax = 16;

    [[noreturn]] static void
    badTime(Seconds time, const char *why)
    {
        char text[32];
        char *end = std::to_chars(text, text + sizeof(text), time).ptr;
        fatal("IntervalQueue: event time " + std::string(text, end) +
              " s " + why);
    }

    /** Smallest b with double(b) * dt >= time. The cast-then-multiply
     *  form matches the driver's boundary expression bit for bit; the
     *  initial multiply-by-1/dt guess is only a guess — the
     *  correction loops (one iteration in practice) make the result
     *  exact, so no division is needed on this path. */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (std::isnan(time))
            badTime(time, "is not a number");
        if (time < 0.0)
            badTime(time, "is negative");
        if (!(time <= maxTime_))
            badTime(time, "is beyond the last bucket (index 2^53)");
        auto b = std::min(static_cast<std::uint64_t>(time * invDt_),
                          kMaxBucket);
        while (b > 0 && static_cast<double>(b - 1) * dt_ >= time)
            --b;
        while (static_cast<double>(b) * dt_ < time)
            ++b;
        return b;
    }

    /** Smallest bucket whose boundary lies after `now`: every bucket
     *  before it can only hold events due by `now`. */
    std::uint64_t
    bucketAfter(Seconds now) const
    {
        if (!(now >= 0.0))
            return 0;
        if (!(now < maxTime_))
            return kMaxBucket + 1;
        const std::uint64_t b = bucketOf(now);
        return static_cast<double>(b) * dt_ > now ? b : b + 1;
    }

    /** The storage for in-window bucket b, growing the window as
     *  needed. */
    std::vector<Entry> &
    bucketAt(std::uint64_t b)
    {
        const auto i = static_cast<std::size_t>(b - base_);
        while (window_.size() <= i)
            window_.push_back(takeSpare());
        return window_[i];
    }

    /** Make bucket b the (unordered) front and move the overflow
     *  buckets the window now covers into it. Overflow events were
     *  all scheduled before their bucket entered the window, so they
     *  go first, in their schedule order. */
    void
    advanceTo(std::uint64_t b)
    {
        base_ = b;
        cursor_ = 0;
        frontSorted_ = false;
        lateMin_ = std::numeric_limits<Seconds>::infinity();
        while (!overflow_.empty() &&
               overflow_.begin()->first - base_ < kWindow) {
            auto node = overflow_.extract(overflow_.begin());
            bucketAt(node.key()).swap(node.mapped());
            recycle(std::move(node.mapped()));
        }
    }

    /** Advance to the first bucket with undrained events, ordering
     *  it on first touch. Returns false when the queue is empty. */
    bool
    prepareFront()
    {
        for (;;) {
            if (window_.empty()) {
                if (overflow_.empty())
                    return false;
                advanceTo(overflow_.begin()->first);
            }
            if (cursor_ < window_.front().size()) {
                if (!frontSorted_)
                    orderFront();
                return true;
            }
            retireFront();
        }
    }

    /** Drop the fully drained front bucket, recycling its storage. */
    void
    retireFront()
    {
        recycle(std::move(window_.front()));
        window_.pop_front();
        advanceTo(base_ + 1);
    }

    void
    orderFront()
    {
        orderByTime(window_.front(), scratch_, ends_);
        frontSorted_ = true;
    }

    /**
     * Stable-sort a bucket by time in linear expected time: count the
     * entries into n sub-ranges of [lo, hi], scatter them in input
     * order, then order each sub-range by insertion sort with a
     * strict `<` (std::stable_sort when crowded). The sub-range index
     * (t - lo) / (hi - lo) * n is monotone in t, and the quotient
     * lies in [0, 1] even for a subnormal span, so it never
     * overflows; the result is the bucket sorted by time with equal
     * times in input order.
     */
    static void
    orderByTime(std::vector<Entry> &bucket, std::vector<Entry> &scratch,
                std::vector<std::size_t> &ends)
    {
        const std::size_t n = bucket.size();
        if (n < 2)
            return;
        Seconds lo = bucket.front().time;
        Seconds hi = lo;
        for (const Entry &entry : bucket) {
            lo = std::min(lo, entry.time);
            hi = std::max(hi, entry.time);
        }
        if (lo == hi)
            return; // One time: input order is pop order.
        const Seconds span = hi - lo;
        const auto parts = static_cast<double>(n);
        const auto part = [&](Seconds t) {
            return std::min(
                n - 1, static_cast<std::size_t>((t - lo) / span * parts));
        };
        ends.assign(n, 0);
        for (const Entry &entry : bucket)
            ++ends[part(entry.time)];
        std::size_t start = 0;
        for (std::size_t &end : ends) {
            const std::size_t count = end;
            end = start;
            start += count;
        }
        scratch.resize(n);
        for (Entry &entry : bucket)
            scratch[ends[part(entry.time)]++] = std::move(entry);
        start = 0;
        for (const std::size_t end : ends) {
            sortRun(scratch.begin() + static_cast<std::ptrdiff_t>(start),
                    scratch.begin() + static_cast<std::ptrdiff_t>(end));
            start = end;
        }
        bucket.swap(scratch);
    }

    /** Stable sort of one sub-range by time. */
    template <typename It>
    static void
    sortRun(It first, It last)
    {
        if (last - first < 2)
            return;
        if (static_cast<std::size_t>(last - first) > kInsertionMax) {
            const auto earlier = [](const Entry &a, const Entry &b) {
                return a.time < b.time;
            };
            if (!std::is_sorted(first, last, earlier))
                std::stable_sort(first, last, earlier);
            return;
        }
        for (It it = first + 1; it != last; ++it) {
            Entry entry = std::move(*it);
            It hole = it;
            for (; hole != first && entry.time < (hole - 1)->time; --hole)
                *hole = std::move(*(hole - 1));
            *hole = std::move(entry);
        }
    }

    void
    recycle(std::vector<Entry> &&bucket)
    {
        bucket.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(bucket));
    }

    std::vector<Entry>
    takeSpare()
    {
        if (spare_.empty())
            return {};
        std::vector<Entry> v = std::move(spare_.back());
        spare_.pop_back();
        return v;
    }

    Seconds dt_;
    double invDt_;
    /** Boundary of bucket kMaxBucket (finite): the latest
     *  schedulable time. */
    Seconds maxTime_;
    /** Buckets base_ .. base_ + window_.size() - 1 (< kWindow). */
    std::deque<std::vector<Entry>> window_;
    /** Buckets at base_ + kWindow and beyond, by index. */
    std::map<std::uint64_t, std::vector<Entry>> overflow_;
    /** Bucket index of the front: the drain position. */
    std::uint64_t base_ = 0;
    /** Drain position within the (ordered) front bucket. */
    std::size_t cursor_ = 0;
    bool frontSorted_ = false;
    /** Earliest late event filed into the unordered front. */
    Seconds lateMin_ = std::numeric_limits<Seconds>::infinity();
    std::vector<std::vector<Entry>> spare_;
    /** orderByTime's work buffers, kept between drains. */
    std::vector<Entry> scratch_;
    std::vector<std::size_t> ends_;
    std::size_t size_ = 0;
};

} // namespace vmt

#endif // VMT_SIM_INTERVAL_QUEUE_H
