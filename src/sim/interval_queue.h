/**
 * @file
 * Interval-bucketed calendar queue for the simulation driver's
 * departures (it replaced a binary-heap event queue, which survives as
 * the test reference in tests/reference/event_queue.h).
 *
 * The driver only ever drains events at fixed interval boundaries
 * (now = i * dt), so a binary heap's O(log N) per push/pop is wasted
 * generality. This queue files each event into the bucket of the
 * first interval boundary at or after its timestamp (O(1) push,
 * amortized O(1) pop plus one sort per bucket), and reproduces the
 * heap's (time, then insertion order) pop sequence exactly:
 *
 *  - bucket b holds times t with double(b)*dt >= t and, for b > 0,
 *    double(b-1)*dt < t — computed with the same floating-point
 *    expression the driver uses for interval boundaries, so the
 *    buckets partition timestamps strictly and draining buckets in
 *    index order is globally time-sorted;
 *  - each bucket is sorted by (time, seq) once, when draining reaches
 *    it, so equal-time events pop in insertion order;
 *  - an event scheduled at or before the drain point (e.g. a
 *    zero-duration job) is placed, in (time, seq) order, into the
 *    undrained remainder of the active bucket — exactly where the
 *    heap would surface it.
 *
 * Drained bucket storage is recycled through a spare pool, so the
 * steady state performs no allocation.
 */

#ifndef VMT_SIM_INTERVAL_QUEUE_H
#define VMT_SIM_INTERVAL_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
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
 * @tparam Payload Copyable event payload.
 */
template <typename Payload>
class IntervalQueue
{
  public:
    /** @param interval The driver's step length dt (> 0). */
    explicit IntervalQueue(Seconds interval)
        : dt_(interval), invDt_(1.0 / interval)
    {
        if (interval <= 0.0)
            fatal("IntervalQueue requires a positive interval");
    }

    /** Schedule a payload at an absolute time (>= 0). */
    void
    schedule(Seconds time, Payload payload)
    {
        std::uint64_t b = bucketOf(time);
        if (!buckets_.empty() && b < base_)
            b = base_; // Bucket already retired; drains next.
        Entry entry{time, nextSeq_++, std::move(payload)};
        if (!buckets_.empty() && b == base_ && frontSorted_) {
            // The active bucket is mid-drain: keep its undrained
            // tail sorted so the entry pops in (time, seq) order.
            auto &front = buckets_.front();
            const auto it = std::upper_bound(
                front.begin() +
                    static_cast<std::ptrdiff_t>(cursor_),
                front.end(), entry, orderBefore);
            front.insert(it, std::move(entry));
        } else {
            bucketAt(b).push_back(std::move(entry));
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
        return buckets_.front()[cursor_].time;
    }

    /** True when an event is due at or before the given time. */
    bool
    hasEventDue(Seconds now)
    {
        return prepareFront() && buckets_.front()[cursor_].time <= now;
    }

    /** Pop the earliest event's payload; queue must not be empty. */
    Payload
    pop()
    {
        if (!prepareFront())
            panic("IntervalQueue::pop on empty queue");
        Payload payload =
            std::move(buckets_.front()[cursor_].payload);
        ++cursor_;
        --size_;
        return payload;
    }

    /**
     * Visit every pending event as fn(time, payload) in pop order
     * (checkpoint save). The queue itself is not modified; feeding
     * the visited sequence back through restoreFront() + schedule()
     * on a fresh queue reproduces this queue's pop order exactly —
     * (time, seq) sorting preserves the relative tie-break order even
     * though the fresh queue assigns new sequence numbers.
     */
    template <typename Fn>
    void
    visitPending(Fn &&fn) const
    {
        std::vector<Entry> pending;
        pending.reserve(size_);
        for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
            const auto &bucket = buckets_[bi];
            for (std::size_t i = (bi == 0 ? cursor_ : 0);
                 i < bucket.size(); ++i)
                pending.push_back(bucket[i]);
        }
        std::sort(pending.begin(), pending.end(), orderBefore);
        for (const Entry &entry : pending)
            fn(entry.time, entry.payload);
    }

    /**
     * Pin an empty queue's drain front to the bucket of `now` before
     * re-filling it from a checkpoint. Without this, the rebuilt
     * queue's front would sit at the earliest *pending* event, and an
     * event scheduled later for an earlier (now empty) bucket would
     * be misfiled into it. Must be called on a freshly constructed
     * queue.
     */
    void
    restoreFront(Seconds now)
    {
        if (!buckets_.empty() || size_ != 0)
            panic("IntervalQueue::restoreFront on non-empty queue");
        base_ = bucketOf(now);
        cursor_ = 0;
        frontSorted_ = false;
        buckets_.push_back(takeSpare());
    }

  private:
    struct Entry
    {
        Seconds time;
        std::uint64_t seq;
        Payload payload;
    };

    static bool
    orderBefore(const Entry &a, const Entry &b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        return a.seq < b.seq;
    }

    /** Smallest b with double(b) * dt >= time. The cast-then-multiply
     *  form matches the driver's boundary expression bit for bit; the
     *  initial multiply-by-1/dt guess is only a guess — the
     *  correction loops (one iteration in practice) make the result
     *  exact, so no division is needed on this path. */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (time < 0.0)
            fatal("IntervalQueue requires non-negative times");
        auto b = static_cast<std::uint64_t>(time * invDt_);
        while (b > 0 && static_cast<double>(b - 1) * dt_ >= time)
            --b;
        while (static_cast<double>(b) * dt_ < time)
            ++b;
        return b;
    }

    /** The storage for bucket index b, growing the window as needed. */
    std::vector<Entry> &
    bucketAt(std::uint64_t b)
    {
        if (buckets_.empty()) {
            base_ = b;
            cursor_ = 0;
            frontSorted_ = false;
            buckets_.push_back(takeSpare());
            return buckets_.front();
        }
        while (base_ + buckets_.size() <= b)
            buckets_.push_back(takeSpare());
        return buckets_[static_cast<std::size_t>(b - base_)];
    }

    /** Advance to the first bucket with undrained events, sorting it
     *  on first touch. Returns false when the queue is empty. */
    bool
    prepareFront()
    {
        while (!buckets_.empty()) {
            auto &front = buckets_.front();
            if (cursor_ < front.size()) {
                if (!frontSorted_) {
                    std::sort(front.begin(), front.end(),
                              orderBefore);
                    frontSorted_ = true;
                }
                return true;
            }
            retireFront();
        }
        return false;
    }

    /** Drop the fully drained front bucket, recycling its storage. */
    void
    retireFront()
    {
        auto &front = buckets_.front();
        front.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(front));
        buckets_.pop_front();
        ++base_;
        cursor_ = 0;
        frontSorted_ = false;
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

    /** Spare vectors kept beyond this are freed. */
    static constexpr std::size_t kMaxSpare = 64;

    Seconds dt_;
    double invDt_;
    std::deque<std::vector<Entry>> buckets_;
    /** Bucket index of buckets_.front(). */
    std::uint64_t base_ = 0;
    /** Drain position within the (sorted) front bucket. */
    std::size_t cursor_ = 0;
    bool frontSorted_ = false;
    std::vector<std::vector<Entry>> spare_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace vmt

#endif // VMT_SIM_INTERVAL_QUEUE_H
