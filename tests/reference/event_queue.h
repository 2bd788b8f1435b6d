/**
 * @file
 * A binary-heap event queue with FIFO tie-breaking: the simulation
 * driver's original departure queue, which IntervalQueue
 * (sim/interval_queue.h) replaced. Kept as the pop-order oracle for
 * IntervalQueue's tests.
 */

#ifndef VMT_TESTS_REFERENCE_EVENT_QUEUE_H
#define VMT_TESTS_REFERENCE_EVENT_QUEUE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "util/units.h"

namespace vmt::reference {

/**
 * Priority queue of timestamped events. Events with equal timestamps
 * pop in insertion order so simulation replays are deterministic.
 *
 * @tparam Payload Copyable event payload.
 */
template <typename Payload>
class EventQueue
{
  public:
    /** Schedule a payload at an absolute time. */
    void
    schedule(Seconds time, Payload payload)
    {
        heap_.push(Entry{time, nextSeq_++, std::move(payload)});
    }

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Timestamp of the earliest pending event; queue must not be
     *  empty. */
    Seconds nextTime() const { return heap_.top().time; }

    /** True when an event is due at or before the given time. */
    bool
    hasEventDue(Seconds now) const
    {
        return !heap_.empty() && heap_.top().time <= now;
    }

    /** Pop the earliest event's payload; queue must not be empty. */
    Payload
    pop()
    {
        Payload payload = heap_.top().payload;
        heap_.pop();
        return payload;
    }

  private:
    struct Entry
    {
        Seconds time;
        std::uint64_t seq;
        Payload payload;

        bool
        operator>(const Entry &o) const
        {
            if (time != o.time)
                return time > o.time;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_EVENT_QUEUE_H
