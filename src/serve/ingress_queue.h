/**
 * @file
 * Bounded FIFO ring buffer between a JobFeed and the serving driver's
 * admission step. Fixed capacity: overload sheds arrivals instead of
 * growing the slot table without bound (the backpressure half of the
 * serving mode's admission control).
 */

#ifndef VMT_SERVE_INGRESS_QUEUE_H
#define VMT_SERVE_INGRESS_QUEUE_H

#include <cstddef>
#include <vector>

#include "serve/job_feed.h"

namespace vmt {

class Serializer;
class Deserializer;

namespace serve {

/** Fixed-capacity FIFO of pending arrivals. */
class IngressQueue
{
  public:
    /** @throws FatalError on zero capacity. */
    explicit IngressQueue(std::size_t capacity);

    /** Enqueue the longest prefix of @p jobs that fits; returns its
     *  length (the rest are dropped: overload sheds). */
    std::size_t pushAll(const std::vector<FeedJob> &jobs);

    /** The i-th oldest queued arrival; requires i < size(). */
    const FeedJob &at(std::size_t i) const { return ring_[slot(i)]; }

    /** Drop the @p n oldest queued arrivals; requires n <= size(). */
    void pop(std::size_t n);

    /** Move the @p n oldest queued arrivals, in order, behind the
     *  rest: the same ring as popping them and pushing them back. */
    void rotate(std::size_t n);

    /**
     * The queue-age deadline at the admission pop. The popped range
     * is the queue's front up to and including its @p budget-th entry
     * with time >= @p cutoff (the whole queue when @p budget is 0 or
     * the queue holds fewer). Drops the entries of that range older
     * than @p cutoff and keeps the others, in order, at the front.
     * Returns the number dropped.
     */
    std::size_t dropExpired(Seconds cutoff, std::size_t budget);

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Drop everything queued (the shed admission policy). Returns
     *  the number of entries discarded. */
    std::size_t clear();

    /** Serialize the queued jobs in FIFO order. */
    void saveState(Serializer &out) const;

    /** Restore into an empty queue of the same capacity. @throws
     *  FatalError on a corrupt entry (unknown workload type, or a
     *  non-finite or negative time or duration). */
    void loadState(Deserializer &in);

  private:
    /** Ring index of the i-th oldest entry (i <= capacity). */
    std::size_t slot(std::size_t i) const
    {
        const std::size_t index = head_ + i;
        return index < ring_.size() ? index : index - ring_.size();
    }

    std::vector<FeedJob> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace serve
} // namespace vmt

#endif // VMT_SERVE_INGRESS_QUEUE_H
