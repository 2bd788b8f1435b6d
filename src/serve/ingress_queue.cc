#include "serve/ingress_queue.h"

#include <algorithm>

#include "state/resume_check.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt::serve {

IngressQueue::IngressQueue(std::size_t capacity) : ring_(capacity)
{
    if (capacity == 0)
        fatal("IngressQueue requires a positive capacity");
}

std::size_t
IngressQueue::pushAll(const std::vector<FeedJob> &jobs)
{
    const std::size_t n = std::min(jobs.size(), ring_.size() - count_);
    // At most two contiguous runs: to the end of the ring, then from
    // its start.
    const std::size_t tail = slot(count_);
    const std::size_t first = std::min(n, ring_.size() - tail);
    std::copy_n(jobs.begin(), first, ring_.begin() + tail);
    std::copy_n(jobs.begin() + first, n - first, ring_.begin());
    count_ += n;
    return n;
}

void
IngressQueue::pop(std::size_t n)
{
    if (n > count_)
        panic("IngressQueue::pop past the end of the queue");
    head_ = slot(n);
    count_ -= n;
}

void
IngressQueue::rotate(std::size_t n)
{
    if (n > count_)
        panic("IngressQueue::rotate past the end of the queue");
    // Copying in order is safe even once the write position wraps
    // onto the front: it then lands on an entry already copied.
    std::size_t from = head_;
    std::size_t to = slot(count_);
    for (std::size_t i = 0; i < n; ++i) {
        ring_[to] = ring_[from];
        if (++from == ring_.size())
            from = 0;
        if (++to == ring_.size())
            to = 0;
    }
    head_ = from;
}

std::size_t
IngressQueue::dropExpired(Seconds cutoff, std::size_t budget)
{
    std::size_t scanned = 0;
    std::size_t live = 0;
    while (scanned < count_ && (budget == 0 || live < budget)) {
        if (!(at(scanned).time < cutoff))
            ++live;
        ++scanned;
    }
    const std::size_t expired = scanned - live;
    if (expired == 0)
        return 0;
    // Slide the live entries, in order, to the back of the scanned
    // range, then drop its front.
    std::size_t to = scanned;
    for (std::size_t from = scanned; from-- > 0;) {
        if (!(at(from).time < cutoff))
            ring_[slot(--to)] = at(from);
    }
    pop(expired);
    return expired;
}

std::size_t
IngressQueue::clear()
{
    const std::size_t dropped = count_;
    head_ = 0;
    count_ = 0;
    return dropped;
}

void
IngressQueue::saveState(Serializer &out) const
{
    out.putSize(ring_.size());
    out.putSize(count_);
    for (std::size_t i = 0; i < count_; ++i)
        saveFeedJob(out, at(i));
}

void
IngressQueue::loadState(Deserializer &in)
{
    const std::size_t capacity = in.getSize();
    ResumeCheck("serve snapshot").u64("ingress capacity", capacity,
                                      ring_.size());
    if (count_ != 0)
        fatal("IngressQueue::loadState on a non-empty queue");
    const std::size_t pending = in.getSize();
    if (pending > capacity)
        fatal("serve snapshot ingress depth exceeds its capacity");
    head_ = 0;
    count_ = pending;
    for (std::size_t i = 0; i < pending; ++i)
        ring_[i] = loadFeedJob(in, "INGR");
}

} // namespace vmt::serve
