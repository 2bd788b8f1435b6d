/**
 * @file
 * The departure ring as it was before its flat power-of-two slot
 * array: in-window buckets in a std::deque anchored at the drain
 * position, bucket arithmetic in unsigned 64-bit, the same overflow
 * map and spare pool. Kept as the exact-order oracle for
 * DepartureRing (sim/departure_ring.h): driven by the same calls,
 * both must drain the same records in the same order, visit the same
 * (index, records) and write the same saveState() bytes.
 *
 * Only the core of the ring is kept (schedule, drain, removeIf,
 * forEachBucket, saveState, loadState); the legacy loader and the
 * evacuation/migration rules work on either ring through that core.
 */

#ifndef VMT_TESTS_REFERENCE_DEQUE_DEPARTURE_RING_H
#define VMT_TESTS_REFERENCE_DEQUE_DEPARTURE_RING_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "util/units.h"

namespace vmt {
class Deserializer;
class Serializer;
} // namespace vmt

namespace vmt::reference {

class DequeDepartureRing
{
  public:
    /** server * kNumWorkloads + type. */
    using Record = std::uint32_t;

    /** @throws FatalError on a non-positive interval. */
    DequeDepartureRing(Seconds interval, std::size_t servers);

    void
    schedule(Seconds due, Record record)
    {
        file(std::max(bucketOf(due), base_), record);
    }

    template <typename Fn>
    void
    drain(Seconds now, Fn &&fn)
    {
        const std::uint64_t limit = bucketAfter(now);
        while (base_ < limit) {
            if (window_.empty()) {
                std::uint64_t next = limit;
                if (!overflow_.empty())
                    next = std::min(next, overflow_.begin()->first);
                advanceTo(next);
                continue;
            }
            std::vector<Record> &front = window_.front();
            for (const Record record : front)
                fn(record);
            size_ -= front.size();
            recycle(std::move(front));
            window_.pop_front();
            advanceTo(base_ + 1);
        }
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    Seconds
    boundary(std::uint64_t b) const
    {
        return static_cast<double>(b) * dt_;
    }

    template <typename Fn>
    void
    forEachBucket(Fn &&fn)
    {
        for (std::size_t i = 0; i < window_.size(); ++i)
            if (!window_[i].empty())
                fn(base_ + i, window_[i]);
        for (auto &[b, bucket] : overflow_)
            fn(b, bucket);
    }

    template <typename Fn>
    void
    forEachBucket(Fn &&fn) const
    {
        for (std::size_t i = 0; i < window_.size(); ++i)
            if (!window_[i].empty())
                fn(base_ + i, std::as_const(window_[i]));
        for (const auto &[b, bucket] : overflow_)
            fn(b, bucket);
    }

    template <typename Pred>
    void
    removeIf(Pred &&pred)
    {
        forEachBucket([&](std::uint64_t b, std::vector<Record> &bucket) {
            std::size_t kept = 0;
            for (const Record record : bucket)
                if (!pred(b, record))
                    bucket[kept++] = record;
            size_ -= bucket.size() - kept;
            bucket.resize(kept);
        });
    }

    void saveState(Serializer &out) const;
    void loadState(Deserializer &in, Seconds resume);

    /** Smallest b with double(b) * dt >= time, by the unsigned guess
     *  and the two correction loops. */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (!(time >= 0.0 && time <= maxTime_))
            badTime(time);
        auto b = std::min(static_cast<std::uint64_t>(time * invDt_),
                          kMaxBucket);
        while (b > 0 && boundary(b - 1) >= time)
            --b;
        while (boundary(b) < time)
            ++b;
        return b;
    }

    static constexpr std::uint64_t kMaxBucket =
        (std::uint64_t{1} << 53) - 1;
    static constexpr std::uint64_t kWindow = 4096;

  private:
    static constexpr std::size_t kMaxSpare = 64;

    [[noreturn]] static void badTime(Seconds time);

    void restart(Seconds resume);

    void
    file(std::uint64_t b, Record record)
    {
        if (b - base_ < kWindow)
            bucketAt(b).push_back(record);
        else
            overflow_[b].push_back(record);
        ++size_;
    }

    std::uint64_t
    bucketAfter(Seconds now) const
    {
        if (!(now >= 0.0))
            return 0;
        if (!(now < maxTime_))
            return kMaxBucket + 1;
        const std::uint64_t b = bucketOf(now);
        return boundary(b) > now ? b : b + 1;
    }

    std::vector<Record> &
    bucketAt(std::uint64_t b)
    {
        const auto i = static_cast<std::size_t>(b - base_);
        while (window_.size() <= i)
            window_.push_back(takeSpare());
        return window_[i];
    }

    void
    advanceTo(std::uint64_t b)
    {
        base_ = b;
        while (!overflow_.empty() &&
               overflow_.begin()->first - base_ < kWindow) {
            auto node = overflow_.extract(overflow_.begin());
            bucketAt(node.key()).swap(node.mapped());
            recycle(std::move(node.mapped()));
        }
    }

    void
    recycle(std::vector<Record> &&bucket)
    {
        bucket.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(bucket));
    }

    std::vector<Record>
    takeSpare()
    {
        if (spare_.empty())
            return {};
        std::vector<Record> v = std::move(spare_.back());
        spare_.pop_back();
        return v;
    }

    Seconds dt_;
    double invDt_;
    Seconds maxTime_;
    std::size_t servers_;
    std::deque<std::vector<Record>> window_;
    std::map<std::uint64_t, std::vector<Record>> overflow_;
    std::uint64_t base_ = 0;
    std::vector<std::vector<Record>> spare_;
    std::size_t size_ = 0;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_DEQUE_DEPARTURE_RING_H
