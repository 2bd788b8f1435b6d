/**
 * @file
 * Unit tests for the bounded ingress ring between a JobFeed and the
 * serving driver's admission step: FIFO order across wraparound,
 * capacity-bounded rejection, the shed-policy clear(), the admission
 * operations (bulk push, multi-pop, rotation, the queue-age scan)
 * against a deque model, and the snapshot round trip and its corrupt
 * entry fatals.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "serve/ingress_queue.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt::serve {
namespace {

FeedJob
job(double time)
{
    return FeedJob{time, WorkloadType::WebSearch, 60.0};
}

/** Enqueue one arrival; false when the ring is full. */
bool
push(IngressQueue &q, const FeedJob &entry)
{
    return q.pushAll({entry}) == 1;
}

TEST(IngressQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(IngressQueue(0), FatalError);
}

TEST(IngressQueue, FifoAcrossWraparound)
{
    IngressQueue q(4);
    // Fill, drain two, refill: the ring head wraps.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(push(q, job(i)));
    EXPECT_FALSE(push(q, job(99))); // Full: shed, not queued.
    EXPECT_EQ(q.size(), 4u);
    EXPECT_DOUBLE_EQ(q.at(0).time, 0.0);
    q.pop(1);
    q.pop(1);
    ASSERT_TRUE(push(q, job(4)));
    ASSERT_TRUE(push(q, job(5)));
    EXPECT_FALSE(push(q, job(99)));
    for (int expected = 2; expected <= 5; ++expected) {
        ASSERT_FALSE(q.empty());
        EXPECT_DOUBLE_EQ(q.at(0).time, expected);
        q.pop(1);
    }
    EXPECT_TRUE(q.empty());
}

TEST(IngressQueue, ClearReportsDropCount)
{
    IngressQueue q(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(push(q, job(i)));
    EXPECT_EQ(q.clear(), 5u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.clear(), 0u);
    // Reusable after a clear.
    ASSERT_TRUE(push(q, job(7)));
    EXPECT_DOUBLE_EQ(q.at(0).time, 7.0);
}

TEST(IngressQueue, SnapshotRoundTripsWrappedOrder)
{
    IngressQueue q(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(push(q, job(i)));
    q.pop(1);
    q.pop(1);
    ASSERT_TRUE(push(q, job(4))); // Physically wrapped.

    Serializer out;
    q.saveState(out);
    Deserializer in(out.bytes());
    IngressQueue restored(4);
    restored.loadState(in);
    in.expectEnd();

    ASSERT_EQ(restored.size(), q.size());
    while (!q.empty()) {
        EXPECT_DOUBLE_EQ(restored.at(0).time, q.at(0).time);
        EXPECT_EQ(restored.at(0).type, q.at(0).type);
        EXPECT_DOUBLE_EQ(restored.at(0).duration,
                         q.at(0).duration);
        restored.pop(1);
        q.pop(1);
    }
    EXPECT_TRUE(restored.empty());
}

TEST(IngressQueue, LoadRejectsCapacityMismatch)
{
    IngressQueue q(4);
    ASSERT_TRUE(push(q, job(0)));
    Serializer out;
    q.saveState(out);

    IngressQueue other(8);
    Deserializer in(out.bytes());
    EXPECT_THROW(other.loadState(in), FatalError);
}

void
expectSame(const IngressQueue &q, const std::deque<FeedJob> &model,
           int step)
{
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
    for (std::size_t i = 0; i < model.size(); ++i)
        ASSERT_EQ(q.at(i).time, model[i].time)
            << "step " << step << ", entry " << i;
}

TEST(IngressQueue, AdmissionOperationsMatchADequeModel)
{
    // rotate(n) must leave the ring that popping n entries and pushing
    // them back leaves; dropExpired must keep, at the front and in
    // order, the live entries of the range a per-entry pop scans.
    Rng rng(77);
    for (const std::size_t capacity : {1u, 2u, 7u, 64u}) {
        IngressQueue q(capacity);
        std::deque<FeedJob> model;
        double clock = 0.0;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(5);
            if (op == 0) {
                std::vector<FeedJob> batch(rng.below(2 * capacity + 1));
                for (FeedJob &entry : batch)
                    entry = job(clock += 1.0);
                const std::size_t fits =
                    std::min(batch.size(), capacity - model.size());
                ASSERT_EQ(q.pushAll(batch), fits);
                model.insert(model.end(), batch.begin(),
                             batch.begin() +
                                 static_cast<std::ptrdiff_t>(fits));
            } else if (op == 1) {
                const std::size_t n = rng.below(model.size() + 1);
                q.pop(n);
                model.erase(model.begin(),
                            model.begin() + static_cast<std::ptrdiff_t>(n));
            } else if (op == 2) {
                const std::size_t n = rng.below(model.size() + 1);
                q.rotate(n);
                for (std::size_t i = 0; i < n; ++i) {
                    model.push_back(model.front());
                    model.pop_front();
                }
            } else if (op == 3) {
                const double cutoff = clock - rng.uniform(0.0, 2.0 * capacity);
                const std::size_t budget = rng.below(capacity + 1);
                std::deque<FeedJob> live;
                std::size_t expired = 0;
                while (!model.empty() &&
                       (budget == 0 || live.size() < budget)) {
                    if (model.front().time < cutoff)
                        ++expired;
                    else
                        live.push_back(model.front());
                    model.pop_front();
                }
                model.insert(model.begin(), live.begin(), live.end());
                ASSERT_EQ(q.dropExpired(cutoff, budget), expired)
                    << "step " << step;
            } else {
                // Requeues leave the ring unsorted by time.
                if (!model.empty()) {
                    q.rotate(1);
                    model.push_back(model.front());
                    model.pop_front();
                }
                if (push(q, job(clock - 3.0)))
                    model.push_back(job(clock - 3.0));
            }
            expectSame(q, model, step);
        }
    }
}

TEST(IngressQueue, LoadRejectsACorruptEntryByName)
{
    IngressQueue q(4);
    ASSERT_TRUE(push(q, job(5.0)));
    Serializer out;
    q.saveState(out);
    // Capacity, depth, then the entry: time, type, duration.
    const std::vector<std::uint8_t> good = out.bytes();
    constexpr std::size_t kEntry = 16;

    const auto error = [](const std::vector<std::uint8_t> &bytes) {
        IngressQueue target(4);
        Deserializer in(bytes);
        try {
            target.loadState(in);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    ASSERT_EQ(error(good), "");

    std::vector<std::uint8_t> bad = good;
    bad[kEntry + 8] = 200;
    EXPECT_NE(error(bad).find("INGR section is corrupt: workload type "
                              "200"),
              std::string::npos);
    for (const double value : {-1.0, std::nan(""), -HUGE_VAL}) {
        bad = good;
        std::memcpy(bad.data() + kEntry, &value, sizeof value);
        EXPECT_NE(error(bad).find("arrival time"), std::string::npos);
        bad = good;
        std::memcpy(bad.data() + kEntry + 9, &value, sizeof value);
        EXPECT_NE(error(bad).find("job duration"), std::string::npos);
    }
}

} // namespace
} // namespace vmt::serve
