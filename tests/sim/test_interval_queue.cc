/**
 * @file
 * Unit tests for the interval-bucketed calendar queue. The contract
 * under test is exact equivalence with the binary-heap reference
 * EventQueue (tests/reference/event_queue.h): for any
 * schedule/pop sequence whose drains happen at interval boundaries,
 * both queues pop the same payloads in the same order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "reference/event_queue.h"
#include "sim/interval_queue.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::EventQueue;

constexpr Seconds kDt = 60.0;

TEST(IntervalQueue, EmptyOnConstruction)
{
    IntervalQueue<int> q(kDt);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.hasEventDue(1e9));
}

TEST(IntervalQueue, PopsInTimeOrder)
{
    IntervalQueue<int> q(kDt);
    q.schedule(30.0, 3);
    q.schedule(10.0, 1);
    q.schedule(20.0, 2);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(IntervalQueue, TiesPopFifo)
{
    IntervalQueue<std::string> q(kDt);
    q.schedule(5.0, "first");
    q.schedule(5.0, "second");
    q.schedule(5.0, "third");
    EXPECT_EQ(q.pop(), "first");
    EXPECT_EQ(q.pop(), "second");
    EXPECT_EQ(q.pop(), "third");
}

TEST(IntervalQueue, HasEventDueRespectsNow)
{
    IntervalQueue<int> q(kDt);
    q.schedule(100.0, 1);
    EXPECT_FALSE(q.hasEventDue(99.9));
    EXPECT_TRUE(q.hasEventDue(100.0));
    EXPECT_TRUE(q.hasEventDue(200.0));
}

TEST(IntervalQueue, NextTimeTracksEarliest)
{
    IntervalQueue<int> q(kDt);
    q.schedule(50.0, 1);
    q.schedule(25.0, 2);
    EXPECT_DOUBLE_EQ(q.nextTime(), 25.0);
    q.pop();
    EXPECT_DOUBLE_EQ(q.nextTime(), 50.0);
    EXPECT_EQ(q.size(), 1u);
}

TEST(IntervalQueue, ZeroDurationEventPopsWithinActiveBoundary)
{
    // A zero-duration job scheduled exactly at the drain point (the
    // driver's step-3 placement loop does this) must surface in the
    // same drain, after anything earlier but before anything later.
    IntervalQueue<int> q(kDt);
    q.schedule(2.0 * kDt, 1);
    q.schedule(2.0 * kDt, 2);
    ASSERT_TRUE(q.hasEventDue(2.0 * kDt));
    EXPECT_EQ(q.pop(), 1);
    q.schedule(2.0 * kDt, 3); // Lands mid-drain at "now".
    q.schedule(3.0 * kDt, 4);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_FALSE(q.hasEventDue(2.0 * kDt));
    EXPECT_EQ(q.pop(), 4);
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, PastTimeClampsIntoActiveBucketInOrder)
{
    // After a bucket is retired, an event stamped inside it (which
    // the driver never produces, but the queue tolerates) drains at
    // the next opportunity, ordered by (time, seq) against whatever
    // the active bucket still holds.
    IntervalQueue<int> q(kDt);
    q.schedule(10.0, 1);
    EXPECT_EQ(q.pop(), 1); // Retires bucket 0... eventually.
    q.schedule(200.0, 2);
    EXPECT_EQ(q.pop(), 2); // Bucket 0/1 now retired for sure.
    q.schedule(5.0, 3);
    q.schedule(300.0, 4);
    EXPECT_DOUBLE_EQ(q.nextTime(), 5.0);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
}

TEST(IntervalQueue, BoundaryTimesLandStrictlyByBucket)
{
    // An event exactly on boundary b*dt belongs to drain b, not b+1;
    // an event epsilon past it belongs to drain b+1.
    IntervalQueue<int> q(kDt);
    q.schedule(3.0 * kDt, 1);
    q.schedule(3.0 * kDt + 1e-9, 2);
    EXPECT_TRUE(q.hasEventDue(3.0 * kDt));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.hasEventDue(3.0 * kDt));
    EXPECT_TRUE(q.hasEventDue(4.0 * kDt));
    EXPECT_EQ(q.pop(), 2);
}

/**
 * Drive both queues through the driver's exact access pattern —
 * schedule a random batch each interval, drain everything due at the
 * boundary — and require identical pop sequences throughout.
 */
TEST(IntervalQueue, RandomizedDrainMatchesEventQueue)
{
    Rng rng(1234);
    IntervalQueue<int> iq(kDt);
    EventQueue<int> eq;
    int next_id = 0;
    for (std::size_t interval = 0; interval < 500; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        ASSERT_EQ(iq.size(), eq.size()) << "interval " << interval;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now))
                << "interval " << interval;
            ASSERT_EQ(iq.nextTime(), eq.nextTime())
                << "interval " << interval;
            ASSERT_EQ(iq.pop(), eq.pop()) << "interval " << interval;
        }
        ASSERT_FALSE(iq.hasEventDue(now)) << "interval " << interval;

        const std::uint64_t batch = rng.below(13);
        for (std::uint64_t j = 0; j < batch; ++j) {
            // Durations mix exact multiples of dt, sub-interval
            // fractions, ties, and zero (due immediately).
            Seconds duration = 0.0;
            switch (rng.below(4)) {
            case 0:
                duration =
                    static_cast<double>(1 + rng.below(5)) * kDt;
                break;
            case 1:
                duration = rng.uniform() * 10.0 * kDt;
                break;
            case 2:
                duration = 90.0; // Deliberate tie generator.
                break;
            default:
                duration = 0.0;
                break;
            }
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    // Drain the stragglers.
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
    EXPECT_TRUE(iq.empty());
}

/**
 * Long-horizon property: the serving mode runs open-ended, so the
 * queue must stay exact far past the batch driver's two-day traces.
 * Start three weeks in and drive the same randomized drain pattern —
 * bucket indexing (guess + correction loops) must still match
 * EventQueue bit for bit.
 */
TEST(IntervalQueue, MultiWeekDrainMatchesEventQueue)
{
    Rng rng(99);
    IntervalQueue<int> iq(kDt);
    EventQueue<int> eq;
    // Three weeks of one-minute intervals, then 300 more.
    const std::size_t start = 3 * 7 * 24 * 60;
    int next_id = 0;
    for (std::size_t interval = start; interval < start + 300;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now))
                << "interval " << interval;
            ASSERT_EQ(iq.nextTime(), eq.nextTime())
                << "interval " << interval;
            ASSERT_EQ(iq.pop(), eq.pop()) << "interval " << interval;
        }
        ASSERT_FALSE(iq.hasEventDue(now)) << "interval " << interval;
        const std::uint64_t batch = rng.below(9);
        for (std::uint64_t j = 0; j < batch; ++j) {
            Seconds duration = 0.0;
            switch (rng.below(4)) {
            case 0:
                duration =
                    static_cast<double>(1 + rng.below(5)) * kDt;
                break;
            case 1:
                duration = rng.uniform() * 10.0 * kDt;
                break;
            case 2:
                duration = 90.0;
                break;
            default:
                duration = 0.0;
                break;
            }
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
    EXPECT_TRUE(iq.empty());
}

TEST(IntervalQueue, DayBoundaryTimesStayStrictAtWeekScale)
{
    // Exact multiples of a day, weeks out: an event at k*86400
    // belongs to that drain, epsilon past it to the next — the same
    // strictness the two-day tests pin, at 1440x the bucket index.
    IntervalQueue<int> q(kDt);
    for (int day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        q.schedule(boundary, day);
        q.schedule(boundary + 1e-6, 1000 + day);
    }
    for (int day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        ASSERT_TRUE(q.hasEventDue(boundary));
        EXPECT_EQ(q.pop(), day);
        EXPECT_FALSE(q.hasEventDue(boundary));
        ASSERT_TRUE(q.hasEventDue(boundary + kDt));
        EXPECT_EQ(q.pop(), 1000 + day);
    }
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, NonRepresentableIntervalStaysExactFarOut)
{
    // dt = 0.1 is not a representable double, so bucket boundaries
    // accumulate rounding; the cast-then-correct bucketOf must agree
    // with the heap ten million intervals in anyway.
    const Seconds dt = 0.1;
    Rng rng(7);
    IntervalQueue<int> iq(dt);
    EventQueue<int> eq;
    const std::uint64_t start = 10'000'000;
    int next_id = 0;
    for (std::uint64_t interval = start; interval < start + 200;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * dt;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now));
            ASSERT_EQ(iq.pop(), eq.pop());
        }
        ASSERT_FALSE(iq.hasEventDue(now));
        const std::uint64_t batch = rng.below(5);
        for (std::uint64_t j = 0; j < batch; ++j) {
            const Seconds duration = rng.uniform() * 20.0 * dt;
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
}

TEST(IntervalQueue, SparseFarFutureEventDrainsThroughEmptyBuckets)
{
    // One event a month out forces the window across ~43k empty
    // buckets; size accounting and the drain must survive the sweep.
    IntervalQueue<int> q(kDt);
    q.schedule(10.0, 1);
    const Seconds month = 30.0 * 86400.0;
    q.schedule(month, 2);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.hasEventDue(month - kDt));
    ASSERT_TRUE(q.hasEventDue(month));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, VisitRestoreRoundtripAtLongHorizon)
{
    // Checkpoint idiom at a multi-week resume point: pop part of a
    // drain, save the remainder via visitPending, rebuild with
    // restoreFront(now) + schedule, and require the identical
    // remaining pop sequence (including tie order under fresh seq
    // numbers).
    const std::size_t start = 2 * 7 * 24 * 60; // Two weeks.
    const Seconds now = static_cast<double>(start) * kDt;
    Rng rng(42);
    IntervalQueue<int> original(kDt);
    for (int i = 0; i < 64; ++i) {
        const Seconds time =
            now + static_cast<double>(rng.below(10)) * 0.5 * kDt;
        original.schedule(time, i);
    }
    for (int i = 0; i < 20; ++i)
        original.pop(); // Mid-bucket cursor.

    std::vector<std::pair<Seconds, int>> saved;
    original.visitPending([&saved](Seconds time, int payload) {
        saved.push_back({time, payload});
    });
    ASSERT_EQ(saved.size(), original.size());

    IntervalQueue<int> restored(kDt);
    restored.restoreFront(now);
    for (const auto &[time, payload] : saved)
        restored.schedule(time, payload);

    while (!original.empty()) {
        ASSERT_FALSE(restored.empty());
        ASSERT_EQ(restored.nextTime(), original.nextTime());
        ASSERT_EQ(restored.pop(), original.pop());
    }
    EXPECT_TRUE(restored.empty());
}

} // namespace
} // namespace vmt
