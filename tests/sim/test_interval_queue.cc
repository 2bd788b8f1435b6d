/**
 * @file
 * Unit tests for the interval-bucketed calendar queue. The contract
 * under test is exact equivalence with the binary-heap reference
 * EventQueue (tests/reference/event_queue.h): for any
 * schedule/pop sequence whose drains happen at interval boundaries,
 * both queues pop the same payloads in the same order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "reference/event_queue.h"
#include "sim/interval_queue.h"
#include "util/logging.h"
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

/**
 * An IntervalQueue driven in lockstep with the EventQueue oracle:
 * every schedule goes to both, every drain pops both and requires
 * the same payloads in the same order.
 */
struct Lockstep
{
    void
    schedule(Seconds time)
    {
        iq.schedule(time, nextId);
        eq.schedule(time, nextId);
        ++nextId;
    }

    /** Drain everything due at `now` from both queues. */
    void
    drainAt(Seconds now)
    {
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now)) << "now " << now;
            ASSERT_EQ(iq.nextTime(), eq.nextTime()) << "now " << now;
            ASSERT_EQ(iq.pop(), eq.pop()) << "now " << now;
        }
        ASSERT_FALSE(iq.hasEventDue(now)) << "now " << now;
        ASSERT_EQ(iq.size(), eq.size());
    }

    /** Pop both queues dry, ignoring interval boundaries. */
    void
    drainAll()
    {
        while (!eq.empty()) {
            ASSERT_FALSE(iq.empty());
            ASSERT_EQ(iq.nextTime(), eq.nextTime());
            ASSERT_EQ(iq.pop(), eq.pop());
        }
        EXPECT_TRUE(iq.empty());
    }

    IntervalQueue<int> iq{kDt};
    EventQueue<int> eq;
    int nextId = 0;
};

/** Ordinary traffic: a random batch at each boundary, durations up
 *  to ten intervals with exact-multiple and zero-duration ties. */
void
scheduleTraffic(Lockstep &q, Rng &rng, Seconds now)
{
    const std::uint64_t batch = rng.below(13);
    for (std::uint64_t j = 0; j < batch; ++j) {
        switch (rng.below(3)) {
        case 0:
            q.schedule(now + static_cast<double>(1 + rng.below(5)) *
                                 kDt);
            break;
        case 1:
            q.schedule(now + rng.uniform() * 10.0 * kDt);
            break;
        default:
            q.schedule(now);
            break;
        }
    }
}

TEST(IntervalQueue, ThousandsOfEventsAtOneTimePopInScheduleOrder)
{
    Lockstep q;
    for (int i = 0; i < 5000; ++i)
        q.schedule(7.0 * kDt - 13.0);
    for (int i = 0; i < 100; ++i)
        q.schedule(7.0 * kDt - 13.0 - static_cast<double>(i % 3));
    q.drainAt(6.0 * kDt);
    q.drainAt(7.0 * kDt);
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, CrowdedSubRangeKeepsTimeAndTieOrder)
{
    // 3000 times within a few ulps of each other plus one outlier
    // early in the bucket: the outlier stretches the span so the
    // crowd shares one sub-range, which orderByTime must fall back
    // on a stable sort for. Ulp offsets repeat, so ties abound.
    Lockstep q;
    Rng rng(5);
    const Seconds crowd = 9.0 * kDt - 1.0;
    for (int i = 0; i < 3000; ++i) {
        Seconds t = crowd;
        for (std::uint64_t u = rng.below(6); u > 0; --u)
            t = std::nextafter(t, 0.0);
        q.schedule(t);
        if (i == 1500)
            q.schedule(8.0 * kDt + 1.0);
    }
    q.drainAt(8.0 * kDt);
    q.drainAt(9.0 * kDt);
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, ZeroNegativeZeroAndSubnormalSpans)
{
    // Bucket 0 holds 0 and -0.0 (equal, so schedule order); bucket 1
    // starts with a run of subnormal times whose span is itself
    // subnormal.
    Lockstep q;
    const Seconds tiny = std::numeric_limits<Seconds>::denorm_min();
    q.schedule(0.0);
    q.schedule(-0.0);
    q.schedule(5.0 * tiny);
    q.schedule(tiny);
    q.schedule(3.0 * tiny);
    q.schedule(tiny);
    q.schedule(0.0);
    q.drainAt(0.0);
    q.schedule(2.0 * tiny);
    q.schedule(-0.0); // Late: bucket 0 is already drained.
    q.drainAt(0.0);
    q.drainAt(kDt);
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, LateEventsIntoAnUnorderedFront)
{
    // After the drain at boundary 10 the front (bucket 11) is left
    // unordered; events stamped at or before that boundary join it
    // and must surface at the same `now`, earliest first.
    Lockstep q;
    for (int i = 0; i < 20; ++i)
        q.schedule(10.0 * kDt + static_cast<double>(i % 7) * 8.0);
    q.drainAt(10.0 * kDt);
    q.schedule(10.0 * kDt);       // Zero duration.
    q.schedule(10.0 * kDt - 5.0); // Already past.
    q.schedule(10.0 * kDt);
    q.schedule(10.5 * kDt);       // Native to the front.
    q.drainAt(10.0 * kDt);
    q.schedule(3.0 * kDt); // Late again, into the now ordered front.
    q.drainAt(11.0 * kDt);
    q.drainAt(12.0 * kDt);
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, LateEventsIntoAFrontMidDrain)
{
    Lockstep q;
    for (int i = 0; i < 30; ++i)
        q.schedule(4.0 * kDt - static_cast<double>(i % 10) * 5.0);
    const Seconds now = 4.0 * kDt;
    ASSERT_TRUE(q.iq.hasEventDue(now));
    ASSERT_TRUE(q.eq.hasEventDue(now));
    for (int i = 0; i < 12; ++i)
        ASSERT_EQ(q.iq.pop(), q.eq.pop());
    // Earlier than anything popped, equal to pending times, and
    // equal to the drain point: each lands where the heap puts it.
    q.schedule(1.0);
    q.schedule(now - 25.0);
    q.schedule(now - 25.0);
    q.schedule(now);
    q.schedule(now + 1.0);
    q.drainAt(now);
    q.drainAt(now + kDt);
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, FarFirstEventLeavesTheQueueAnchored)
{
    // The first event of an empty queue is 1e9 s out; ordinary
    // traffic after it must still drain interval by interval.
    Lockstep q;
    Rng rng(11);
    q.schedule(1e9);
    for (std::size_t interval = 0; interval < 400; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        scheduleTraffic(q, rng, now);
    }
    q.drainAll();
}

TEST(IntervalQueue, FarEventsMixedIntoTrafficDrainInOrder)
{
    // 1e12 s and 1e15 s sit far beyond the dense window; they wait in
    // the overflow while traffic drains, then pop last, in schedule
    // order among equal times.
    Lockstep q;
    Rng rng(12);
    for (std::size_t interval = 0; interval < 400; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        if (interval % 50 == 7) {
            q.schedule(1e15);
            q.schedule(1e12 + now);
            q.schedule(1e12);
        }
        scheduleTraffic(q, rng, now);
    }
    q.drainAt(1e12);
    q.drainAll();
}

TEST(IntervalQueue, VisitRestoreRoundtripWithUnorderedBuckets)
{
    // Several unordered buckets, a late event in the unordered
    // front and overflow buckets are all pending at the checkpoint;
    // the rebuilt queue must pop exactly as the original and the
    // heap do, across later boundaries.
    Lockstep q;
    Rng rng(3);
    const Seconds now = 500.0 * kDt;
    for (int i = 0; i < 200; ++i)
        q.schedule(now + rng.uniform() * 6.0 * kDt);
    for (int i = 0; i < 10; ++i)
        q.schedule(now + static_cast<double>(1 + rng.below(4)) * kDt);
    q.schedule(now + 1e7);
    q.schedule(now + 1e7);
    q.drainAt(now);
    q.schedule(now);     // Late, into the unordered front.
    q.schedule(now + 1e9);

    std::vector<std::pair<Seconds, int>> saved;
    q.iq.visitPending([&saved](Seconds time, int payload) {
        saved.push_back({time, payload});
    });
    ASSERT_EQ(saved.size(), q.iq.size());
    // The visit is the pop order itself (snapshots store it).
    EventQueue<int> order = q.eq;
    for (const auto &[time, payload] : saved) {
        ASSERT_EQ(time, order.nextTime());
        ASSERT_EQ(payload, order.pop());
    }

    IntervalQueue<int> restored(kDt);
    restored.restoreFront(now);
    for (const auto &[time, payload] : saved)
        restored.schedule(time, payload);
    for (int step = 0; step <= 8; ++step) {
        const Seconds at = now + static_cast<double>(step) * kDt;
        while (q.eq.hasEventDue(at)) {
            ASSERT_TRUE(restored.hasEventDue(at));
            ASSERT_TRUE(q.iq.hasEventDue(at));
            const int expect = q.eq.pop();
            ASSERT_EQ(q.iq.pop(), expect);
            ASSERT_EQ(restored.pop(), expect);
        }
        ASSERT_FALSE(restored.hasEventDue(at));
        ASSERT_FALSE(q.iq.hasEventDue(at));
    }
    while (!q.eq.empty()) {
        ASSERT_FALSE(restored.empty());
        ASSERT_EQ(restored.nextTime(), q.eq.nextTime());
        const int expect = q.eq.pop();
        ASSERT_EQ(q.iq.pop(), expect);
        ASSERT_EQ(restored.pop(), expect);
    }
    EXPECT_TRUE(restored.empty());
    EXPECT_TRUE(q.iq.empty());
}

TEST(IntervalQueue, WindowEdgeHandOffKeepsScheduleOrder)
{
    // Each bucket near the dense window's far edge (4,096 buckets
    // out) receives events while it is still in the overflow and
    // again after the advancing window has taken it over; the two
    // batches must pop in schedule order, none lost.
    Lockstep q;
    for (std::size_t interval = 0; interval < 120; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        for (int d = 4080; d <= 4112; ++d) {
            const Seconds boundary = now + static_cast<double>(d) * kDt;
            q.schedule(boundary);
            q.schedule(boundary - 0.5 * kDt);
        }
    }
    q.drainAll();
}

/**
 * Everything at once, against the heap: ordinary and zero durations,
 * late events, far-future events in the overflow, eager pops between
 * boundaries, and a checkpoint round trip every few dozen intervals
 * that replaces the queue with its restored copy.
 */
TEST(IntervalQueue, RandomizedMixedScheduleMatchesEventQueue)
{
    Lockstep q;
    Rng rng(2024);
    for (std::size_t interval = 0; interval < 3000; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        if (rng.below(10) == 0) {
            for (std::uint64_t k = rng.below(4); k > 0 && !q.eq.empty();
                 --k) {
                ASSERT_EQ(q.iq.nextTime(), q.eq.nextTime());
                ASSERT_EQ(q.iq.pop(), q.eq.pop());
            }
        }
        scheduleTraffic(q, rng, now);
        switch (rng.below(8)) {
        case 0:
            q.schedule(std::max(0.0, now - rng.uniform() * 3.0 * kDt));
            break;
        case 1:
            q.schedule(now + 1e6 + rng.uniform() * 1e9);
            break;
        case 2:
            q.schedule(now + static_cast<double>(rng.below(5000)) * kDt);
            break;
        default:
            break;
        }
        if (interval % 37 == 36) {
            std::vector<std::pair<Seconds, int>> saved;
            q.iq.visitPending([&saved](Seconds time, int payload) {
                saved.push_back({time, payload});
            });
            IntervalQueue<int> restored(kDt);
            restored.restoreFront(now + kDt);
            for (const auto &[time, payload] : saved)
                restored.schedule(time, payload);
            q.iq = std::move(restored);
        }
    }
    q.drainAll();
}

TEST(IntervalQueue, UnschedulableTimesAreNamedFatals)
{
    IntervalQueue<int> q(kDt);
    const Seconds inf = std::numeric_limits<Seconds>::infinity();
    const std::pair<Seconds, const char *> cases[] = {
        {std::nan(""), "nan"}, {inf, "inf"}, {-inf, "-inf"},
        {1e300, "1e+300"}, {-1.0, "-1"}};
    for (const auto &[time, text] : cases) {
        try {
            q.schedule(time, 0);
            ADD_FAILURE() << "no fatal for " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(text),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_TRUE(q.empty());

    // The last schedulable bucket is index 2^53 - 1; one ulp past
    // its boundary is refused.
    const Seconds last =
        static_cast<double>((std::uint64_t{1} << 53) - 1) * kDt;
    q.schedule(last, 1);
    EXPECT_THROW(q.schedule(std::nextafter(last, inf), 2), FatalError);
    q.schedule(kDt, 3);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace vmt
