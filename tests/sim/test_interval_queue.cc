/**
 * @file
 * Unit tests for the departure ring (sim/departure_ring.h), the
 * interval-bucketed queue both drivers drain, and for the pod
 * operations over it (sim/pod.h). The suite keeps its name,
 * IntervalQueue, from the time-ordered queue the ring replaced.
 *
 * The contract under test: for any schedule sequence drained once per
 * interval boundary, the records the ring hands over at a boundary
 * equal, as a multiset, the events the binary-heap reference
 * EventQueue (tests/reference/event_queue.h) pops with time at or
 * before that boundary. Within a drain the ring's order is bucket
 * order, then append order — never sorted by time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "reference/event_queue.h"
#include "sched/round_robin.h"
#include "sched/scheduler.h"
#include "server/cluster.h"
#include "sim/departure_ring.h"
#include "sim/pod.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::EventQueue;
using Record = DepartureRing::Record;

constexpr Seconds kDt = 60.0;
/** Wide enough that any test id is a valid record. */
constexpr std::size_t kServers = std::size_t{1} << 24;

DepartureRing
makeRing(Seconds dt = kDt)
{
    return DepartureRing(dt, kServers);
}

/** Everything drain(now) hands over, in its order. */
std::vector<Record>
drained(DepartureRing &ring, Seconds now)
{
    std::vector<Record> out;
    ring.drain(now, [&out](Record record) { out.push_back(record); });
    return out;
}

/** A checkpoint round trip: saveState() into a fresh ring resuming
 *  at `resume`. */
DepartureRing
roundTrip(const DepartureRing &ring, Seconds resume,
          Seconds dt = kDt)
{
    Serializer out;
    ring.saveState(out);
    Deserializer in(out.bytes());
    DepartureRing restored(dt, kServers);
    restored.loadState(in, resume);
    in.expectEnd();
    return restored;
}

TEST(IntervalQueue, EmptyOnConstruction)
{
    DepartureRing ring = makeRing();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(drained(ring, 1e9).empty());
}

TEST(IntervalQueue, PopsInTimeOrder)
{
    // Three due times in three buckets: one drain hands them over in
    // bucket order.
    DepartureRing ring = makeRing();
    ring.schedule(150.0, 3);
    ring.schedule(30.0, 1);
    ring.schedule(90.0, 2);
    EXPECT_EQ(drained(ring, 3.0 * kDt), (std::vector<Record>{1, 2, 3}));
    EXPECT_TRUE(ring.empty());
}

TEST(IntervalQueue, TiesPopFifo)
{
    DepartureRing ring = makeRing();
    ring.schedule(5.0, 7);
    ring.schedule(5.0, 8);
    ring.schedule(5.0, 9);
    EXPECT_EQ(drained(ring, kDt), (std::vector<Record>{7, 8, 9}));
}

TEST(IntervalQueue, HasEventDueRespectsNow)
{
    // Due at 100 s, so bucket 2 (boundary 120 s): nothing drains
    // until `now` reaches that boundary.
    DepartureRing ring = makeRing();
    ring.schedule(100.0, 1);
    EXPECT_TRUE(drained(ring, 99.9).empty());
    EXPECT_TRUE(drained(ring, 119.9).empty());
    EXPECT_EQ(drained(ring, 120.0), (std::vector<Record>{1}));
    EXPECT_TRUE(drained(ring, 200.0).empty());
}

TEST(IntervalQueue, ZeroDurationEventPopsWithinActiveBoundary)
{
    // A zero-duration job filed at a boundary before its drain
    // leaves in that drain; one filed after the drain (the drivers
    // place arrivals after draining) leaves at the next boundary —
    // where the heap reference pops it too.
    DepartureRing ring = makeRing();
    ring.schedule(2.0 * kDt, 1);
    ring.schedule(2.0 * kDt, 2);
    EXPECT_EQ(drained(ring, 2.0 * kDt), (std::vector<Record>{1, 2}));
    ring.schedule(2.0 * kDt, 3);
    ring.schedule(3.0 * kDt, 4);
    EXPECT_EQ(drained(ring, 3.0 * kDt), (std::vector<Record>{3, 4}));
    EXPECT_TRUE(ring.empty());
}

TEST(IntervalQueue, PastTimeClampsIntoActiveBucketInOrder)
{
    // After bucket 0 has drained, a record stamped inside it joins
    // the next bucket to drain, after the records already there.
    DepartureRing ring = makeRing();
    ring.schedule(10.0, 1);
    EXPECT_EQ(drained(ring, 0.0), std::vector<Record>{});
    EXPECT_EQ(drained(ring, kDt), (std::vector<Record>{1}));
    ring.schedule(100.0, 2);
    ring.schedule(5.0, 3);
    ring.schedule(300.0, 4);
    EXPECT_EQ(drained(ring, 2.0 * kDt), (std::vector<Record>{2, 3}));
    EXPECT_EQ(drained(ring, 5.0 * kDt), (std::vector<Record>{4}));
}

TEST(IntervalQueue, BoundaryTimesLandStrictlyByBucket)
{
    // A record exactly on boundary b*dt belongs to drain b, not b+1;
    // one epsilon past it belongs to drain b+1.
    DepartureRing ring = makeRing();
    ring.schedule(3.0 * kDt, 1);
    ring.schedule(3.0 * kDt + 1e-9, 2);
    EXPECT_EQ(ring.bucketOf(3.0 * kDt), 3u);
    EXPECT_EQ(ring.bucketOf(3.0 * kDt + 1e-9), 4u);
    EXPECT_EQ(drained(ring, 3.0 * kDt), (std::vector<Record>{1}));
    EXPECT_EQ(drained(ring, 4.0 * kDt), (std::vector<Record>{2}));
}

/**
 * A ring driven in lockstep with the EventQueue oracle: every
 * schedule goes to both, and each boundary's drain must hand over
 * the same multiset the heap pops up to that boundary.
 */
struct Lockstep
{
    explicit Lockstep(Seconds dt = kDt) : ring(dt, kServers) {}

    void
    schedule(Seconds time)
    {
        ring.schedule(time, nextId);
        eq.schedule(time, nextId);
        ++nextId;
    }

    /** Drain one boundary from both and compare. */
    void
    drainAt(Seconds now)
    {
        std::vector<Record> got = drained(ring, now);
        std::vector<Record> want;
        while (eq.hasEventDue(now))
            want.push_back(eq.pop());
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "now " << now;
        ASSERT_EQ(ring.size(), eq.size()) << "now " << now;
    }

    /** Drain both dry. */
    void
    drainAll()
    {
        drainAt(std::numeric_limits<Seconds>::max());
        EXPECT_TRUE(ring.empty());
    }

    DepartureRing ring;
    EventQueue<Record> eq;
    Record nextId = 0;
};

/** Ordinary traffic: a random batch at each boundary, durations up
 *  to ten intervals with exact-multiple and zero-duration ties. */
void
scheduleTraffic(Lockstep &q, Rng &rng, Seconds now,
                std::uint64_t max_batch = 13)
{
    const std::uint64_t batch = rng.below(max_batch);
    for (std::uint64_t j = 0; j < batch; ++j) {
        switch (rng.below(4)) {
        case 0:
            q.schedule(now + static_cast<double>(1 + rng.below(5)) *
                                 kDt);
            break;
        case 1:
            q.schedule(now + rng.uniform() * 10.0 * kDt);
            break;
        case 2:
            q.schedule(now + 90.0); // Deliberate tie generator.
            break;
        default:
            q.schedule(now);
            break;
        }
    }
}

/**
 * The drivers' exact access pattern — schedule a random batch each
 * interval, drain at the boundary — against the heap.
 */
TEST(IntervalQueue, RandomizedDrainMatchesEventQueue)
{
    Lockstep q;
    Rng rng(1234);
    for (std::size_t interval = 0; interval < 500; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        scheduleTraffic(q, rng, now);
    }
    q.drainAll();
}

/**
 * Long-horizon property: the serving mode runs open-ended, so the
 * bucketing must stay exact far past the batch driver's two-day
 * traces. Start three weeks in.
 */
TEST(IntervalQueue, MultiWeekDrainMatchesEventQueue)
{
    Lockstep q;
    Rng rng(99);
    const std::size_t start = 3 * 7 * 24 * 60;
    for (std::size_t interval = start; interval < start + 300;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
        scheduleTraffic(q, rng, now, 9);
    }
    q.drainAll();
}

TEST(IntervalQueue, DayBoundaryTimesStayStrictAtWeekScale)
{
    // Exact multiples of a day, weeks out: a record at k*86400
    // belongs to that drain, epsilon past it to the next — the same
    // strictness the two-day tests pin, at 1440x the bucket index.
    DepartureRing ring = makeRing();
    for (Record day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        ring.schedule(boundary, day);
        ring.schedule(boundary + 1e-6, 1000 + day);
    }
    for (Record day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        EXPECT_EQ(drained(ring, boundary), (std::vector<Record>{day}));
        EXPECT_EQ(drained(ring, boundary + kDt),
                  (std::vector<Record>{1000 + day}));
    }
    EXPECT_TRUE(ring.empty());
}

TEST(IntervalQueue, NonRepresentableIntervalStaysExactFarOut)
{
    // dt = 0.1 is not a representable double, so bucket boundaries
    // accumulate rounding; the cast-then-correct bucketOf must agree
    // with the heap ten million intervals in anyway.
    const Seconds dt = 0.1;
    Lockstep q(dt);
    Rng rng(7);
    const std::uint64_t start = 10'000'000;
    for (std::uint64_t interval = start; interval < start + 200;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * dt;
        q.drainAt(now);
        const std::uint64_t batch = rng.below(5);
        for (std::uint64_t j = 0; j < batch; ++j)
            q.schedule(now + rng.uniform() * 20.0 * dt);
    }
    q.drainAll();
}

TEST(IntervalQueue, SparseFarFutureEventDrainsThroughEmptyBuckets)
{
    // One record a month out forces the window across ~43k empty
    // buckets; size accounting and the drain must survive the sweep.
    DepartureRing ring = makeRing();
    ring.schedule(10.0, 1);
    const Seconds month = 30.0 * 86400.0;
    ring.schedule(month, 2);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(drained(ring, kDt), (std::vector<Record>{1}));
    EXPECT_TRUE(drained(ring, month - kDt).empty());
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(drained(ring, month), (std::vector<Record>{2}));
    EXPECT_TRUE(ring.empty());
}

TEST(IntervalQueue, VisitRestoreRoundtripAtLongHorizon)
{
    // Checkpoint idiom at a multi-week resume point: drain one
    // boundary, save the rest, rebuild a fresh ring from the bytes
    // and require the identical drains — order included — from then
    // on.
    const std::size_t start = 2 * 7 * 24 * 60; // Two weeks.
    const Seconds now = static_cast<double>(start) * kDt;
    Rng rng(42);
    DepartureRing original = makeRing();
    for (Record i = 0; i < 64; ++i)
        original.schedule(
            now + static_cast<double>(rng.below(10)) * 0.5 * kDt, i);
    ASSERT_FALSE(drained(original, now).empty());

    DepartureRing restored = roundTrip(original, now + kDt);
    ASSERT_EQ(restored.size(), original.size());
    for (int step = 1; step <= 6; ++step) {
        const Seconds at = now + static_cast<double>(step) * kDt;
        EXPECT_EQ(drained(restored, at), drained(original, at));
    }
    EXPECT_TRUE(original.empty());
    EXPECT_TRUE(restored.empty());
}

TEST(IntervalQueue, ThousandsOfEventsAtOneTimePopInScheduleOrder)
{
    DepartureRing ring = makeRing();
    std::vector<Record> expect;
    for (Record i = 0; i < 5000; ++i) {
        ring.schedule(7.0 * kDt - 13.0, i);
        expect.push_back(i);
    }
    EXPECT_TRUE(drained(ring, 6.0 * kDt).empty());
    EXPECT_EQ(drained(ring, 7.0 * kDt), expect);
    EXPECT_TRUE(ring.empty());
}

TEST(IntervalQueue, ZeroNegativeZeroAndSubnormalSpans)
{
    // 0 and -0.0 fall on boundary 0; a subnormal time is past it and
    // waits for boundary 1 — the same split the heap makes.
    Lockstep q;
    const Seconds tiny = std::numeric_limits<Seconds>::denorm_min();
    q.schedule(0.0);
    q.schedule(-0.0);
    q.schedule(5.0 * tiny);
    q.schedule(tiny);
    q.schedule(3.0 * tiny);
    q.schedule(0.0);
    EXPECT_EQ(q.ring.bucketOf(-0.0), 0u);
    EXPECT_EQ(q.ring.bucketOf(tiny), 1u);
    q.drainAt(0.0);
    q.schedule(2.0 * tiny);
    q.schedule(-0.0); // Late: bucket 0 is already drained.
    q.drainAt(kDt);
    EXPECT_TRUE(q.ring.empty());
}

TEST(IntervalQueue, LateEventsIntoAnUnorderedFront)
{
    // After the drain at boundary 10 the front is bucket 11; records
    // stamped at or before boundary 10 join it and leave at
    // boundary 11, as the heap pops them at its next drain.
    Lockstep q;
    for (int i = 0; i < 20; ++i)
        q.schedule(10.0 * kDt + static_cast<double>(i % 7) * 8.0);
    q.drainAt(10.0 * kDt);
    q.schedule(10.0 * kDt);       // Zero duration.
    q.schedule(10.0 * kDt - 5.0); // Already past.
    q.schedule(10.5 * kDt);       // Native to the front.
    q.schedule(3.0 * kDt);        // Long past.
    q.drainAt(11.0 * kDt);
    q.drainAt(12.0 * kDt);
    EXPECT_TRUE(q.ring.empty());
}

TEST(IntervalQueue, FarFirstEventLeavesTheQueueAnchored)
{
    // The first record of an empty ring is 1e9 s out; ordinary
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
    // the overflow while traffic drains, then leave at their own
    // boundaries.
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
    q.drainAt(q.ring.boundary(q.ring.bucketOf(1e12 + 400 * kDt)));
    q.drainAll();
}

TEST(IntervalQueue, VisitRestoreRoundtripWithUnorderedBuckets)
{
    // Dense buckets, a late record in the front and overflow buckets
    // are all pending at the checkpoint; the rebuilt ring must drain
    // exactly as the original does, and as the heap does, across
    // later boundaries.
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
    q.schedule(now); // Late, into the front.
    q.schedule(now + 1e9);

    DepartureRing restored = roundTrip(q.ring, now + kDt);
    ASSERT_EQ(restored.size(), q.ring.size());
    for (int step = 1; step <= 8; ++step) {
        const Seconds at = now + static_cast<double>(step) * kDt;
        DepartureRing copy = q.ring;
        ASSERT_EQ(drained(restored, at), drained(copy, at));
        q.drainAt(at);
    }
    for (const Seconds far : {now + 1e7, now + 1e9}) {
        const Seconds at = q.ring.boundary(q.ring.bucketOf(far));
        DepartureRing copy = q.ring;
        ASSERT_EQ(drained(restored, at), drained(copy, at));
        q.drainAt(at);
    }
    EXPECT_TRUE(restored.empty());
    EXPECT_TRUE(q.ring.empty());
}

TEST(IntervalQueue, WindowEdgeHandOffKeepsScheduleOrder)
{
    // Each bucket near the dense window's far edge (4,096 buckets
    // out) receives records while it is still in the overflow and
    // again after the advancing window has taken it over; the two
    // batches must leave in schedule order, none lost.
    DepartureRing ring = makeRing();
    std::vector<std::vector<Record>> expect(4300);
    Record id = 0;
    for (std::size_t interval = 0; interval < 120; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        ASSERT_EQ(drained(ring, now), expect[interval]);
        for (std::size_t d = 4080; d <= 4112; ++d) {
            const Seconds boundary =
                now + static_cast<double>(d) * kDt;
            ring.schedule(boundary, id);
            expect[interval + d].push_back(id++);
            ring.schedule(boundary - 0.5 * kDt, id);
            expect[interval + d].push_back(id++);
        }
    }
    for (std::size_t b = 120; b < expect.size(); ++b)
        ASSERT_EQ(drained(ring, ring.boundary(b)), expect[b]);
    EXPECT_TRUE(ring.empty());
}

/**
 * Everything at once, against the heap: ordinary and zero
 * durations, late records, far-future records in the overflow, and a
 * checkpoint round trip every few dozen intervals that replaces the
 * ring with its restored copy.
 */
TEST(IntervalQueue, RandomizedMixedScheduleMatchesEventQueue)
{
    Lockstep q;
    Rng rng(2024);
    for (std::size_t interval = 0; interval < 3000; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        q.drainAt(now);
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
        if (interval % 37 == 36)
            q.ring = roundTrip(q.ring, now + kDt);
    }
    q.drainAll();
}

TEST(IntervalQueue, UnschedulableTimesAreNamedFatals)
{
    DepartureRing ring = makeRing();
    const Seconds inf = std::numeric_limits<Seconds>::infinity();
    const std::pair<Seconds, const char *> cases[] = {
        {std::nan(""), "nan"}, {inf, "inf"}, {-inf, "-inf"},
        {1e300, "1e+300"}, {-1.0, "-1"}};
    for (const auto &[time, text] : cases) {
        try {
            ring.schedule(time, 0);
            ADD_FAILURE() << "no fatal for " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(text),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_TRUE(ring.empty());

    // The last schedulable bucket is index 2^53 - 1; one ulp past
    // its boundary is refused.
    const Seconds last =
        static_cast<double>((std::uint64_t{1} << 53) - 1) * kDt;
    ring.schedule(last, 1);
    EXPECT_THROW(ring.schedule(std::nextafter(last, inf), 2),
                 FatalError);
    ring.schedule(kDt, 3);
    EXPECT_EQ(drained(ring, kDt), (std::vector<Record>{3}));
    EXPECT_EQ(drained(ring, last), (std::vector<Record>{1}));
    EXPECT_TRUE(ring.empty());
}

TEST(DepartureRing, PodTooLargeToPackIsANamedFatal)
{
    const std::size_t largest = (std::size_t{1} << 32) / kNumWorkloads;
    EXPECT_NO_THROW(DepartureRing(kDt, largest));
    try {
        DepartureRing ring(kDt, largest + 1);
        ADD_FAILURE() << "no fatal for a pod of " << largest + 1;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("too large to pack"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(DepartureRing(0.0, 8), FatalError);
}

TEST(DepartureRing, RecordsPackServerAndType)
{
    const Record record =
        DepartureRing::pack(1234, WorkloadType::VirusScan);
    EXPECT_EQ(record, 1234 * kNumWorkloads + 3);
    EXPECT_EQ(DepartureRing::serverOf(record), 1234u);
    EXPECT_EQ(DepartureRing::typeOf(record), WorkloadType::VirusScan);
}

/** A 4-server pod under `policy`. */
Pod
smallPod(Scheduler &policy)
{
    return Pod(Cluster(4, ServerSpec{}, ServerThermalParams{},
                       PowerModel(ServerSpec{}, 1.77)),
               policy, kDt);
}

/** Run a job of `type` on `server` with its departure record due at
 *  `due`, so the pod's ring and cluster keep agreeing. */
void
add(Pod &pod, std::size_t server, WorkloadType type, Seconds due)
{
    pod.cluster.addJob(server, type);
    pod.departures.schedule(due, DepartureRing::pack(server, type));
}

/** Every pending record of a ring as (bucket, record), in drain
 *  order. */
std::vector<std::pair<std::uint64_t, Record>>
pendingOf(const DepartureRing &ring)
{
    std::vector<std::pair<std::uint64_t, Record>> pending;
    ring.forEachBucket(
        [&](std::uint64_t b, const std::vector<Record> &bucket) {
            for (const Record record : bucket)
                pending.emplace_back(b, record);
        });
    return pending;
}

TEST(DepartureRing, EvacuationKeepsEachPairsBucketsInDrainOrder)
{
    using WT = WorkloadType;
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    add(pod, 1, WT::DataCaching, 5.0 * kDt);   // bucket 5
    add(pod, 0, WT::WebSearch, 2.0 * kDt);     // bucket 2, stays
    add(pod, 1, WT::WebSearch, 4.0 * kDt);     // bucket 4
    add(pod, 3, WT::Clustering, 3.0 * kDt);    // bucket 3
    add(pod, 1, WT::DataCaching, 2.5 * kDt);   // bucket 3
    add(pod, 2, WT::VirusScan, 3.0 * kDt);     // bucket 3, stays
    add(pod, 1, WT::DataCaching, 1.0 * kDt);   // bucket 1
    add(pod, 0, WT::Clustering, 5.0 * kDt);    // bucket 5, stays

    pod.evacuate({3, 1});

    // Server by server in the given order, type by type; each pair's
    // refugees take its records' buckets in drain order.
    std::vector<WT> types;
    for (const Job &job : pod.refugees)
        types.push_back(job.type);
    EXPECT_EQ(types, (std::vector<WT>{WT::Clustering, WT::WebSearch,
                                      WT::DataCaching, WT::DataCaching,
                                      WT::DataCaching}));
    EXPECT_EQ(pod.dues, (std::vector<Seconds>{3.0 * kDt, 4.0 * kDt,
                                              1.0 * kDt, 3.0 * kDt,
                                              5.0 * kDt}));
    EXPECT_EQ(pod.cluster.server(1).busyCores(), 0u);
    EXPECT_EQ(pod.cluster.server(3).busyCores(), 0u);

    // The other records keep their buckets and order.
    EXPECT_EQ(pod.departures.size(), 3u);
    const std::vector<Record> rest = drained(pod.departures, 10.0 * kDt);
    EXPECT_EQ(rest, (std::vector<Record>{
                        DepartureRing::pack(0, WT::WebSearch),
                        DepartureRing::pack(2, WT::VirusScan),
                        DepartureRing::pack(0, WT::Clustering)}));
}

TEST(DepartureRing, MigrationTakesEachSourcesEarliestDrainingRecord)
{
    using WT = WorkloadType;
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    add(pod, 0, WT::WebSearch, 4.0 * kDt);
    add(pod, 0, WT::WebSearch, 2.0 * kDt);
    add(pod, 1, WT::WebSearch, 3.0 * kDt);
    add(pod, 0, WT::WebSearch, 6.0 * kDt);
    add(pod, 0, WT::VirusScan, 1.0 * kDt);

    // 0 -> 1 takes server 0's bucket-2 record; 1 -> 2 then takes the
    // earliest of server 1's records, that same moved record; the
    // second 0 -> 3 takes the bucket-4 record.
    const std::vector<MigrationRequest> moves = {
        {0, WT::WebSearch, 1}, {1, WT::WebSearch, 2},
        {0, WT::WebSearch, 3}};
    for (const MigrationRequest &move : moves) {
        pod.cluster.removeJob(move.fromServer, move.type);
        pod.cluster.addJob(move.toServer, move.type);
    }
    pod.migrate(moves);

    using DR = DepartureRing;
    EXPECT_EQ(pendingOf(pod.departures),
              (std::vector<std::pair<std::uint64_t, Record>>{
                  {1, DR::pack(0, WT::VirusScan)},
                  {2, DR::pack(2, WT::WebSearch)},
                  {3, DR::pack(1, WT::WebSearch)},
                  {4, DR::pack(3, WT::WebSearch)},
                  {6, DR::pack(0, WT::WebSearch)}}));
    EXPECT_NO_THROW(pod.checkLedger());
}

TEST(DepartureRing, RulesPanicWhenTheRingMissesAJob)
{
    // A job the cluster runs without a departure record is a driver
    // bug; evacuation and migration name it instead of guessing.
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    pod.cluster.addJob(1, WorkloadType::WebSearch);
    EXPECT_DEATH(pod.evacuate({1}), "server 1 runs 1 type-0 jobs");
    EXPECT_DEATH(pod.migrate({{1, WorkloadType::WebSearch, 2}}),
                 "server 1 has no pending type-0 record");
}

TEST(DepartureRing, EvacuationPanicsWhenTheRingHoldsAnExtraRecord)
{
    // A record with no running job behind it overruns its pair's
    // share of the evacuated records (sized from the cluster's
    // counts); evacuation still counts every record and names the
    // pair with the ring's full count.
    using WT = WorkloadType;
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    add(pod, 1, WT::WebSearch, 2.0 * kDt);
    add(pod, 1, WT::WebSearch, 3.0 * kDt);
    add(pod, 1, WT::DataCaching, 2.0 * kDt);
    pod.cluster.removeJob(1, WT::WebSearch);
    EXPECT_DEATH(pod.evacuate({1}),
                 "server 1 runs 1 type-0 jobs but the departure ring "
                 "holds 2");
}

TEST(DepartureRing, LedgerCheckNamesTheFirstDisagreeingPair)
{
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    add(pod, 2, WorkloadType::VideoEncoding, kDt);
    EXPECT_NO_THROW(pod.checkLedger());
    pod.cluster.addJob(2, WorkloadType::VideoEncoding);
    try {
        pod.checkLedger();
        ADD_FAILURE() << "a missing departure was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("server 2 type 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Pod, FileSkipsUnplacedJobsAndFilesTheRestAtTheirDue)
{
    // file() reads the last placement result: kNoServer entries file
    // nothing and are not counted, and each placed job lands in the
    // bucket of its own due time.
    using WT = WorkloadType;
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    const std::vector<Job> jobs = {{0, WT::WebSearch, 0.0},
                                   {1, WT::VirusScan, 0.0},
                                   {2, WT::Clustering, 0.0},
                                   {3, WT::DataCaching, 0.0}};
    pod.placements = {3, kNoServer, 0, 3};
    const std::vector<Seconds> due = {2.5 * kDt, 1.0 * kDt, 1.0 * kDt,
                                      0.5 * kDt};
    EXPECT_EQ(pod.file(jobs, [&](std::size_t k) { return due[k]; }), 3u);

    using DR = DepartureRing;
    EXPECT_EQ(pendingOf(pod.departures),
              (std::vector<std::pair<std::uint64_t, Record>>{
                  {1, DR::pack(0, WT::Clustering)},
                  {1, DR::pack(3, WT::DataCaching)},
                  {3, DR::pack(3, WT::WebSearch)}}));
}

TEST(Pod, DrainReturnsTheDrainedCount)
{
    using WT = WorkloadType;
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    add(pod, 0, WT::WebSearch, 1.0 * kDt);
    add(pod, 2, WT::WebSearch, 0.5 * kDt);
    add(pod, 2, WT::VirusScan, 3.0 * kDt);
    EXPECT_EQ(pod.drain(0.0), 0u);
    EXPECT_EQ(pod.drain(1.0 * kDt), 2u);
    EXPECT_EQ(pod.cluster.busyCores(), 1u);
    EXPECT_EQ(pod.drain(2.0 * kDt), 0u);
    EXPECT_EQ(pod.drain(3.0 * kDt), 1u);
    EXPECT_EQ(pod.cluster.busyCores(), 0u);
    EXPECT_TRUE(pod.departures.empty());
}

TEST(Pod, SupplyRiseIsPushedWhenItChangesARestoreIncluded)
{
    RoundRobinScheduler policy;
    Pod pod = smallPod(policy);
    const auto inlet = [&pod] {
        return std::as_const(pod.cluster).server(2).inletTemp();
    };
    const Celsius initial = inlet();
    pod.pushSupplyRise(30.0); // No engine: nothing to push.
    EXPECT_EQ(inlet(), initial);

    FaultConfig config;
    config.plan = FaultPlan::parse("0 cooling-derate 2\n"
                                   "0.5 cooling-restore\n");
    pod.faults.emplace(config, pod.cluster.numServers());
    pod.faults->beginInterval(pod.cluster, 0.0, kDt);
    pod.pushSupplyRise(30.0);
    EXPECT_EQ(pod.appliedRise, 2.0);
    EXPECT_EQ(inlet(), 32.0);
    pod.pushSupplyRise(20.0); // Same rise: the latch holds.
    EXPECT_EQ(inlet(), 32.0);

    pod.faults->beginInterval(pod.cluster, 0.5 * kHour, kDt);
    pod.pushSupplyRise(30.0);
    EXPECT_EQ(pod.appliedRise, 0.0);
    EXPECT_EQ(inlet(), 30.0);
}

TEST(DepartureRing, LoaderRejectsWhatSaveStateNeverWrites)
{
    // Each payload is a v3 ring section, written field by field, for
    // a 4-server pod resuming at boundary 10.
    struct Bytes
    {
        Bytes &u64(std::uint64_t v) { out.putU64(v); return *this; }
        Bytes &u32(std::uint32_t v) { out.putU32(v); return *this; }
        Serializer out;
    };
    const auto load = [](const Bytes &bytes) {
        Deserializer in(bytes.out.bytes());
        DepartureRing ring(kDt, 4);
        ring.loadState(in, 10.0 * kDt);
        in.expectEnd();
        return ring.size();
    };
    EXPECT_EQ(load(Bytes().u64(2).u64(10).u64(1).u32(0).u64(12).u64(1)
                       .u32(19)),
              2u);
    // A bucket count or a record count beyond the bytes left.
    EXPECT_THROW(load(Bytes().u64(std::uint64_t{1} << 60)), FatalError);
    EXPECT_THROW(load(Bytes().u64(1).u64(10)
                          .u64(std::uint64_t{1} << 60).u32(0)),
                 FatalError);
    // A record naming server 4 of a 4-server pod.
    EXPECT_THROW(load(Bytes().u64(1).u64(10).u64(1).u32(20)),
                 FatalError);
    // A bucket before the resume boundary, beyond 2^53 - 1, a
    // repeated bucket and buckets out of drain order.
    EXPECT_THROW(load(Bytes().u64(1).u64(9).u64(1).u32(0)), FatalError);
    EXPECT_THROW(load(Bytes().u64(1).u64(std::uint64_t{1} << 53)
                          .u64(1).u32(0)),
                 FatalError);
    EXPECT_THROW(load(Bytes().u64(2).u64(12).u64(1).u32(0).u64(12)
                          .u64(1).u32(1)),
                 FatalError);
    EXPECT_THROW(load(Bytes().u64(2).u64(12).u64(1).u32(0).u64(11)
                          .u64(1).u32(1)),
                 FatalError);
}

/** A format v1/v2 job ledger, written field by field. */
struct LegacyLedger
{
    struct Slot
    {
        std::size_t server;
        std::uint8_t type;
        std::uint32_t pos;
    };

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    /** Per server, per type: resident slot ids. */
    std::vector<std::vector<std::vector<std::uint32_t>>> residents;
    std::vector<std::pair<Seconds, std::uint32_t>> departures;

    Serializer
    bytes() const
    {
        Serializer out;
        out.putSize(slots.size());
        for (const Slot &slot : slots) {
            out.putSize(slot.server);
            out.putU8(slot.type);
            out.putU32(slot.pos);
        }
        out.putSize(freeSlots.size());
        for (const std::uint32_t id : freeSlots)
            out.putU32(id);
        for (const auto &per_server : residents) {
            for (const auto &ids : per_server) {
                out.putSize(ids.size());
                for (const std::uint32_t id : ids)
                    out.putU32(id);
            }
        }
        out.putSize(departures.size());
        for (const auto &[time, id] : departures) {
            out.putDouble(time);
            out.putU32(id);
        }
        return out;
    }

    /** Load into a fresh 4-server ring resuming at boundary 1. */
    DepartureRing
    load() const
    {
        const Serializer out = bytes();
        Deserializer in(out.bytes());
        DepartureRing ring(kDt, 4);
        ring.loadLegacy(in, kDt);
        in.expectEnd();
        return ring;
    }
};

LegacyLedger
legacyLedger()
{
    LegacyLedger ledger;
    ledger.slots = {{1, 0, 0},         // live on server 1, type 0
                    {kNoServer, 2, 7}, // lost in an evacuation
                    {3, 4, 0},         // live on server 3, type 4
                    {2, 1, 5}};        // freed, stale
    ledger.freeSlots = {3};
    ledger.residents.assign(4, std::vector<std::vector<std::uint32_t>>(
                                   kNumWorkloads));
    ledger.residents[1][0] = {0};
    ledger.residents[3][4] = {2};
    ledger.departures = {{2.0 * kDt, 0}, {1.5 * kDt, 1}, {0.5 * kDt, 2}};
    return ledger;
}

TEST(DepartureRing, LegacyLedgerConvertsAndDropsTombstones)
{
    // Each live departure becomes a record in its time's bucket, a
    // late one (0.5 dt, before the resume boundary) in the resume
    // bucket; the tombstone leaves none.
    EXPECT_EQ(pendingOf(legacyLedger().load()),
              (std::vector<std::pair<std::uint64_t, Record>>{
                  {1, DepartureRing::pack(3, WorkloadType::Clustering)},
                  {2, DepartureRing::pack(1, WorkloadType::WebSearch)}}));
}

TEST(DepartureRing, LegacyLedgerIdsAreCheckedBeforeUse)
{
    LegacyLedger bad = legacyLedger();
    bad.slots[0].server = 4; // Outside the 4-server pod.
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.slots[2].type = 5;
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.freeSlots = {4};
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.residents[1][0] = {1'000'000};
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.residents[1][0] = {2}; // Slot 2 runs on server 3.
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.slots[0].pos = 1; // Listed at position 0.
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.departures.emplace_back(3.0 * kDt, 9);
    EXPECT_THROW(bad.load(), FatalError);
    bad = legacyLedger();
    bad.departures.emplace_back(std::nan(""), 0);
    EXPECT_THROW(bad.load(), FatalError);
}

} // namespace
} // namespace vmt
