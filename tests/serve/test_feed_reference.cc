/**
 * @file
 * SyntheticFeed against the per-draw reference generator
 * (reference/synthetic_feed.h): a million arrivals or more per shape,
 * compared bit for bit, under pulls cut at 1 s, 60 s and 3,600 s and
 * across a save and load mid-stream. The keep-floor shortcut must
 * fire on the default feed, and the loader must refuse a corrupt
 * cursor with a named fatal.
 *
 * The pull-ahead task (FeedPullAhead.*): under pull sequences that
 * keep, cut short and drop it, with the pool at one thread and at
 * four, every arrival still matches the reference, every saveState
 * matches a one-thread feed's, and loadState and destruction work
 * with a task in flight. A one-thread pool and a pool worker run
 * none.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "reference/synthetic_feed.h"
#include "serve/job_feed.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::serve {
namespace {

constexpr std::size_t kArrivals = 1000000;

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

/** Pull from @p feed in steps of @p cut seconds, starting at @p from,
 *  until @p out holds at least @p count arrivals; returns where the
 *  pulls stopped. */
Seconds
pull(SyntheticFeed &feed, Seconds cut, std::size_t count,
     std::vector<FeedJob> &out, Seconds from = 0.0)
{
    Seconds end = from;
    while (out.size() < count) {
        end += cut;
        feed.arrivalsUntil(end, out);
    }
    return end;
}

/** The first mismatch against the reference stream, or "" when every
 *  arrival matches bitwise. */
std::string
compare(const SyntheticFeedParams &params,
        const std::vector<FeedJob> &stream)
{
    reference::ReferenceFeed ref(params);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const FeedJob want = ref.next();
        if (bits(stream[i].time) != bits(want.time) ||
            stream[i].type != want.type ||
            bits(stream[i].duration) != bits(want.duration))
            return "arrival " + std::to_string(i) + " differs";
    }
    return "";
}

struct Shape
{
    const char *name;
    SyntheticFeedParams params;
    Seconds cut;
};

std::vector<Shape>
shapes()
{
    // A tenth of the default users stretches a million arrivals over
    // most of a day, trough and peak.
    SyntheticFeedParams day;
    day.users = 1e5;
    std::vector<Shape> out;
    out.push_back({"defaults", SyntheticFeedParams{}, 60.0});
    out.push_back({"day", day, 1.0});
    SyntheticFeedParams p = day;
    p.diurnalTrough = 0.0;
    out.push_back({"trough0", p, 3600.0});
    p = day;
    p.diurnalTrough = 1.0;
    out.push_back({"trough1", p, 60.0});
    p = day;
    p.rampHours = 2.0;
    out.push_back({"ramp", p, 1.0});
    p = day;
    p.burstPeriodHours = 1.0;
    out.push_back({"bursts", p, 3600.0});
    p.rampHours = 3.0;
    out.push_back({"ramp_bursts", p, 60.0});
    return out;
}

TEST(FeedReference, StreamsMatchTheReferenceBitwise)
{
    for (const Shape &shape : shapes()) {
        SyntheticFeed feed(shape.params);
        std::vector<FeedJob> stream;
        stream.reserve(kArrivals + 4096);
        pull(feed, shape.cut, kArrivals, stream);
        EXPECT_EQ(compare(shape.params, stream), "") << shape.name;
        EXPECT_EQ(feed.emitted(), stream.size()) << shape.name;
    }
}

TEST(FeedReference, ResumedStreamMatchesTheReferenceBitwise)
{
    SyntheticFeedParams params;
    params.users = 1e5;
    params.burstPeriodHours = 2.0;
    std::vector<FeedJob> stream;
    stream.reserve(kArrivals + 4096);

    SyntheticFeed first(params);
    const Seconds stop = pull(first, 60.0, kArrivals / 2, stream);
    Serializer out;
    first.saveState(out);

    SyntheticFeed resumed(params);
    Deserializer in(out.bytes());
    resumed.loadState(in);
    in.expectEnd();
    pull(resumed, 60.0, kArrivals, stream, stop);
    EXPECT_EQ(compare(params, stream), "");
    EXPECT_EQ(resumed.emitted(), stream.size());
}

TEST(FeedReference, KeepFloorAcceptsAShareOfTheDefaultFeed)
{
    // At the default trough of 0.35 about half the accepted
    // candidates fall below the floor; a shortcut that never fires
    // would leave this at 0.
    SyntheticFeed feed(SyntheticFeedParams{});
    std::vector<FeedJob> stream;
    pull(feed, 60.0, 200000, stream);
    EXPECT_GT(feed.floorAccepts(), stream.size() / 4);
    EXPECT_LE(feed.floorAccepts(), stream.size() + 1);
}

/** A saved default feed with its pending arrival, as bytes. */
std::vector<std::uint8_t>
savedFeed()
{
    SyntheticFeed feed(SyntheticFeedParams{});
    std::vector<FeedJob> sink;
    feed.arrivalsUntil(30.0, sink);
    Serializer out;
    feed.saveState(out);
    return out.bytes();
}

/** Offsets into savedFeed(): 7 parameter doubles and the seed, the
 *  RNG (4 words, spare flag, spare), the candidate time, the pending
 *  flag, then the pending arrival (time, type, duration). */
constexpr std::size_t kRngAt = 8 * 8;
constexpr std::size_t kCandidateAt = kRngAt + 4 * 8 + 1 + 8;
constexpr std::size_t kPendingAt = kCandidateAt + 8 + 1;

void
putDouble(std::vector<std::uint8_t> &bytes, std::size_t at, double value)
{
    std::memcpy(bytes.data() + at, &value, sizeof value);
}

std::string
loadError(const std::vector<std::uint8_t> &bytes)
{
    SyntheticFeed feed(SyntheticFeedParams{});
    Deserializer in(bytes);
    try {
        feed.loadState(in);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(FeedReference, LoadRejectsACorruptCursorByName)
{
    const std::vector<std::uint8_t> good = savedFeed();
    ASSERT_EQ(loadError(good), "");

    std::vector<std::uint8_t> bad = good;
    bad[kPendingAt + 8] = 200; // Workload type.
    EXPECT_NE(loadError(bad).find("FEED section is corrupt: workload "
                                  "type 200"),
              std::string::npos);

    for (const double value : {-1.0, std::nan(""), HUGE_VAL}) {
        bad = good;
        putDouble(bad, kPendingAt, value);
        EXPECT_NE(loadError(bad).find("arrival time"), std::string::npos)
            << value;
        bad = good;
        putDouble(bad, kPendingAt + 9, value);
        EXPECT_NE(loadError(bad).find("job duration"), std::string::npos)
            << value;
        bad = good;
        putDouble(bad, kCandidateAt, value);
        EXPECT_NE(loadError(bad).find("candidate time"),
                  std::string::npos)
            << value;
    }

    bad = good;
    std::memset(bad.data() + kRngAt, 0, 4 * 8);
    EXPECT_NE(loadError(bad).find("all-zero RNG state"),
              std::string::npos);
}

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

/** A tenth of the default users: about 20 arrivals a second. */
SyntheticFeedParams
tenthUsers()
{
    SyntheticFeedParams params;
    params.users = 1e5;
    return params;
}

/** The driver's boundaries, interval * dt + dt. */
std::vector<Seconds>
boundaries(Seconds dt, std::size_t count)
{
    std::vector<Seconds> ends;
    for (std::size_t interval = 0; interval < count; ++interval)
        ends.push_back(static_cast<double>(interval) * dt + dt);
    return ends;
}

/** One pull's end, and whether it adopts the task in flight when the
 *  pool has more than one thread. */
struct Pull
{
    Seconds end;
    bool adopts;
};

/**
 * Minute boundaries to 1,800 s, then each step a task does not
 * expect: a repeated end (dropped), a pull after it (no task: the
 * step was 0), a longer step (adopted and topped up), a shorter one
 * (dropped), a boundary one ulp below the guess (adopted: no arrival
 * lies in that ulp), a 3,600 s jump and 3,600 s spans (adopted) and a
 * minute after them (dropped).
 */
std::vector<Pull>
irregularPulls()
{
    std::vector<Pull> pulls;
    for (const Seconds end : boundaries(60.0, 30))
        pulls.push_back({end, end > 120.0});
    const Seconds t = pulls.back().end;
    const Pull more[] = {
        {t + 60.0, true},     {t + 60.0, false},
        {t + 90.0, false},    {t + 150.0, true},
        {t + 180.0, false},   {t + 240.0, true},
        {std::nextafter(t + 300.0, 0.0), true},
        {t + 360.0, true},    {t + 3960.0, true},
        {t + 7560.0, true},   {t + 11160.0, true},
        {t + 11220.0, false}};
    pulls.insert(pulls.end(), std::begin(more), std::end(more));
    return pulls;
}

std::vector<Seconds>
endsOf(const std::vector<Pull> &pulls)
{
    std::vector<Seconds> ends;
    for (const Pull &pull : pulls)
        ends.push_back(pull.end);
    return ends;
}

/** Pull to each end in turn, calling after(index, stream) after each
 *  pull (a task may be in flight then). */
template <typename After>
std::vector<FeedJob>
pullTo(SyntheticFeed &feed, const std::vector<Seconds> &ends,
       After &&after)
{
    std::vector<FeedJob> stream;
    for (std::size_t i = 0; i < ends.size(); ++i) {
        feed.arrivalsUntil(ends[i], stream);
        after(i, stream);
    }
    return stream;
}

/** How many reference arrivals are due before each end. */
std::vector<std::size_t>
prefixSizes(const SyntheticFeedParams &params,
            const std::vector<Seconds> &ends)
{
    reference::ReferenceFeed ref(params);
    std::vector<std::size_t> sizes;
    std::size_t count = 0;
    FeedJob next = ref.next();
    for (const Seconds end : ends) {
        for (; next.time < end; next = ref.next())
            ++count;
        sizes.push_back(count);
    }
    return sizes;
}

std::vector<std::uint8_t>
saved(const SyntheticFeed &feed)
{
    Serializer out;
    feed.saveState(out);
    return out.bytes();
}

TEST(FeedPullAhead, PullSequencesMatchTheReferenceBitwise)
{
    ThreadCountGuard guard;
    struct Sequence
    {
        const char *name;
        std::vector<Pull> pulls;
    };
    // The driver's boundaries: every pull after the second adopts.
    // At dt = 0.1 each guess lies an ulp or so off the next boundary,
    // with no arrival in between.
    const auto driver = [](Seconds dt, std::size_t count) {
        std::vector<Pull> pulls;
        for (const Seconds end : boundaries(dt, count))
            pulls.push_back({end, pulls.size() >= 2});
        return pulls;
    };
    const Sequence sequences[] = {
        {"minutes", driver(60.0, 300)},
        {"tenths", driver(0.1, 3000)},
        {"irregular", irregularPulls()},
    };
    for (const std::size_t threads : {1, 4}) {
        setGlobalThreadCount(threads);
        for (const Sequence &seq : sequences) {
            SCOPED_TRACE(std::string(seq.name) + " at " +
                         std::to_string(threads) + " threads");
            const std::vector<Seconds> ends = endsOf(seq.pulls);
            const std::vector<std::size_t> sizes =
                prefixSizes(tenthUsers(), ends);
            SyntheticFeed feed(tenthUsers());
            std::uint64_t adopted = 0;
            const std::vector<FeedJob> stream = pullTo(
                feed, ends,
                [&](std::size_t i, const std::vector<FeedJob> &got) {
                    EXPECT_EQ(got.size(), sizes[i]) << "pull " << i;
                    const bool adopts = threads > 1 && seq.pulls[i].adopts;
                    EXPECT_EQ(feed.adopted(), adopted + adopts)
                        << "pull " << i;
                    adopted = feed.adopted();
                });
            EXPECT_EQ(compare(tenthUsers(), stream), "");
            EXPECT_EQ(feed.emitted(), stream.size());
            EXPECT_GT(stream.size(), 2000u);
        }
    }
}

TEST(FeedPullAhead, SaveStateWithATaskInFlightMatchesTheSerialFeed)
{
    ThreadCountGuard guard;
    std::vector<Seconds> ends = boundaries(60.0, 120);
    for (const Pull &pull : irregularPulls())
        ends.push_back(7200.0 + pull.end);

    setGlobalThreadCount(1);
    SyntheticFeed serial(tenthUsers());
    std::vector<std::vector<std::uint8_t>> want;
    pullTo(serial, ends, [&](std::size_t, const std::vector<FeedJob> &) {
        want.push_back(saved(serial));
    });

    // Every other save waits a moment first, so that the task has
    // pulled ahead by then.
    setGlobalThreadCount(4);
    SyntheticFeed ahead(tenthUsers());
    pullTo(ahead, ends, [&](std::size_t i, const std::vector<FeedJob> &) {
        if (i % 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(saved(ahead), want[i]) << "after pull " << i;
    });
    EXPECT_GT(ahead.adopted(), 100u);
}

TEST(FeedPullAhead, LoadAndDestructionWithATaskInFlight)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(4);
    const SyntheticFeedParams params = tenthUsers();
    const std::vector<Seconds> ends = boundaries(3600.0, 6);

    // Save after the third span and after the fifth, then go back to
    // the first save: the task in flight pulled from the replaced
    // cursor and is dropped.
    SyntheticFeed feed(params);
    std::vector<FeedJob> stream;
    for (std::size_t i = 0; i < 3; ++i)
        feed.arrivalsUntil(ends[i], stream);
    const std::vector<std::uint8_t> third = saved(feed);
    const std::size_t kept = stream.size();
    feed.arrivalsUntil(ends[3], stream);
    feed.arrivalsUntil(ends[4], stream);
    ASSERT_EQ(feed.adopted(), 3u);
    const std::vector<std::uint8_t> fifth = saved(feed);
    std::vector<FeedJob> resumed = stream;
    stream.resize(kept);
    Deserializer in(third);
    feed.loadState(in);
    in.expectEnd();
    for (std::size_t i = 3; i < ends.size(); ++i)
        feed.arrivalsUntil(ends[i], stream);
    EXPECT_EQ(compare(params, stream), "");
    EXPECT_EQ(feed.emitted(), stream.size());

    // Forward: a feed whose task in flight covers the second span
    // loads the fifth-span save; that task's arrivals all lie before
    // the next end, and must still be dropped.
    SyntheticFeed behind(params);
    std::vector<FeedJob> early;
    behind.arrivalsUntil(ends[0], early);
    behind.arrivalsUntil(ends[1], early);
    Deserializer ahead_in(fifth);
    behind.loadState(ahead_in);
    behind.arrivalsUntil(ends[5], resumed);
    EXPECT_EQ(compare(params, resumed), "");
    EXPECT_EQ(behind.emitted(), resumed.size());

    // Destroyed with the first task in flight, and with one
    // submitted after an adoption.
    for (const std::size_t pulls : {2, 3}) {
        SyntheticFeed doomed(params);
        std::vector<FeedJob> sink;
        for (std::size_t i = 0; i < pulls; ++i)
            doomed.arrivalsUntil(ends[i], sink);
    }
}

TEST(FeedPullAhead, OneThreadPoolAndPoolWorkersRunNoTask)
{
    ThreadCountGuard guard;
    const std::vector<Seconds> ends = boundaries(60.0, 100);

    setGlobalThreadCount(1);
    const std::uint64_t before = ThreadPool::taskStats().tasks;
    SyntheticFeed serial(tenthUsers());
    const auto ignore = [](std::size_t, const std::vector<FeedJob> &) {};
    const std::vector<FeedJob> stream = pullTo(serial, ends, ignore);
    EXPECT_EQ(ThreadPool::taskStats().tasks, before);
    EXPECT_EQ(serial.adopted(), 0u);

    // Pulled from inside a pool worker, the feed runs no task either:
    // with exact guesses any task would have been adopted.
    setGlobalThreadCount(4);
    SyntheticFeed nested(tenthUsers());
    std::vector<FeedJob> inside;
    globalPool()
        .submit([&] { inside = pullTo(nested, ends, ignore); })
        .get();
    EXPECT_EQ(nested.adopted(), 0u);
    EXPECT_EQ(compare(tenthUsers(), inside), "");
    EXPECT_EQ(inside.size(), stream.size());
}

} // namespace
} // namespace vmt::serve
