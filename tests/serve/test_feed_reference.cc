/**
 * @file
 * SyntheticFeed against the per-draw reference generator
 * (reference/synthetic_feed.h): a million arrivals or more per shape,
 * compared bit for bit, under pulls cut at 1 s, 60 s and 3,600 s and
 * across a save and load mid-stream. The keep-floor shortcut must
 * fire on the default feed, and the loader must refuse a corrupt
 * cursor with a named fatal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "reference/synthetic_feed.h"
#include "serve/job_feed.h"
#include "state/serializer.h"
#include "util/logging.h"

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

} // namespace
} // namespace vmt::serve
