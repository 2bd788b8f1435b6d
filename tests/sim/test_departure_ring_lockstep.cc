/**
 * @file
 * The departure ring (sim/departure_ring.h) against the deque-based
 * ring it replaced (tests/reference/deque_departure_ring.h), call for
 * call: the same records must drain in the same order (not merely as
 * a multiset), removeIf must offer the same (bucket, record) pairs,
 * forEachBucket must visit the same (index, records), saveState must
 * write the same bytes and size() must agree, across slot doublings,
 * the kWindow hand-off, late records, empty stretches, checkpoint
 * round trips and the last representable buckets. bucketOf is checked
 * separately against the unsigned guess-and-loops formula.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "reference/deque_departure_ring.h"
#include "sim/departure_ring.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::DequeDepartureRing;
using Record = DepartureRing::Record;

/** Wide enough that any test id is a valid record. */
constexpr std::size_t kServers = std::size_t{1} << 24;
constexpr std::uint64_t kRecords = kServers * kNumWorkloads;
constexpr std::uint64_t kWindow = DequeDepartureRing::kWindow;
constexpr std::uint64_t kMaxBucket = DequeDepartureRing::kMaxBucket;

/** Every (index, records) forEachBucket visits, in its order. */
using Visits = std::vector<std::pair<std::uint64_t, std::vector<Record>>>;

template <typename Ring>
Visits
visits(const Ring &ring)
{
    Visits out;
    ring.forEachBucket(
        [&](std::uint64_t b, const std::vector<Record> &records) {
            out.emplace_back(b, records);
        });
    return out;
}

template <typename Ring>
std::vector<std::uint8_t>
stateBytes(const Ring &ring)
{
    Serializer out;
    ring.saveState(out);
    return out.bytes();
}

/** bucketOf, or nullopt where it is a fatal. */
template <typename Ring>
std::optional<std::uint64_t>
bucketOrFatal(const Ring &ring, Seconds time)
{
    try {
        return ring.bucketOf(time);
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

/** Both rings, driven by the same calls and compared after each. */
class Twin
{
  public:
    explicit Twin(Seconds dt)
        : dt_(dt), flat_(dt, kServers), deque_(dt, kServers)
    {}

    Seconds at(std::uint64_t b) const
    {
        return static_cast<double>(b) * dt_;
    }

    void
    schedule(Seconds due)
    {
        const Record record = static_cast<Record>(next_++ % kRecords);
        flat_.schedule(due, record);
        deque_.schedule(due, record);
    }

    /** Drain both at `now`; the records must match in order. */
    void
    drain(Seconds now)
    {
        std::vector<Record> got, want;
        flat_.drain(now, [&](Record r) { got.push_back(r); });
        deque_.drain(now, [&](Record r) { want.push_back(r); });
        ASSERT_EQ(got, want) << "drain at " << now;
        drained_ += got.size();
        // The full comparison is O(pending); every eighth drain and
        // every other operation take it.
        if (++drains_ % 8 == 0)
            check("drain");
        else
            ASSERT_EQ(flat_.size(), deque_.size()) << "drain";
    }

    /** A seeded removeIf on both; the predicate must see the same
     *  (bucket, record) pairs in the same order. */
    void
    removeIf(std::uint64_t salt)
    {
        using Seen = std::vector<std::pair<std::uint64_t, Record>>;
        Seen got, want;
        const auto pred = [salt](std::uint64_t b, Record r) {
            return (r * 0x9E3779B1ull + b + salt) % 5 == 0;
        };
        flat_.removeIf([&](std::uint64_t b, Record r) {
            got.emplace_back(b, r);
            return pred(b, r);
        });
        deque_.removeIf([&](std::uint64_t b, Record r) {
            want.emplace_back(b, r);
            return pred(b, r);
        });
        ASSERT_EQ(got, want);
        check("removeIf");
    }

    /** Rewrite some records in place through the mutable
     *  forEachBucket, as migrateRecords does. */
    void
    rewrite(std::uint64_t salt)
    {
        Visits got, want;
        const auto edit = [salt](Visits &seen) {
            return [&seen, salt](std::uint64_t b,
                                 std::vector<Record> &records) {
                seen.emplace_back(b, records);
                for (Record &r : records)
                    if ((r + salt) % 3 == 0)
                        r = static_cast<Record>((r + salt) % kRecords);
            };
        };
        flat_.forEachBucket(edit(got));
        deque_.forEachBucket(edit(want));
        ASSERT_EQ(got, want);
        check("rewrite");
    }

    /** saveState -> loadState at `resume`, into the same rings or
     *  into fresh ones. */
    void
    roundTrip(Seconds resume, bool fresh)
    {
        const std::vector<std::uint8_t> bytes = stateBytes(flat_);
        ASSERT_EQ(bytes, stateBytes(deque_));
        Deserializer flat_in(bytes), deque_in(bytes);
        if (fresh) {
            flat_ = DepartureRing(dt_, kServers);
            deque_ = DequeDepartureRing(dt_, kServers);
        }
        flat_.loadState(flat_in, resume);
        deque_.loadState(deque_in, resume);
        flat_in.expectEnd();
        deque_in.expectEnd();
        ++roundTrips_;
        check("roundTrip");
    }

    void
    check(const char *after)
    {
        ASSERT_EQ(flat_.size(), deque_.size()) << after;
        ASSERT_EQ(flat_.empty(), deque_.empty()) << after;
        ASSERT_EQ(visits(flat_), visits(deque_)) << after;
        ASSERT_EQ(stateBytes(flat_), stateBytes(deque_)) << after;
    }

    std::size_t size() const { return flat_.size(); }
    DepartureRing &flat() { return flat_; }
    std::uint64_t drained() const { return drained_; }
    std::uint64_t roundTrips() const { return roundTrips_; }

  private:
    Seconds dt_;
    DepartureRing flat_;
    DequeDepartureRing deque_;
    std::uint64_t next_ = 0;
    std::uint64_t drains_ = 0;
    std::uint64_t drained_ = 0;
    std::uint64_t roundTrips_ = 0;
};

/**
 * With records pending from `base` on, file one record at each side
 * of every power of two from 16 to kWindow buckets ahead (each
 * first-past-the-end offset doubles a ring that starts at 16 slots),
 * then at kWindow - 1, kWindow and kWindow + 1 and far beyond.
 */
void
ladder(Twin &t, std::uint64_t base)
{
    for (std::uint64_t off = 0; off < 16; ++off)
        t.schedule(t.at(base + off));
    for (std::uint64_t step = 16; step <= kWindow; step *= 2) {
        t.schedule(t.at(base + step - 1));
        t.schedule(t.at(base + step));
        t.schedule(t.at(base + step / 2 + 1));
    }
    for (const std::uint64_t off :
         {kWindow - 1, kWindow, kWindow + 1, 3 * kWindow,
          std::uint64_t{1'000'003}})
        t.schedule(t.at(base + off));
}

/**
 * The seeded stream for one dt: ladders, then intervals of mixed
 * filings — on a boundary, one ulp either side of it, at the window
 * edges, far out, late and in between — with removeIf, in-place
 * rewrites, round trips and jumps across empty stretches mixed in;
 * it ends in the last representable buckets.
 */
void
runStream(Seconds dt, std::uint64_t seed, std::size_t steps)
{
    SCOPED_TRACE("dt " + std::to_string(dt));
    Twin t(dt);
    Rng rng(seed);
    const Seconds inf = std::numeric_limits<Seconds>::infinity();

    ladder(t, 0);
    std::uint64_t interval = 0;
    for (std::size_t step = 0; step < steps; ++step) {
        const Seconds now = t.at(interval);
        t.drain(now);
        if (::testing::Test::HasFatalFailure())
            return;
        // The next bucket to drain.
        const std::uint64_t base = interval + 1;
        const std::uint64_t batch = rng.below(40);
        for (std::uint64_t j = 0; j < batch; ++j) {
            const std::uint64_t off = rng.below(300);
            switch (rng.below(8)) {
            case 0:
                t.schedule(t.at(base + off));
                break;
            case 1:
                t.schedule(std::nextafter(t.at(base + off), inf));
                break;
            case 2:
                t.schedule(std::nextafter(t.at(base + off), 0.0));
                break;
            case 3: {
                // kWindow - 1, kWindow or kWindow + 1 buckets ahead.
                const Seconds due =
                    t.at(base + kWindow - 1 + rng.below(3));
                const Seconds nudged[3] = {
                    due, std::nextafter(due, inf),
                    std::nextafter(due, 0.0)};
                t.schedule(nudged[rng.below(3)]);
                break;
            }
            case 4:
                t.schedule(t.at(base + kWindow + rng.below(1 << 20)));
                break;
            case 5:
                t.schedule(std::max(
                    0.0, now - rng.uniform() * 50.0 * dt));
                break;
            default:
                t.schedule(now + rng.uniform() * 300.0 * dt);
                break;
            }
        }
        if (rng.below(40) == 0)
            t.removeIf(rng.next());
        if (rng.below(40) == 0)
            t.rewrite(rng.next());
        if (rng.below(60) == 0) {
            // The drivers resume at the next interval's boundary.
            const bool fresh = rng.below(2) == 0;
            t.roundTrip(t.at(interval + 1), fresh);
            if (rng.below(2) == 0)
                ladder(t, interval + 1);
        }
        if (::testing::Test::HasFatalFailure())
            return;
        // Mostly one interval; now and then a jump across an empty
        // (or not) stretch, past the window or the overflow front.
        interval += rng.below(20) == 0 ? 1 + rng.below(6000) : 1;
    }

    // The last representable buckets. Past the last boundary the
    // next bucket to drain is 2^53, which no drain reaches, so the
    // production ring refuses any later filing (a late one, or one
    // due at the last boundary) by name and stays empty; the deque
    // ring would keep the record pending for ever.
    const Seconds last = t.at(kMaxBucket);
    t.schedule(last);
    t.schedule(std::nextafter(last, 0.0));
    t.schedule(t.at(kMaxBucket - 1));
    t.schedule(t.at(kMaxBucket - kWindow));
    t.drain(t.at(kMaxBucket - 1));
    t.drain(last);
    EXPECT_EQ(t.size(), 0u);
    for (const Seconds due : {0.0, last}) {
        std::string error;
        try {
            t.flat().schedule(due, 0);
        } catch (const FatalError &e) {
            error = e.what();
        }
        EXPECT_NE(error.find("passed the last bucket"), std::string::npos)
            << "due " << due << ": " << error;
    }
    t.drain(std::numeric_limits<Seconds>::max());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.flat().empty());
    EXPECT_GT(t.drained(), steps);
    EXPECT_GT(t.roundTrips(), 0u);
}

TEST(DepartureRingLockstep, MinuteIntervals)
{
    runStream(60.0, 0x5EED0060ull, 6000);
}

TEST(DepartureRingLockstep, SevenSecondIntervals)
{
    runStream(7.0, 0x5EED0007ull, 6000);
}

TEST(DepartureRingLockstep, MillisecondIntervals)
{
    runStream(0.001, 0x5EED0001ull, 6000);
}

TEST(DepartureRingLockstep, MegasecondIntervals)
{
    runStream(1e6, 0x5EED1E06ull, 6000);
}

/**
 * bucketOf against the unsigned guess-and-loops formula on a million
 * random and adversarial times: boundaries, one ulp either side of
 * them, indices near 2^53, log-uniform times, and the fatals.
 */
TEST(DepartureRingLockstep, BucketOfMatchesTheUnsignedLoops)
{
    const Seconds dts[] = {60.0, 7.0,  0.1,     0.001,
                           1e6,  86400.0, 1.0 / 3.0, 1e-7};
    const Seconds inf = std::numeric_limits<Seconds>::infinity();
    constexpr std::size_t kPerDt = 125'000;
    Rng rng(0xB0C4E7ull);
    std::size_t compared = 0;
    std::size_t fatals = 0;
    for (const Seconds dt : dts) {
        const DepartureRing flat(dt, 1);
        const DequeDepartureRing deque(dt, 1);
        const Seconds max_time = static_cast<double>(kMaxBucket) * dt;
        const auto compare = [&](Seconds time) {
            const auto got = bucketOrFatal(flat, time);
            const auto want = bucketOrFatal(deque, time);
            ++compared;
            fatals += !want.has_value();
            if (got != want) {
                ADD_FAILURE() << "dt " << dt << " time " << time;
                return false;
            }
            return true;
        };
        for (const Seconds time :
             {0.0, -0.0, std::numeric_limits<Seconds>::denorm_min(),
              dt, max_time, std::nextafter(max_time, 0.0),
              std::nextafter(max_time, inf), inf, -inf, -1.0,
              std::nan("")})
            if (!compare(time))
                return;
        for (std::size_t i = 0; i < kPerDt; ++i) {
            // An index of random magnitude, or one near 2^53.
            const std::uint64_t k =
                rng.below(4) == 0 ? kMaxBucket - rng.below(4096)
                                  : rng.next() >> (11 + rng.below(53));
            const Seconds on = static_cast<double>(k) * dt;
            Seconds time = on;
            switch (i % 4) {
            case 0:
                break;
            case 1:
                time = std::nextafter(on, inf);
                break;
            case 2:
                time = std::nextafter(on, 0.0);
                break;
            default:
                time = max_time * std::exp2(-64.0 * rng.uniform());
                break;
            }
            if (!compare(time))
                return;
        }
    }
    EXPECT_GE(compared, 1'000'000u);
    EXPECT_GT(fatals, 0u);
}

} // namespace
} // namespace vmt
