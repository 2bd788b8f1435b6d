#include "serve/job_feed.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "state/fields.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/job_generator.h"

namespace vmt::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

[[noreturn]] void
badLine(const std::string &origin, std::size_t line,
        const std::string &why)
{
    fatal("serve feed " + origin + ":" + std::to_string(line) + ": " +
          why);
}

constexpr ResumeCheck check{"serve feed snapshot"};

/** The shape parameters a FEED section echoes: a resume under
 *  different ones would silently change the remaining stream. */
template <typename IO>
void
echoParams(IO &io, const SyntheticFeedParams &params)
{
    echo(io, "users", params.users);
    echo(io, "requestsPerUserHour", params.requestsPerUserHour);
    echo(io, "diurnalTrough", params.diurnalTrough);
    echo(io, "rampHours", params.rampHours);
    echo(io, "burstPeriodHours", params.burstPeriodHours);
    echo(io, "burstFactor", params.burstFactor);
    echo(io, "burstMinutes", params.burstMinutes);
    echo(io, "seed", params.seed);
}

} // namespace

void
saveFeedJob(Serializer &out, const FeedJob &job)
{
    out.putDouble(job.time);
    out.putU8(static_cast<std::uint8_t>(job.type));
    out.putDouble(job.duration);
}

FeedJob
loadFeedJob(Deserializer &in, const char *section)
{
    const auto corrupt = [section](const std::string &what) {
        fatal(std::string("serve snapshot ") + section +
              " section is corrupt: " + what);
    };
    FeedJob job;
    job.time = in.getDouble();
    if (!std::isfinite(job.time) || job.time < 0.0)
        corrupt("arrival time " + std::to_string(job.time));
    const std::uint8_t type = in.getU8();
    if (type >= kNumWorkloads)
        corrupt("workload type " + std::to_string(type));
    job.type = static_cast<WorkloadType>(type);
    job.duration = in.getDouble();
    if (!std::isfinite(job.duration) || job.duration < 0.0)
        corrupt("job duration " + std::to_string(job.duration));
    return job;
}

SyntheticFeed::SyntheticFeed(const SyntheticFeedParams &params)
    : params_(params)
{
    if (!(params.users > 0.0) ||
        !(params.requestsPerUserHour > 0.0))
        fatal("SyntheticFeed: users and requestsPerUserHour must be "
              "positive");
    if (params.diurnalTrough < 0.0 || params.diurnalTrough > 1.0)
        fatal("SyntheticFeed: diurnalTrough must be in [0, 1]");
    if (params.rampHours < 0.0)
        fatal("SyntheticFeed: rampHours must be >= 0");
    if (params.burstPeriodHours < 0.0)
        fatal("SyntheticFeed: burstPeriodHours must be >= 0");
    if (params.burstPeriodHours > 0.0) {
        if (params.burstFactor < 1.0)
            fatal("SyntheticFeed: burstFactor must be >= 1");
        if (params.burstMinutes <= 0.0 ||
            params.burstMinutes / 60.0 >= params.burstPeriodHours)
            fatal("SyntheticFeed: burstMinutes must be positive and "
                  "shorter than the burst period");
    }
    baseRate_ = params.users * params.requestsPerUserHour / 3600.0;
    maxRate_ = baseRate_ * (params.burstPeriodHours > 0.0
                                ? params.burstFactor
                                : 1.0);
    candidateGap_ = 1.0 / maxRate_;
    keepFloor_ = diurnalRate(0.0) / maxRate_;
    cur_.rng = Rng(params.seed);
    const WorkloadShares shares = catalogShares();
    double cdf = 0.0;
    for (WorkloadType type : kAllWorkloads) {
        const std::size_t w = workloadIndex(type);
        cdf += shares[w];
        typeCdf_[w] = cdf;
        meanDuration_[w] = workloadInfo(type).meanDuration;
    }
}

double
SyntheticFeed::ratePerSecond(Seconds t) const
{
    if (t < 0.0)
        return 0.0;
    const double hours = secondsToHours(t);
    // Sinusoidal day: trough at hour 0, peak at hour 12.
    const double shape =
        0.5 * (1.0 - std::cos(2.0 * kPi * hours / 24.0));
    double rate = diurnalRate(shape);
    if (params_.rampHours > 0.0 && hours < params_.rampHours)
        rate *= hours / params_.rampHours;
    if (params_.burstPeriodHours > 0.0) {
        const double phase =
            std::fmod(hours, params_.burstPeriodHours);
        if (phase < params_.burstMinutes / 60.0)
            rate *= params_.burstFactor;
    }
    return rate;
}

SyntheticFeed::~SyntheticFeed()
{
    try {
        settle(true);
    } catch (const std::exception &e) {
        warn(std::string("SyntheticFeed: a dropped pull-ahead task "
                         "failed: ") +
             e.what());
    }
}

void
SyntheticFeed::generateNext(Cursor &c) const
{
    // Lewis–Shedler thinning at the constant envelope rate maxRate_:
    // the candidate sequence (and every accept/reject draw) depends
    // only on the seed, never on how callers segment their pulls.
    while (true) {
        c.candidateTime += c.rng.exponential(candidateGap_);
        const double u = c.rng.uniform();
        // Below the keep floor the candidate is kept whatever the rate
        // (never inside the warm-up ramp, which scales below it).
        if (u < keepFloor_ &&
            !(params_.rampHours > 0.0 &&
              secondsToHours(c.candidateTime) < params_.rampHours))
            ++c.floorAccepts;
        else if (u >= ratePerSecond(c.candidateTime) / maxRate_)
            continue;
        // Type from the catalog CDF, then duration — one fixed draw
        // order per accepted arrival.
        const double v = c.rng.uniform();
        std::size_t w = kNumWorkloads - 1;
        for (std::size_t i = 0; i < kNumWorkloads; ++i) {
            if (v < typeCdf_[i]) {
                w = i;
                break;
            }
        }
        c.pending = FeedJob{c.candidateTime, kAllWorkloads[w],
                            c.rng.exponential(meanDuration_[w])};
        return;
    }
}

void
SyntheticFeed::pull(Cursor &c, Seconds end, std::vector<FeedJob> &out,
                    const std::atomic<bool> *cancel) const
{
    if (!c.pending)
        generateNext(c);
    while (c.pending->time < end) {
        if (cancel && (out.size() == out.capacity() ||
                       cancel->load(std::memory_order_relaxed)))
            return;
        out.push_back(*c.pending);
        ++c.emitted;
        generateNext(c);
    }
}

void
SyntheticFeed::settle(bool cancel)
{
    if (!ahead_.valid())
        return;
    if (cancel)
        cancel_.store(true, std::memory_order_relaxed);
    ahead_.get();
}

void
SyntheticFeed::arrivalsUntil(Seconds end, std::vector<FeedJob> &out)
{
    const std::size_t before = out.size();
    if (ahead_.valid()) {
        // What the task pulled is kept only if all of it is due
        // before `end`: then it is the prefix a serial pull would
        // return, and its cursor continues the stream from there.
        settle(false);
        if (aheadBuf_.empty() || aheadBuf_.back().time < end) {
            if (out.empty())
                out.swap(aheadBuf_);
            else
                out.insert(out.end(), aheadBuf_.begin(),
                           aheadBuf_.end());
            cur_ = aheadCur_;
            ++adopted_;
        }
    }
    pull(cur_, end, out, nullptr);

    const std::optional<Seconds> last = std::exchange(lastEnd_, end);
    if (!last || !(end > *last) || ThreadPool::insideWorker())
        return;
    ThreadPool &pool = globalPool();
    if (pool.size() <= 1)
        return;
    // Guess that the step repeats, and size the task's buffer here
    // for about as many arrivals as this pull returned, so only this
    // thread allocates; a task that fills it stops, and the next
    // pull tops up.
    aheadEnd_ = end + (end - *last);
    aheadCur_ = cur_;
    aheadBuf_.clear();
    const std::size_t count = out.size() - before;
    const std::size_t want = count + count / 4 + 64;
    if (aheadBuf_.capacity() < want)
        aheadBuf_.reserve(std::max(want, 2 * aheadBuf_.capacity()));
    cancel_.store(false, std::memory_order_relaxed);
    ahead_ = pool.submit(
        [this] { pull(aheadCur_, aheadEnd_, aheadBuf_, &cancel_); });
}

void
SyntheticFeed::saveState(Serializer &out) const
{
    echoParams(out, params_);
    field(out, cur_.rng);
    out.putDouble(cur_.candidateTime);
    out.putBool(cur_.pending.has_value());
    if (cur_.pending)
        saveFeedJob(out, *cur_.pending);
    out.putU64(cur_.emitted);
}

void
SyntheticFeed::loadState(Deserializer &in)
{
    settle(true);
    lastEnd_.reset();
    Restore io{in, check, "serve snapshot FEED"};
    echoParams(io, params_);
    field(io, cur_.rng);
    cur_.candidateTime = in.getDouble();
    if (!std::isfinite(cur_.candidateTime) || cur_.candidateTime < 0.0)
        fatal("serve snapshot FEED section is corrupt: candidate time " +
              std::to_string(cur_.candidateTime));
    cur_.pending.reset();
    if (in.getBool())
        cur_.pending = loadFeedJob(in, "FEED");
    cur_.emitted = in.getU64();
}

LineFeed::LineFeed(std::istream &in, std::string origin,
                   std::size_t total_cores)
    : in_(&in), origin_(std::move(origin)), totalCores_(total_cores)
{
    if (totalCores_ == 0)
        fatal("LineFeed: totalCores must be positive");
}

LineFeed::LineFeed(const std::string &path, std::size_t total_cores)
    : file_(path), in_(&file_), origin_(path),
      totalCores_(total_cores)
{
    if (!file_)
        fatal("cannot open serve feed '" + path + "'");
    if (totalCores_ == 0)
        fatal("LineFeed: totalCores must be positive");
}

std::optional<LineFeed::Event>
LineFeed::parseNext()
{
    std::string line;
    while (std::getline(*in_, line)) {
        ++lineno_;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // Blank or comment-only line.
        std::istringstream row(line);
        std::string keyword;
        row >> keyword;
        if (keyword != "arrive")
            badLine(origin_, lineno_,
                    "unknown event '" + keyword +
                        "' (expected arrive)");
        Event event;
        if (!(row >> event.time) || !std::isfinite(event.time) ||
            event.time < 0.0)
            badLine(origin_, lineno_,
                    "arrive needs a finite non-negative time in "
                    "seconds");
        if (!(row >> event.util) || !std::isfinite(event.util) ||
            event.util <= 0.0 || event.util > 1.0)
            badLine(origin_, lineno_,
                    "arrive needs a utilization fraction in (0, 1]");
        if (!(row >> event.duration) ||
            !std::isfinite(event.duration) || event.duration < 0.0)
            badLine(origin_, lineno_,
                    "arrive needs a finite non-negative duration in "
                    "seconds");
        std::string trailing;
        if (row >> trailing)
            badLine(origin_, lineno_,
                    "trailing token '" + trailing + "'");
        if (event.time < lastTime_)
            badLine(origin_, lineno_,
                    "event times must be non-decreasing");
        lastTime_ = event.time;
        return event;
    }
    eof_ = true;
    return std::nullopt;
}

void
LineFeed::expand(const Event &event, std::vector<FeedJob> &out)
{
    const auto total = static_cast<std::size_t>(std::llround(
        event.util * static_cast<double>(totalCores_)));
    if (total == 0)
        return;
    // Largest-remainder split across the catalog shares, ties broken
    // by workload order — deterministic, no RNG.
    const WorkloadShares shares = catalogShares();
    std::array<std::size_t, kNumWorkloads> counts{};
    std::array<double, kNumWorkloads> remainders{};
    std::size_t assigned = 0;
    for (WorkloadType type : kAllWorkloads) {
        const std::size_t w = workloadIndex(type);
        const double exact =
            shares[w] * static_cast<double>(total);
        counts[w] = static_cast<std::size_t>(exact);
        remainders[w] = exact - static_cast<double>(counts[w]);
        assigned += counts[w];
    }
    while (assigned < total) {
        std::size_t best = 0;
        for (std::size_t w = 1; w < kNumWorkloads; ++w)
            if (remainders[w] > remainders[best])
                best = w;
        ++counts[best];
        remainders[best] = -1.0;
        ++assigned;
    }
    for (WorkloadType type : kAllWorkloads) {
        const std::size_t w = workloadIndex(type);
        for (std::size_t i = 0; i < counts[w]; ++i)
            out.push_back(FeedJob{event.time, type, event.duration});
    }
}

void
LineFeed::arrivalsUntil(Seconds end, std::vector<FeedJob> &out)
{
    while (true) {
        if (!pendingEvent_) {
            std::optional<Event> event = parseNext();
            // Replay cursor: a resumed feed discards the events the
            // checkpointed run already emitted.
            while (event && skipEvents_ > 0) {
                --skipEvents_;
                ++eventsConsumed_;
                event = parseNext();
            }
            if (!event)
                return;
            pendingEvent_ = *event;
        }
        if (pendingEvent_->time >= end)
            return;
        expand(*pendingEvent_, out);
        pendingEvent_.reset();
        ++eventsConsumed_;
    }
}

bool
LineFeed::exhausted() const
{
    return eof_ && !pendingEvent_;
}

void
LineFeed::saveState(Serializer &out) const
{
    out.putU64(static_cast<std::uint64_t>(totalCores_));
    // The pending (parsed but not yet due) event is *not* consumed:
    // the replay skips only fully emitted events, so the resumed feed
    // re-parses it from the input.
    out.putU64(eventsConsumed_);
}

void
LineFeed::loadState(Deserializer &in)
{
    check.u64("totalCores", in.getU64(), totalCores_);
    skipEvents_ = in.getU64();
    if (pendingEvent_ || eventsConsumed_ != 0)
        fatal("LineFeed::loadState on a feed that already consumed "
              "events");
}

} // namespace vmt::serve
