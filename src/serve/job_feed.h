/**
 * @file
 * Streaming job feeds for the serving mode (vmtserve).
 *
 * A JobFeed produces a time-ordered stream of job arrivals with no
 * fixed horizon — the serving driver pulls the arrivals due before
 * each interval boundary and never looks further ahead. Two
 * implementations:
 *
 *  - SyntheticFeed: a deterministic, seeded Poisson front-end
 *    modelling millions of users behind a diurnal rate curve, with a
 *    warm-up rate ramp and periodic burst spikes (thinning / the
 *    Lewis–Shedler method, so the stream is independent of how the
 *    driver segments its pulls);
 *  - LineFeed: a line-oriented text feed (stdin, a file, or anything
 *    piped in — e.g. a socket via `nc | vmtserve --feed -`) with the
 *    grammar `arrive <t-seconds> <util> <duration-seconds>`,
 *    rejecting malformed input with `origin:line` fatals exactly like
 *    FaultPlan does.
 *
 * Both feeds checkpoint their cursor (saveState/loadState), so a
 * killed serving run resumes mid-stream bitwise.
 */

#ifndef VMT_SERVE_JOB_FEED_H
#define VMT_SERVE_JOB_FEED_H

#include <array>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <future>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

class Serializer;
class Deserializer;

namespace serve {

/** One arrival produced by a feed. */
struct FeedJob
{
    /** Arrival time (seconds since the start of the run). */
    Seconds time = 0.0;
    WorkloadType type = WorkloadType::WebSearch;
    /** Run length in seconds. */
    Seconds duration = 0.0;
};

/** Serialize one arrival: time, workload type byte, duration. */
void saveFeedJob(Serializer &out, const FeedJob &job);

/** Read an arrival written by saveFeedJob. @throws FatalError naming
 *  @p section on an unknown workload type or a non-finite or
 *  negative time or duration. */
FeedJob loadFeedJob(Deserializer &in, const char *section);

/** Open-ended, time-ordered arrival stream. */
class JobFeed
{
  public:
    virtual ~JobFeed() = default;

    /** Feed kind, echoed into snapshots so a resume under a different
     *  feed is refused. */
    virtual std::string name() const = 0;

    /**
     * Append every arrival with time < end to @p out, in
     * non-decreasing time order, and advance the cursor past them.
     * Successive calls must use non-decreasing @p end; the stream a
     * feed produces is independent of how calls segment it.
     */
    virtual void arrivalsUntil(Seconds end,
                               std::vector<FeedJob> &out) = 0;

    /** True when the feed can never produce another arrival (a
     *  LineFeed at end of input; SyntheticFeed never ends). */
    virtual bool exhausted() const = 0;

    /** Checkpoint the feed cursor; loadState restores the exact
     *  remaining stream. */
    virtual void saveState(Serializer &out) const = 0;
    virtual void loadState(Deserializer &in) = 0;
};

/** SyntheticFeed shape parameters. */
struct SyntheticFeedParams
{
    /** Modelled user population. */
    double users = 1e6;
    /** Jobs per user per hour at the diurnal peak (before ramp and
     *  burst scaling). The default targets roughly 70% occupancy on a
     *  10k-server fleet with the Table-I duration mix. */
    double requestsPerUserHour = 0.75;
    /** Diurnal floor as a fraction of the peak rate (the trough-to-
     *  peak swing of the paper's Fig. 5-style load curves). */
    double diurnalTrough = 0.35;
    /** Warm-up ramp: the rate scales linearly from 0 to its diurnal
     *  value over this many hours (0 = no ramp). */
    double rampHours = 0.0;
    /** Burst cadence: every burstPeriodHours the rate multiplies by
     *  burstFactor for burstMinutes (0 = no bursts). */
    double burstPeriodHours = 0.0;
    double burstFactor = 3.0;
    double burstMinutes = 5.0;
    /** Seed for the arrival/type/duration draws. */
    std::uint64_t seed = 7;
};

/**
 * Deterministic non-homogeneous Poisson arrival generator.
 *
 * Candidate arrivals are drawn at the peak rate and thinned against
 * the instantaneous rate lambda(t) = base * diurnal(t) * ramp(t) *
 * burst(t), so segmentation of arrivalsUntil() calls never changes
 * the stream. Each accepted arrival draws a workload type from the
 * Table-I catalog shares and an exponential duration around the
 * workload's mean, from the same seeded Rng.
 *
 * The feed works one pull ahead. Each arrivalsUntil(end) call, once
 * a previous call fixed the step, submits one task to the global
 * ThreadPool that pulls the next span, to end + (end - previous end),
 * from a copy of the cursor into a buffer the caller sized. The next
 * call adopts that buffer and cursor when every arrival in it is due
 * before its own end, and tops up from there; otherwise it drops
 * them. Either way it returns the exact stream prefix, and
 * saveState() writes the cursor as of the last returned pull. A
 * one-thread pool, or a call from inside a pool worker, pulls
 * serially.
 */
class SyntheticFeed : public JobFeed
{
  public:
    /** @throws FatalError on non-positive rates or malformed shape
     *  parameters. */
    explicit SyntheticFeed(const SyntheticFeedParams &params);

    /** Cancels and waits for an in-flight pull-ahead task. */
    ~SyntheticFeed() override;

    /** The pull-ahead task holds this feed's address. */
    SyntheticFeed(const SyntheticFeed &) = delete;
    SyntheticFeed &operator=(const SyntheticFeed &) = delete;

    std::string name() const override { return "synthetic"; }
    /** Rethrows what a pull-ahead task threw. */
    void arrivalsUntil(Seconds end,
                       std::vector<FeedJob> &out) override;
    bool exhausted() const override { return false; }

    /** Instantaneous arrival rate (jobs/second) at a time — exposed
     *  for the rate-ramp tests. */
    double ratePerSecond(Seconds t) const;

    /** Peak arrival rate (jobs/second) used for thinning. */
    double peakRatePerSecond() const { return maxRate_; }

    /** Arrivals emitted so far. */
    std::uint64_t emitted() const { return cur_.emitted; }

    /** Candidates this instance accepted below the keep floor,
     *  without evaluating the rate (not checkpointed). */
    std::uint64_t floorAccepts() const { return cur_.floorAccepts; }

    /** Pull-ahead tasks whose arrivals a pull returned (not
     *  checkpointed). */
    std::uint64_t adopted() const { return adopted_; }

    void saveState(Serializer &out) const override;
    /** Drops an in-flight pull-ahead task first. */
    void loadState(Deserializer &in) override;

  private:
    /** Everything a pull advances; a copy continues the same
     *  stream. */
    struct Cursor
    {
        Rng rng;
        /** Last candidate arrival time handed to the thinning
         *  draw. */
        Seconds candidateTime = 0.0;
        /** Accepted arrival not yet released (beyond the last
         *  `end`). */
        std::optional<FeedJob> pending;
        std::uint64_t emitted = 0;
        std::uint64_t floorAccepts = 0;
    };

    /** Draw candidates until one survives thinning; fills
     *  c.pending. */
    void generateNext(Cursor &c) const;

    /**
     * Append every arrival before @p end to @p out and advance @p c
     * past them. With @p cancel (the pull-ahead task) it stops
     * early, between two arrivals, once @p out is full or *cancel is
     * set: it never allocates, and @p c still continues the stream.
     */
    void pull(Cursor &c, Seconds end, std::vector<FeedJob> &out,
              const std::atomic<bool> *cancel) const;

    /** Wait for the pull-ahead task, if one is in flight, telling it
     *  to stop first when @p cancel; rethrows what it threw. */
    void settle(bool cancel);

    /** The diurnal rate at a point of the day's shape (0 at the
     *  trough, 1 at the peak), before ramp and burst scaling. */
    double diurnalRate(double shape) const
    {
        return baseRate_ * (params_.diurnalTrough +
                            (1.0 - params_.diurnalTrough) * shape);
    }

    SyntheticFeedParams params_;
    /** Base rate in jobs/second (users * requestsPerUserHour / 3600). */
    double baseRate_;
    /** Thinning envelope: base * max burst factor. */
    double maxRate_;
    /** Mean gap between candidates, 1 / maxRate_. */
    double candidateGap_ = 0.0;
    /**
     * The keep probability at the diurnal trough, a lower bound on
     * the keep probability anywhere past the warm-up ramp: the shape
     * is >= 0 and every later factor is a burst factor >= 1, and IEEE
     * rounding is monotone. A uniform draw below it accepts without
     * evaluating the rate.
     */
    double keepFloor_ = 0.0;
    /** Catalog-share CDF over kAllWorkloads, summed in that order. */
    std::array<double, kNumWorkloads> typeCdf_{};
    std::array<Seconds, kNumWorkloads> meanDuration_{};
    /** The cursor as of the last returned pull (what checkpoints). */
    Cursor cur_;
    /** The end of the last pull; unset until the first, and after a
     *  loadState. */
    std::optional<Seconds> lastEnd_;
    std::uint64_t adopted_ = 0;

    // The pull-ahead task, which pulls aheadCur_ to aheadEnd_ into
    // aheadBuf_; the caller touches those three only while no task
    // is in flight.
    std::future<void> ahead_;
    Cursor aheadCur_;
    std::vector<FeedJob> aheadBuf_;
    Seconds aheadEnd_ = 0.0;
    std::atomic<bool> cancel_{false};
};

/**
 * Line-oriented feed: `arrive <t-seconds> <util> <duration-seconds>`.
 *
 * Each event expands into round(util * totalCores) one-core jobs
 * arriving at time t with the given duration, split across the
 * workload catalog by its load shares (largest-remainder rounding, no
 * randomness). '#' starts a comment, blank lines are skipped, event
 * times must be non-decreasing, and any malformed line is fatal with
 * an `origin:line` message.
 *
 * Checkpointing stores the number of events consumed; a resumed feed
 * re-reads its input from the start and skips that many events, so
 * file-backed feeds (and replayed pipes) resume exactly.
 */
class LineFeed : public JobFeed
{
  public:
    /** Read from an external stream (e.g. std::cin). @p origin names
     *  the stream in parse errors. */
    LineFeed(std::istream &in, std::string origin,
             std::size_t total_cores);

    /** Read from a file. @throws FatalError when it cannot be
     *  opened. */
    LineFeed(const std::string &path, std::size_t total_cores);

    std::string name() const override { return "line"; }
    void arrivalsUntil(Seconds end,
                       std::vector<FeedJob> &out) override;
    bool exhausted() const override;

    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    struct Event
    {
        Seconds time = 0.0;
        double util = 0.0;
        Seconds duration = 0.0;
    };

    /** Parse the next event line, or nullopt at end of input.
     *  @throws FatalError (origin:line) on malformed input. */
    std::optional<Event> parseNext();

    /** Expand an event into its per-workload job batch. */
    void expand(const Event &event, std::vector<FeedJob> &out);

    std::ifstream file_;
    std::istream *in_;
    std::string origin_;
    std::size_t totalCores_;
    std::size_t lineno_ = 0;
    Seconds lastTime_ = 0.0;
    bool eof_ = false;
    /** Parsed event not yet due (time >= the last `end`). */
    std::optional<Event> pendingEvent_;
    std::uint64_t eventsConsumed_ = 0;
    /** Events to silently skip after a loadState (replay cursor). */
    std::uint64_t skipEvents_ = 0;
};

} // namespace serve
} // namespace vmt

#endif // VMT_SERVE_JOB_FEED_H
