/**
 * @file
 * Benchmark harness behind perfbench/run.py. Runs one named workload
 * against the simulator libraries and prints one JSON object on
 * stdout.
 *
 *   vmt_perfbench --workload W --seed N --seconds S --mode M
 *                 --scratch DIR [--spans-out FILE]
 *
 * Modes:
 *   e2e    untraced repetitions: run time, per-interval latency,
 *          throughput, peak RSS, served fraction and peak cooling,
 *          plus the output checks of every repetition;
 *   trace  alternates plain repetitions (the drivers called with no
 *          hooks) with traced ones, and reports per-layer metrics,
 *          the tracing overhead and a bitwise comparison of every
 *          simulated output between the two;
 *   setup  set-up-only repetitions; prints their median;
 *   peak   one plain run; prints only the peak cooling load.
 *
 * Every time is taken outside the program, at public entry points the
 * drivers call: the Scheduler (runSimulation takes it by reference),
 * the SimObserver callback, the JobFeed (ShardedDriver::run takes it
 * by reference) and the shouldStop poll. Traced repetitions also
 * attach an obs::Observability and read its profile.phase.* totals.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_factory.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "sim/simulation.h"
#include "util/logging.h"
#include "util/thread_pool.h"

using namespace vmt;
using namespace vmt::serve;

namespace {

// ---------------------------------------------------------------- clock

using Nanos = std::int64_t;

Nanos
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
toSeconds(Nanos ns)
{
    return static_cast<double>(ns) * 1e-9;
}

// ------------------------------------------------------------ workloads

/** The paper's VMT-WA operating point (Section V). */
constexpr double kGv = 22.0;
constexpr double kWaxThreshold = 0.98;

struct Workload
{
    const char *name;
    bool serve;
    const char *policy;
    std::size_t servers;
    std::size_t threads;
    /** Serving intervals; sim runs the 48 h trace (2,880). */
    std::size_t intervals;
};

constexpr Workload kWorkloads[] = {
    {"sim_wa_1k", false, "wa", 1000, 1, 2880},
    {"sim_rr_1k", false, "rr", 1000, 1, 2880},
    {"serve_10k_outage", true, "wa", 10000, 4, 1000},
};

/** Servers 0..n/2-1 go down at hour 5.5 and come back at hour 11. */
FaultPlan
outagePlan(std::size_t servers)
{
    std::vector<FaultEvent> events;
    for (const auto &[hours, type] :
         {std::pair{5.5, FaultEventType::ServerDown},
          std::pair{11.0, FaultEventType::ServerUp}}) {
        for (std::size_t id = 0; id < servers / 2; ++id) {
            FaultEvent event;
            event.time = hours * 3600.0;
            event.type = type;
            event.serverId = id;
            events.push_back(event);
        }
    }
    return FaultPlan(std::move(events));
}

SimConfig
simConfig(const Workload &w, std::uint64_t seed)
{
    SimConfig config;
    config.numServers = w.servers;
    config.trace.duration = 48.0;
    config.trace.seed = seed;
    config.seed = seed;
    return config;
}

/** The serving workload: the fleet under outagePlan(), with a
 *  snapshot every 100 intervals into @p ckpt_dir. */
ServeConfig
serveConfig(const Workload &w, std::uint64_t seed,
            const std::filesystem::path &ckpt_dir)
{
    ServeConfig config;
    config.numServers = w.servers;
    config.podSize = 256;
    config.seed = seed;
    config.policy = w.policy;
    config.gv = kGv;
    config.waxThreshold = kWaxThreshold;
    config.maxIntervals = w.intervals;
    config.faults.plan = outagePlan(w.servers);
    config.faults.seed = seed;
    config.checkpointEvery = 100;
    config.checkpointPath = (ckpt_dir / "serve.ckpt").string();
    return config;
}

SyntheticFeedParams
feedParams(std::uint64_t seed)
{
    SyntheticFeedParams params;
    params.seed = seed;
    return params;
}

// ---------------------------------------------------------------- spans

struct Span
{
    const char *name;
    Nanos start;
    Nanos end;
    /** Index of the enclosing span, or -1. */
    std::int32_t parent;
    /** Interval index; -1 for set-up. */
    std::int64_t trace;
};

/** In-memory span log, written out once the run ends. */
class Tracer
{
  public:
    explicit Tracer(std::size_t expected) { spans_.reserve(expected); }

    std::int32_t add(const char *name, Nanos start, Nanos end,
                     std::int32_t parent, std::int64_t trace)
    {
        spans_.push_back(Span{name, start, end, parent, trace});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void close(std::int32_t span, Nanos end) { spans_[span].end = end; }

    /** Seconds per span name, each span's duration minus the part its
     *  children cover. */
    std::map<std::string, double> selfSeconds() const
    {
        std::vector<Nanos> covered(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                covered[s.parent] += s.end - s.start;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].name] += toSeconds(
                spans_[i].end - spans_[i].start - covered[i]);
        return self;
    }

    /** CSV: trace,name,start_ns,end_ns,parent (times from the first
     *  span's start). */
    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write spans to '" + path + "'");
        const Nanos base = spans_.empty() ? 0 : spans_.front().start;
        out << "trace,name,start_ns,end_ns,parent\n";
        for (const Span &s : spans_)
            out << s.trace << ',' << s.name << ',' << s.start - base
                << ',' << s.end - base << ',' << s.parent << '\n';
    }

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ sim hooks

/** Thrown from the first beginInterval of a set-up-only repetition. */
struct SetupDone
{};

/**
 * Boundary marks of one runSimulation call. Untraced, it reads the
 * clock once per interval (in the observer) and at the first
 * beginInterval; traced, it records one span per layer per interval.
 */
struct SimProbe
{
    Tracer *tracer = nullptr;
    bool setupOnly = false;

    Nanos setupEnd = 0;
    /** End of the previous interval (the observer call). */
    Nanos boundary = 0;
    Nanos mark = 0;
    std::int32_t root = -1;
    std::int64_t interval = 0;

    std::vector<double> intervalSeconds;
    std::uint64_t jobsHanded = 0;
    std::uint64_t unplaced = 0;
    std::size_t batchMax = 0;

    void beforeBegin()
    {
        const Nanos t = nowNs();
        if (setupEnd == 0) {
            setupEnd = t;
            boundary = t;
            if (setupOnly)
                throw SetupDone{};
        }
        if (tracer) {
            root = tracer->add("sim.interval", boundary, boundary, -1,
                               interval);
            tracer->add("sim.departures", boundary, t, root, interval);
            mark = t;
        }
    }

    void afterBegin()
    {
        if (tracer) {
            const Nanos t = nowNs();
            tracer->add("sched.begin", mark, t, root, interval);
            mark = t;
        }
    }

    void beforePlace(std::size_t jobs)
    {
        jobsHanded += jobs;
        if (tracer) {
            const Nanos t = nowNs();
            tracer->add("workload.arrivals", mark, t, root, interval);
            mark = t;
            batchMax = std::max(batchMax, jobs);
        }
    }

    void afterPlace(const std::vector<std::size_t> &out)
    {
        if (tracer) {
            const Nanos t = nowNs();
            tracer->add("sched.place", mark, t, root, interval);
            mark = t;
            unplaced += static_cast<std::uint64_t>(
                std::count(out.begin(), out.end(), kNoServer));
        }
    }

    void observe()
    {
        const Nanos t = nowNs();
        intervalSeconds.push_back(toSeconds(t - boundary));
        if (tracer) {
            tracer->add("sim.step", mark, t, root, interval);
            tracer->close(root, t);
        }
        boundary = t;
        ++interval;
    }
};

/** Forwards every Scheduler call to the policy, marking the
 *  beginInterval and placeJobs boundaries on the probe. */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(Scheduler &inner, SimProbe &probe)
        : inner_(inner), probe_(probe)
    {}

    std::string name() const override { return inner_.name(); }

    void beginInterval(Cluster &cluster, Seconds now) override
    {
        probe_.beforeBegin();
        inner_.beginInterval(cluster, now);
        probe_.afterBegin();
    }

    std::size_t placeJob(Cluster &cluster, const Job &job) override
    {
        return inner_.placeJob(cluster, job);
    }

    void placeJobs(Cluster &cluster, std::span<const Job> jobs,
                   std::vector<std::size_t> &out) override
    {
        probe_.beforePlace(jobs.size());
        inner_.placeJobs(cluster, jobs, out);
        probe_.afterPlace(out);
    }

    std::optional<std::size_t> hotGroupSize() const override
    {
        return inner_.hotGroupSize();
    }

    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override
    {
        return inner_.proposeMigrations(cluster, now);
    }

    void saveState(Serializer &out) const override
    {
        inner_.saveState(out);
    }

    void loadState(Deserializer &in) override { inner_.loadState(in); }

  private:
    Scheduler &inner_;
    SimProbe &probe_;
};

// ---------------------------------------------------------- serve hooks

/** Boundary marks of one ShardedDriver::run call; the poll marks
 *  interval starts, the feed wrapper the pull. */
struct ServeProbe
{
    Tracer *tracer = nullptr;
    bool setupOnly = false;

    Nanos setupEnd = 0;
    Nanos lastPoll = 0;
    Nanos mark = 0;
    std::int32_t root = -1;
    std::int64_t interval = 0;

    std::vector<double> intervalSeconds;
    std::uint64_t pulled = 0;

    bool poll()
    {
        const Nanos t = nowNs();
        if (setupEnd == 0) {
            setupEnd = t;
            if (setupOnly)
                return true;
        } else {
            endInterval(t);
            ++interval;
        }
        lastPoll = t;
        if (tracer)
            root = tracer->add("serve.interval", t, t, -1, interval);
        return false;
    }

    void beforePull()
    {
        const Nanos t = nowNs();
        tracer->add("serve.drain", lastPoll, t, root, interval);
        mark = t;
    }

    void afterPull(std::size_t arrivals)
    {
        const Nanos t = nowNs();
        pulled += arrivals;
        tracer->add("feed.pull", mark, t, root, interval);
        mark = t;
    }

    /** Close the last interval when run() returns (the interval cap
     *  ends the loop before another poll). */
    void finish(Nanos t) { endInterval(t); }

  private:
    void endInterval(Nanos t)
    {
        intervalSeconds.push_back(toSeconds(t - lastPoll));
        if (tracer) {
            tracer->add("serve.post", mark, t, root, interval);
            tracer->close(root, t);
        }
    }
};

/** Forwards every JobFeed call, timing arrivalsUntil. */
class TimedFeed final : public JobFeed
{
  public:
    TimedFeed(JobFeed &inner, ServeProbe &probe)
        : inner_(inner), probe_(probe)
    {}

    std::string name() const override { return inner_.name(); }

    void arrivalsUntil(Seconds end, std::vector<FeedJob> &out) override
    {
        probe_.beforePull();
        const std::size_t before = out.size();
        inner_.arrivalsUntil(end, out);
        probe_.afterPull(out.size() - before);
    }

    bool exhausted() const override { return inner_.exhausted(); }

    void saveState(Serializer &out) const override
    {
        inner_.saveState(out);
    }

    void loadState(Deserializer &in) override { inner_.loadState(in); }

  private:
    JobFeed &inner_;
    ServeProbe &probe_;
};

// ---------------------------------------------------------- repetitions

enum class Hooks
{
    /** The driver is called with no scheduler wrapper, observer,
     *  feed wrapper, poll or observability. */
    None,
    /** Only what the end-to-end metrics need. */
    Timing,
    /** Spans at every wrapped boundary, plus observability. */
    Trace,
};

/** Everything one repetition produced, for either driver. */
struct Rep
{
    std::optional<SimResult> sim;
    std::optional<ServeResult> serve;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double totalSeconds = 0.0;
    std::vector<double> intervalSeconds;
    std::uint64_t jobsHanded = 0;

    // Traced repetitions only.
    std::uint64_t unplaced = 0;
    std::size_t batchMax = 0;
    std::uint64_t pulled = 0;
    std::map<std::string, double> self;
    std::map<std::string, double> profile;
    ThreadPool::TaskStats pool;
    std::uintmax_t snapshotBytes = 0;
};

std::map<std::string, double>
profileTotals(obs::Observability &o)
{
    std::map<std::string, double> totals;
    for (const obs::MetricValue &m : o.metrics().snapshotValues(true))
        if (m.name.rfind("profile.phase.", 0) == 0 && !m.values.empty())
            totals[m.name] = m.values.front();
    return totals;
}

Rep
runSim(const Workload &w, std::uint64_t seed, Hooks hooks,
       bool setup_only, Tracer *tracer)
{
    Rep rep;
    SimConfig config = simConfig(w, seed);
    std::optional<obs::Observability> o;
    if (hooks == Hooks::Trace) {
        o.emplace();
        config.obs = &*o;
    }
    const ThreadPool::TaskStats pool_before = ThreadPool::taskStats();

    const Nanos t0 = nowNs();
    const std::unique_ptr<Scheduler> policy =
        makeScheduler(w.policy, kGv, kWaxThreshold);
    if (hooks == Hooks::None) {
        rep.sim = runSimulation(config, *policy);
        rep.totalSeconds = toSeconds(nowNs() - t0);
        return rep;
    }

    SimProbe probe;
    probe.tracer = tracer;
    probe.setupOnly = setup_only;
    probe.intervalSeconds.reserve(w.intervals);
    TimedScheduler scheduler(*policy, probe);
    try {
        rep.sim = runSimulation(config, scheduler,
                                [&probe](const Cluster &, std::size_t) {
                                    probe.observe();
                                });
    } catch (const SetupDone &) {
        rep.setupSeconds = toSeconds(probe.setupEnd - t0);
        return rep;
    }
    const Nanos t1 = nowNs();

    rep.setupSeconds = toSeconds(probe.setupEnd - t0);
    rep.runSeconds = toSeconds(t1 - probe.setupEnd);
    rep.totalSeconds = toSeconds(t1 - t0);
    rep.intervalSeconds = std::move(probe.intervalSeconds);
    rep.jobsHanded = probe.jobsHanded;
    if (tracer) {
        tracer->add("sim.setup", t0, probe.setupEnd, -1, -1);
        tracer->add("sim.finish", probe.boundary, t1, -1,
                    probe.interval);
        rep.unplaced = probe.unplaced;
        rep.batchMax = probe.batchMax;
        rep.self = tracer->selfSeconds();
        rep.profile = profileTotals(*o);
        const ThreadPool::TaskStats after = ThreadPool::taskStats();
        rep.pool.tasks = after.tasks - pool_before.tasks;
        rep.pool.busySeconds = after.busySeconds - pool_before.busySeconds;
    }
    return rep;
}

Rep
runServe(const Workload &w, std::uint64_t seed, Hooks hooks,
         bool setup_only, Tracer *tracer,
         const std::filesystem::path &ckpt_dir)
{
    Rep rep;
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    ServeConfig config = serveConfig(w, seed, ckpt_dir);
    // The telemetry stream is one of the compared outputs, so the
    // plain and traced repetitions both keep it; the untraced
    // end-to-end repetitions do not, like a vmtserve run without
    // --telemetry-out.
    config.keepTelemetry = hooks != Hooks::Timing;
    std::optional<obs::Observability> o;
    if (hooks == Hooks::Trace) {
        o.emplace();
        config.obs = &*o;
        config.recordPlacementLatency = true;
    }
    const ThreadPool::TaskStats pool_before = ThreadPool::taskStats();

    const Nanos t0 = nowNs();
    SyntheticFeed feed(feedParams(seed));
    ShardedDriver driver(config);
    if (hooks == Hooks::None) {
        rep.serve = driver.run(feed);
        rep.totalSeconds = toSeconds(nowNs() - t0);
        std::filesystem::remove_all(ckpt_dir);
        return rep;
    }

    ServeProbe probe;
    probe.tracer = tracer;
    probe.setupOnly = setup_only;
    probe.intervalSeconds.reserve(w.intervals);
    const auto poll = [&probe] { return probe.poll(); };
    if (hooks == Hooks::Trace) {
        TimedFeed timed(feed, probe);
        rep.serve = driver.run(timed, poll);
    } else {
        rep.serve = driver.run(feed, poll);
    }
    const Nanos t1 = nowNs();

    rep.setupSeconds = toSeconds(probe.setupEnd - t0);
    if (!setup_only) {
        probe.finish(t1);
        rep.runSeconds = toSeconds(t1 - probe.setupEnd);
        rep.totalSeconds = toSeconds(t1 - t0);
        rep.intervalSeconds = std::move(probe.intervalSeconds);
    }
    if (tracer) {
        tracer->add("serve.setup", t0, probe.setupEnd, -1, -1);
        rep.pulled = probe.pulled;
        rep.self = tracer->selfSeconds();
        rep.profile = profileTotals(*o);
        const ThreadPool::TaskStats after = ThreadPool::taskStats();
        rep.pool.tasks = after.tasks - pool_before.tasks;
        rep.pool.busySeconds = after.busySeconds - pool_before.busySeconds;
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(
            ckpt_dir / "serve.ckpt", ec);
        rep.snapshotBytes = ec ? 0 : bytes;
    }
    std::filesystem::remove_all(ckpt_dir);
    return rep;
}

Rep
runRep(const Workload &w, std::uint64_t seed, Hooks hooks,
       bool setup_only, Tracer *tracer,
       const std::filesystem::path &scratch)
{
    return w.serve ? runServe(w, seed, hooks, setup_only, tracer,
                              scratch / "ckpt")
                   : runSim(w, seed, hooks, setup_only, tracer);
}

// --------------------------------------------------------------- checks

/** Named pass/fail outcomes; a repetition fails if any item fails. */
class Checks
{
  public:
    void add(const std::string &name, bool ok)
    {
        auto [it, inserted] = items_.emplace(name, Tally{});
        ++it->second.runs;
        if (!ok) {
            ++it->second.failures;
            repFailed_ = true;
        }
    }

    /** Start a repetition; returns whether the previous one passed. */
    bool nextRep()
    {
        const bool ok = !repFailed_;
        repFailed_ = false;
        return ok;
    }

    std::string json() const;

  private:
    struct Tally
    {
        std::uint64_t runs = 0;
        std::uint64_t failures = 0;
    };
    std::map<std::string, Tally> items_;
    bool repFailed_ = false;
};

std::string
Checks::json() const
{
    std::string out = "{";
    for (const auto &[name, tally] : items_) {
        if (out.size() > 1)
            out += ',';
        out += "\"" + name + "\":{\"runs\":" +
               std::to_string(tally.runs) + ",\"failures\":" +
               std::to_string(tally.failures) + "}";
    }
    return out + "}";
}

std::uint64_t
arrivalsOf(const Rep &rep)
{
    if (rep.sim)
        return rep.sim->placedJobs + rep.sim->droppedJobs;
    return rep.serve->arrivals;
}

/** Arrivals that were never served: dropped + shed + expired + lost. */
std::uint64_t
unservedOf(const Rep &rep)
{
    if (rep.sim)
        return rep.sim->droppedJobs + rep.sim->lostJobs;
    const ServeResult &r = *rep.serve;
    return r.droppedJobs + r.shed + r.expiredJobs + r.lostJobs;
}

void
checkSim(const Workload &w, const Rep &rep, Hooks hooks, Checks &checks)
{
    const SimResult &r = *rep.sim;
    if (hooks != Hooks::None) {
        checks.add("sim.placejobs_equals_placed_plus_dropped",
                   rep.jobsHanded == r.placedJobs + r.droppedJobs);
        checks.add("sim.interval_samples",
                   rep.intervalSeconds.size() == w.intervals);
    }
    checks.add("sim.dropped_zero", r.droppedJobs == 0);
    checks.add("sim.unserved_zero", unservedOf(rep) == 0);
    const auto &power = r.totalPower.values();
    const auto &cooling = r.coolingLoad.values();
    const auto &wax = r.waxHeatFlow.values();
    bool balanced = power.size() == w.intervals &&
                    cooling.size() == power.size() &&
                    wax.size() == power.size();
    for (std::size_t i = 0; balanced && i < power.size(); ++i)
        balanced = std::abs(power[i] - (cooling[i] + wax[i])) <=
                   1e-9 * std::max(1.0, std::abs(power[i]));
    checks.add("sim.power_equals_cooling_plus_wax", balanced);
}

void
checkServe(const Workload &w, const Rep &rep, Hooks hooks,
           Checks &checks)
{
    const ServeResult &r = *rep.serve;
    checks.add("serve.arrivals_identity",
               r.arrivals ==
                   r.admitted + r.shed + r.expiredJobs + r.finalQueueDepth);
    checks.add("serve.admitted_identity",
               r.admitted == r.placed + r.droppedJobs);
    checks.add("serve.placed_identity",
               r.placed == r.completedJobs + r.finalInFlight + r.lostJobs);
    checks.add("serve.evacuated_identity",
               r.evacuatedJobs == r.migratedJobs + r.lostJobs);
    checks.add("serve.dropped_zero", r.droppedJobs == 0);
    checks.add("serve.intervals", r.completedIntervals == w.intervals);
    if (hooks != Hooks::None)
        checks.add("serve.interval_samples",
                   rep.intervalSeconds.size() == w.intervals);
    if (hooks == Hooks::Trace)
        checks.add("feed.pulled_equals_arrivals",
                   rep.pulled == r.arrivals);
    checks.add("fault.outage_evacuates", r.evacuatedJobs > 0);
    checks.add("state.checkpoints_ok", r.checkpointFailures == 0);
}

void
checkRep(const Workload &w, const Rep &rep, Hooks hooks, Checks &checks)
{
    if (w.serve)
        checkServe(w, rep, hooks, checks);
    else
        checkSim(w, rep, hooks, checks);
}

// ---------------------------------------------------------- transparency

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameSeries(const TimeSeries &a, const TimeSeries &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.values().data(), b.values().data(),
                        a.size() * sizeof(double)) == 0);
}

/** Names of the simulated outputs that differ between two runs. */
std::vector<std::string>
simDiff(const SimResult &a, const SimResult &b)
{
    std::vector<std::string> diff;
    const auto series = [&](const char *name, const TimeSeries &x,
                            const TimeSeries &y) {
        if (!sameSeries(x, y))
            diff.push_back(name);
    };
    series("coolingLoad", a.coolingLoad, b.coolingLoad);
    series("totalPower", a.totalPower, b.totalPower);
    series("waxHeatFlow", a.waxHeatFlow, b.waxHeatFlow);
    series("meanAirTemp", a.meanAirTemp, b.meanAirTemp);
    series("hotGroupTemp", a.hotGroupTemp, b.hotGroupTemp);
    series("hotGroupSizeSeries", a.hotGroupSizeSeries,
           b.hotGroupSizeSeries);
    series("meanMeltFraction", a.meanMeltFraction, b.meanMeltFraction);
    series("utilization", a.utilization, b.utilization);
    series("inletTemp", a.inletTemp, b.inletTemp);
    series("aliveServers", a.aliveServers, b.aliveServers);
    const auto real = [&](const char *name, double x, double y) {
        if (!sameBits(x, y))
            diff.push_back(name);
    };
    real("peakCoolingLoad", a.peakCoolingLoad, b.peakCoolingLoad);
    real("peakPower", a.peakPower, b.peakPower);
    real("maxMeltFraction", a.maxMeltFraction, b.maxMeltFraction);
    real("maxAirTemp", a.maxAirTemp, b.maxAirTemp);
    const auto count = [&](const char *name, std::uint64_t x,
                           std::uint64_t y) {
        if (x != y)
            diff.push_back(name);
    };
    count("overheatedServerIntervals", a.overheatedServerIntervals,
          b.overheatedServerIntervals);
    count("throttledServerIntervals", a.throttledServerIntervals,
          b.throttledServerIntervals);
    count("droppedJobs", a.droppedJobs, b.droppedJobs);
    count("migrations", a.migrations, b.migrations);
    count("placedJobs", a.placedJobs, b.placedJobs);
    count("evacuatedJobs", a.evacuatedJobs, b.evacuatedJobs);
    count("lostJobs", a.lostJobs, b.lostJobs);
    count("criticalServerIntervals", a.criticalServerIntervals,
          b.criticalServerIntervals);
    if (a.schedulerName != b.schedulerName)
        diff.push_back("schedulerName");
    return diff;
}

std::vector<std::string>
serveDiff(const ServeResult &a, const ServeResult &b)
{
    std::vector<std::string> diff;
    const auto count = [&](const char *name, std::uint64_t x,
                           std::uint64_t y) {
        if (x != y)
            diff.push_back(name);
    };
    count("shards", a.shards, b.shards);
    count("completedIntervals", a.completedIntervals,
          b.completedIntervals);
    count("arrivals", a.arrivals, b.arrivals);
    count("admitted", a.admitted, b.admitted);
    count("shed", a.shed, b.shed);
    count("requeued", a.requeued, b.requeued);
    count("placed", a.placed, b.placed);
    count("droppedJobs", a.droppedJobs, b.droppedJobs);
    count("completedJobs", a.completedJobs, b.completedJobs);
    count("evacuatedJobs", a.evacuatedJobs, b.evacuatedJobs);
    count("migratedJobs", a.migratedJobs, b.migratedJobs);
    count("lostJobs", a.lostJobs, b.lostJobs);
    count("expiredJobs", a.expiredJobs, b.expiredJobs);
    count("checkpointFailures", a.checkpointFailures,
          b.checkpointFailures);
    count("failedServers", a.failedServers, b.failedServers);
    count("quarantinedServers", a.quarantinedServers,
          b.quarantinedServers);
    count("maxBrownoutLevel", a.maxBrownoutLevel, b.maxBrownoutLevel);
    count("brownoutIntervals", a.brownoutIntervals,
          b.brownoutIntervals);
    count("finalQueueDepth", a.finalQueueDepth, b.finalQueueDepth);
    count("peakQueueDepth", a.peakQueueDepth, b.peakQueueDepth);
    count("finalInFlight", a.finalInFlight, b.finalInFlight);
    count("overheatedServerIntervals", a.overheatedServerIntervals,
          b.overheatedServerIntervals);
    const auto real = [&](const char *name, double x, double y) {
        if (!sameBits(x, y))
            diff.push_back(name);
    };
    real("peakCoolingLoad", a.peakCoolingLoad, b.peakCoolingLoad);
    real("peakPower", a.peakPower, b.peakPower);
    real("maxAirTemp", a.maxAirTemp, b.maxAirTemp);
    real("maxMeltFraction", a.maxMeltFraction, b.maxMeltFraction);
    if (a.telemetry != b.telemetry)
        diff.push_back("telemetry");
    if (a.telemetry.empty())
        diff.push_back("telemetry_missing");
    return diff;
}

std::vector<std::string>
outputDiff(const Rep &a, const Rep &b)
{
    return a.sim ? simDiff(*a.sim, *b.sim) : serveDiff(*a.serve, *b.serve);
}

// -------------------------------------------------------------- metrics

/** Linear-interpolation percentile (q in [0, 1]) of unsorted data. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
lookup(const std::map<std::string, double> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** Every per-layer metric, 0 where the workload's driver lacks the
 *  layer, so each report carries the same set. */
std::map<std::string, double>
layerMetrics(const Workload &w, const Rep &rep)
{
    std::map<std::string, double> m;
    for (const char *name :
         {"sched.place_s", "sched.place_ns_per_job", "sched.jobs",
          "sched.unplaced", "sched.batch_max", "sched.begin_s",
          "workload.arrivals_s", "sim.departures_s", "sim.step_s",
          "sim.ledger_s", "sim.setup_s", "sim.finish_s",
          "thermal.ns_per_server_step", "feed.pull_s",
          "feed.ns_per_arrival", "serve.drain_s", "serve.departures_s",
          "serve.evac_s", "serve.place_s", "serve.place_p50_ms",
          "serve.place_p99_ms", "serve.thermal_s",
          "serve.serial_residue_s", "serve.requeue_ratio",
          "serve.peak_queue_depth", "fault.evacuated",
          "fault.migrate_ratio", "state.checkpoint_s",
          "state.checkpoints", "state.snapshot_bytes", "pool.busy_s",
          "pool.tasks", "pool.efficiency"})
        m[name] = 0.0;

    const auto &self = rep.self;
    const auto phase = [&](const std::string &name) {
        return lookup(rep.profile, "profile.phase." + name + ".seconds");
    };
    const double server_steps =
        static_cast<double>(w.servers) * static_cast<double>(w.intervals);
    double tiled = 0.0;
    for (const auto &[name, seconds] : self)
        if (name != "sim.setup" && name != "serve.setup")
            tiled += seconds;

    if (rep.sim) {
        const double thermal = phase("thermal");
        const auto jobs = static_cast<double>(rep.jobsHanded);
        m["sched.place_s"] = lookup(self, "sched.place");
        m["sched.place_ns_per_job"] =
            ratio(lookup(self, "sched.place") * 1e9, jobs);
        m["sched.jobs"] = jobs;
        m["sched.unplaced"] = static_cast<double>(rep.unplaced);
        m["sched.batch_max"] = static_cast<double>(rep.batchMax);
        m["sched.begin_s"] = lookup(self, "sched.begin");
        m["workload.arrivals_s"] = lookup(self, "workload.arrivals");
        m["sim.departures_s"] = lookup(self, "sim.departures");
        m["sim.step_s"] = lookup(self, "sim.step");
        m["sim.ledger_s"] = lookup(self, "sim.step") - thermal;
        m["sim.setup_s"] = lookup(self, "sim.setup");
        m["sim.finish_s"] = lookup(self, "sim.finish");
        m["thermal.ns_per_server_step"] = ratio(thermal * 1e9, server_steps);
    } else {
        const ServeResult &r = *rep.serve;
        const double thermal = phase("serve.thermal");
        const double place = phase("serve.place");
        const double checkpoint = phase("serve.checkpoint");
        const double drain = lookup(self, "serve.drain");
        m["feed.pull_s"] = lookup(self, "feed.pull");
        m["feed.ns_per_arrival"] = ratio(lookup(self, "feed.pull") * 1e9,
                                         static_cast<double>(rep.pulled));
        m["serve.drain_s"] = drain;
        m["serve.departures_s"] = phase("serve.departures");
        m["serve.evac_s"] = drain - phase("serve.departures");
        m["serve.place_s"] = place;
        m["serve.place_p50_ms"] = percentile(r.placementSeconds, 0.5) * 1e3;
        m["serve.place_p99_ms"] =
            percentile(r.placementSeconds, 0.99) * 1e3;
        m["serve.thermal_s"] = thermal;
        m["serve.serial_residue_s"] =
            lookup(self, "serve.post") - place - thermal - checkpoint;
        m["serve.requeue_ratio"] =
            ratio(static_cast<double>(r.requeued),
                  static_cast<double>(r.admitted));
        m["serve.peak_queue_depth"] = static_cast<double>(r.peakQueueDepth);
        m["fault.evacuated"] = static_cast<double>(r.evacuatedJobs);
        m["fault.migrate_ratio"] =
            ratio(static_cast<double>(r.migratedJobs),
                  static_cast<double>(r.evacuatedJobs));
        m["state.checkpoint_s"] = checkpoint;
        m["state.checkpoints"] = lookup(
            rep.profile, "profile.phase.serve.checkpoint.calls");
        m["state.snapshot_bytes"] = static_cast<double>(rep.snapshotBytes);
        m["thermal.ns_per_server_step"] = ratio(thermal * 1e9, server_steps);
        m["pool.busy_s"] = rep.pool.busySeconds;
        m["pool.tasks"] = static_cast<double>(rep.pool.tasks);
        m["pool.efficiency"] =
            ratio(rep.pool.busySeconds,
                  static_cast<double>(w.threads) * rep.runSeconds);
    }
    m["trace.run_s"] = rep.runSeconds;
    m["trace.tiling_error"] =
        ratio(std::abs(tiled - rep.runSeconds), rep.runSeconds);
    return m;
}

// ----------------------------------------------------------------- json

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    for (const auto &[name, value] : metrics) {
        if (out.size() > 1)
            out += ',';
        out += "\"" + name + "\":" + num(value);
    }
    return out + "}";
}

std::string
stringsJson(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (const std::string &s : items) {
        if (out.size() > 1)
            out += ',';
        out += "\"" + s + "\"";
    }
    return out + "]";
}

// ----------------------------------------------------------------- modes

struct Options
{
    std::string workload;
    std::string mode = "e2e";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::filesystem::path scratch = ".";
    std::string spansOut;
};

/** Most set-up-only repetitions one setup-mode process makes. */
constexpr std::size_t kSetupReps = 100;

double
fastest(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

std::string
arrayJson(const std::vector<double> &values)
{
    std::string out = "[";
    for (double v : values) {
        if (out.size() > 1)
            out += ',';
        out += num(v);
    }
    return out + "]";
}

/**
 * The host shares its CPUs with other tenants, and its speed drifts by
 * up to ~60% over seconds. Contention only ever adds time, and every
 * repetition does bitwise-identical work in each interval, so the
 * per-interval time metrics use each interval's fastest time over the
 * run's repetitions: run_s is their sum (plus the fastest finish), and
 * the percentiles are taken over them. That tracks the code where a
 * median over repetitions tracks the neighbours. setup_s comes from
 * separate setup-mode processes (see modeSetup).
 */
int
modeE2e(const Workload &w, const Options &opt)
{
    const Nanos start = nowNs();
    const auto elapsed = [start] { return toSeconds(nowNs() - start); };
    Checks checks;

    std::vector<double> runs, peaks;
    std::vector<double> best(w.intervals,
                             std::numeric_limits<double>::infinity());
    double best_finish = std::numeric_limits<double>::infinity();
    std::uint64_t attempted = 0, failed = 0, rep_arrivals = 0;
    double arrivals = 0.0, served = 0.0;
    do {
        const Rep rep =
            runRep(w, opt.seed, Hooks::Timing, false, nullptr, opt.scratch);
        checkRep(w, rep, Hooks::Timing, checks);
        const bool ok = checks.nextRep();
        ++attempted;
        if (!ok)
            ++failed;
        rep_arrivals = arrivalsOf(rep);
        arrivals += static_cast<double>(rep_arrivals);
        if (ok)
            served += static_cast<double>(rep_arrivals - unservedOf(rep));
        runs.push_back(rep.runSeconds);
        double in_intervals = 0.0;
        for (std::size_t i = 0; i < rep.intervalSeconds.size(); ++i) {
            in_intervals += rep.intervalSeconds[i];
            if (i < best.size())
                best[i] = std::min(best[i], rep.intervalSeconds[i]);
        }
        best_finish =
            std::min(best_finish, std::max(0.0, rep.runSeconds - in_intervals));
        peaks.push_back(
            (rep.sim ? rep.sim->peakCoolingLoad : rep.serve->peakCoolingLoad) /
            1e3);
    } while (elapsed() + elapsed() / static_cast<double>(runs.size()) <=
             opt.seconds);

    double run = best_finish;
    for (double t : best)
        run += t;
    const std::map<std::string, double> metrics = {
        {"run_s", run},
        {"arrivals_per_s", static_cast<double>(rep_arrivals) / run},
        {"interval_p50_ms", percentile(best, 0.50) * 1e3},
        {"interval_p99_ms", percentile(best, 0.99) * 1e3},
        {"peak_rss_mb", peakRssMb()},
        {"served_frac", ratio(served, arrivals)},
        {"peak_cooling_kw", median(peaks)},
    };
    std::printf(
        "{\"mode\":\"e2e\",\"workload\":\"%s\",\"seed\":%llu,"
        "\"threads\":%zu,\"attempted\":%llu,\"failed\":%llu,"
        "\"peak_cooling_kw\":%s,\"metrics\":%s,\"checks\":%s,"
        "\"reps\":%zu,\"interval_samples\":%zu,"
        "\"interval_observations\":%zu,"
        "\"rep_run_s\":%s,\"seconds\":%s,"
        "\"compiler\":\"%s\","
        "\"build_type\":\"%s\",\"cxx_flags\":\"%s\"}\n",
        w.name, static_cast<unsigned long long>(opt.seed), w.threads,
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        num(median(peaks)).c_str(), metricsJson(metrics).c_str(),
        checks.json().c_str(), runs.size(), best.size(),
        runs.size() * w.intervals, arrayJson(runs).c_str(),
        num(elapsed()).c_str(), VMT_PERFBENCH_COMPILER,
        VMT_PERFBENCH_BUILD_TYPE, VMT_PERFBENCH_CXX_FLAGS);
    return 0;
}

int
modeTrace(const Workload &w, const Options &opt)
{
    const Nanos start = nowNs();
    const auto elapsed = [start] { return toSeconds(nowNs() - start); };
    Checks checks;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> plain_totals, traced_totals;
    std::map<std::string, std::vector<double>> layers;
    std::vector<std::string> differences;
    std::size_t spans = 0;
    double peak = 0.0;
    const std::size_t expected_spans = w.intervals * (w.serve ? 4 : 6) + 8;

    do {
        // Alternate so drift on the host hits both sides alike.
        const Rep plain =
            runRep(w, opt.seed, Hooks::None, false, nullptr, opt.scratch);
        checkRep(w, plain, Hooks::None, checks);
        Tracer tracer(expected_spans);
        const Rep traced =
            runRep(w, opt.seed, Hooks::Trace, false, &tracer, opt.scratch);
        checkRep(w, traced, Hooks::Trace, checks);
        const std::vector<std::string> diff = outputDiff(plain, traced);
        checks.add("transparency.outputs_bitwise_equal", diff.empty());
        for (const std::string &d : diff)
            if (std::find(differences.begin(), differences.end(), d) ==
                differences.end())
                differences.push_back(d);
        const bool ok = checks.nextRep();
        ++attempted;
        if (!ok)
            ++failed;

        peak = (plain.sim ? plain.sim->peakCoolingLoad
                          : plain.serve->peakCoolingLoad) /
               1e3;
        plain_totals.push_back(plain.totalSeconds);
        traced_totals.push_back(traced.totalSeconds);
        for (const auto &[name, value] : layerMetrics(w, traced))
            layers[name].push_back(value);
        spans = tracer.size();
        if (!opt.spansOut.empty())
            tracer.write(opt.spansOut);
    } while (elapsed() + elapsed() / static_cast<double>(attempted) <=
             opt.seconds);

    std::map<std::string, double> metrics;
    for (const auto &[name, values] : layers)
        metrics[name] = median(values);
    // Tiling must hold on every traced repetition, not just the median.
    double worst_tiling = 0.0;
    for (double t : layers["trace.tiling_error"])
        worst_tiling = std::max(worst_tiling, t);
    metrics["trace.tiling_error"] = worst_tiling;
    checks.add("trace.spans_tile_run_within_2pct", worst_tiling <= 0.02);
    ++attempted;
    if (!checks.nextRep())
        ++failed;
    metrics["trace.overhead_frac"] =
        fastest(traced_totals) / fastest(plain_totals) - 1.0;

    std::printf(
        "{\"mode\":\"trace\",\"workload\":\"%s\",\"seed\":%llu,"
        "\"threads\":%zu,\"attempted\":%llu,\"failed\":%llu,"
        "\"peak_cooling_kw\":%s,\"metrics\":%s,\"checks\":%s,"
        "\"differences\":%s,\"pairs\":%zu,"
        "\"spans\":%zu,\"plain_total_s\":%s,\"traced_total_s\":%s,"
        "\"seconds\":%s,\"compiler\":\"%s\",\"build_type\":\"%s\","
        "\"cxx_flags\":\"%s\"}\n",
        w.name, static_cast<unsigned long long>(opt.seed), w.threads,
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), num(peak).c_str(),
        metricsJson(metrics).c_str(), checks.json().c_str(),
        stringsJson(differences).c_str(), plain_totals.size(), spans,
        arrayJson(plain_totals).c_str(),
        arrayJson(traced_totals).c_str(), num(elapsed()).c_str(),
        VMT_PERFBENCH_COMPILER, VMT_PERFBENCH_BUILD_TYPE,
        VMT_PERFBENCH_CXX_FLAGS);
    return 0;
}

/**
 * Set-up only: repeats construction up to the first interval for
 * --seconds (at most kSetupReps times) and prints the median. Set-up
 * is a few milliseconds of allocation and first-touch page faults,
 * and each process settles in its own mode (the same seed reads
 * 1.4 ms in one process and 1.9 ms in the next), so run.py averages
 * several of these processes.
 */
int
modeSetup(const Workload &w, const Options &opt)
{
    const Nanos start = nowNs();
    std::vector<double> setups;
    do {
        setups.push_back(
            runRep(w, opt.seed, Hooks::Timing, true, nullptr, opt.scratch)
                .setupSeconds);
    } while (setups.size() < kSetupReps &&
             toSeconds(nowNs() - start) < opt.seconds);
    std::printf("{\"mode\":\"setup\",\"workload\":\"%s\",\"seed\":%llu,"
                "\"setup_s\":%s,\"samples\":%zu}\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                num(median(setups)).c_str(), setups.size());
    return 0;
}

int
modePeak(const Workload &w, const Options &opt)
{
    const Rep rep =
        runRep(w, opt.seed, Hooks::None, false, nullptr, opt.scratch);
    const double peak =
        rep.sim ? rep.sim->peakCoolingLoad : rep.serve->peakCoolingLoad;
    std::printf("{\"mode\":\"peak\",\"workload\":\"%s\",\"seed\":%llu,"
                "\"peak_cooling_kw\":%s}\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                num(peak / 1e3).c_str());
    return 0;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--mode")
            opt.mode = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--scratch")
            opt.scratch = value;
        else if (flag == "--spans-out")
            opt.spansOut = value;
        else
            fatal("unknown flag " + flag);
    }
    if (!(opt.seconds > 0.0))
        fatal("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseOptions(argc, argv);
        const Workload *w = nullptr;
        for (const Workload &candidate : kWorkloads)
            if (opt.workload == candidate.name)
                w = &candidate;
        if (!w)
            fatal("unknown workload '" + opt.workload + "'");
        // Size and start the pool before any timing, so no
        // repetition pays for spawning it.
        setGlobalThreadCount(w->threads);
        globalPool();
        if (opt.mode == "e2e")
            return modeE2e(*w, opt);
        if (opt.mode == "trace")
            return modeTrace(*w, opt);
        if (opt.mode == "setup")
            return modeSetup(*w, opt);
        if (opt.mode == "peak")
            return modePeak(*w, opt);
        fatal("unknown mode '" + opt.mode + "'");
    } catch (const std::exception &err) {
        std::fprintf(stderr, "vmt_perfbench: %s\n", err.what());
        return 1;
    }
}
