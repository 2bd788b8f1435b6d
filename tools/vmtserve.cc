/**
 * @file
 * vmtserve — long-lived serving front-end to the sharded VMT driver.
 *
 * Runs an open-ended interval loop against a streaming job feed: a
 * deterministic synthetic million-user Poisson/diurnal generator, or
 * a line-oriented text feed (`arrive <t> <util> <duration>`) from a
 * file or stdin. Arrivals pass through admission control (bounded
 * ingress ring, optional per-interval budget, queue-or-shed policy)
 * before a deterministic waterfill routes them to per-pod simulation
 * shards placed via the batched scheduler hot path.
 *
 * Flags:
 *   --servers N            fleet size                  (default 1000)
 *   --pod-size N           servers per shard           (default 256)
 *   --policy P             rr | cf | ta | wa | preserve | adaptive
 *                          (default wa)
 *   --gv G                 grouping value              (default 22)
 *   --threshold T          wax threshold               (default 0.98)
 *   --seed X               run seed                    (default 7)
 *   --threads N            worker threads; 0 = auto    (default 0)
 *
 *   --feed F               synthetic | - (stdin) | FILE (default
 *                          synthetic)
 *   --users N              synthetic: modelled users  (default 1e6)
 *   --req-rate R           synthetic: requests per user-hour
 *                          (default 0.75)
 *   --diurnal-trough F     synthetic: trough fraction of peak
 *                          (default 0.35)
 *   --ramp-hours H         synthetic: warm-up ramp     (default 0)
 *   --burst-period-hours H synthetic: burst spike period (0 = off)
 *   --burst-factor F       synthetic: burst rate multiplier
 *                          (default 3)
 *   --burst-minutes M      synthetic: burst length     (default 5)
 *
 *   --minutes N            stop after N intervals; 0 = serve until
 *                          the feed drains or a signal arrives
 *                          (default 0)
 *   --queue-capacity N     ingress ring capacity       (default 65536)
 *   --admission-budget N   jobs admitted per interval; 0 = unlimited
 *   --admit P              queue | shed                (default queue)
 *   --max-queue-age S      shed queued arrivals older than S seconds
 *                          at admission (0 = off, default)
 *   --overheat-temp C      overheat accounting threshold (default 45)
 *
 *   --fault-plan FILE      scripted fault events against global
 *                          server ids ("<hours> server-down <id>" /
 *                          "server-up <id>" / "cooling-derate <K>" /
 *                          "cooling-restore"); jobs on failed servers
 *                          are evacuated cross-shard
 *   --fault-seed X         seed of the fault layer's private Rng;
 *                          each shard draws from its own stream
 *                          (default 1)
 *   --fault-mtbf H         stochastic failures: MTBF in hours at the
 *                          reference temperature (0 = off, default)
 *   --fault-repair H       stochastic-failure repair time in hours
 *                          (default 4)
 *   --critical-temp C      thermal-emergency quarantine threshold in
 *                          Celsius (0 = off, default)
 *   --evac-retries N       cross-shard re-route rounds for evacuated
 *                          jobs before shedding them (default 3)
 *
 *   --brownout-temp C      brownout watermark: step the admission
 *                          budget down while the fleet's peak air is
 *                          at or above C (0 = off, default)
 *   --brownout-melt F      brownout watermark on the hottest shard's
 *                          mean melt fraction (0 = off, default)
 *   --brownout-step F      budget fraction removed per brownout level
 *                          (default 0.25)
 *   --brownout-floor F     budget floor as a fraction of the base
 *                          (default 0.1)
 *   --brownout-hold N      cool intervals required per step back up
 *                          (default 5)
 *
 *   --checkpoint-every N   snapshot every N intervals (0 = off); a
 *                          final snapshot is always written on exit
 *                          while enabled. Writes rotate the previous
 *                          generation to <path>.prev and survive
 *                          write failures (counted + retried, not
 *                          fatal)
 *   --checkpoint-path F    snapshot file (default vmtserve.ckpt)
 *   --resume-from F        resume a killed run mid-stream (bitwise);
 *                          a corrupt newest snapshot falls back to
 *                          the retained <F>.prev generation
 *   --telemetry-out F      per-interval JSONL stream, appended and
 *                          flushed line by line
 *   --metrics-out PATH     end-of-run metrics dump (Prometheus text +
 *                          CSV; env VMT_METRICS_OUT)
 *   --trace-events PATH    JSONL trace-event stream (env
 *                          VMT_TRACE_EVENTS)
 *
 * SIGINT/SIGTERM request a drain: the loop finishes the current
 * interval, writes a final checkpoint (when enabled) and exits 0, so
 * `kill` + `--resume-from` continues the stream bitwise.
 *
 * Examples:
 *   vmtserve --servers 10000 --minutes 120 --telemetry-out t.jsonl
 *   vmtserve --feed plan.feed --checkpoint-every 30
 *   printf 'arrive 0 0.4 1800\n' | vmtserve --feed - --minutes 60
 */

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>

#include "cli_common.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

using namespace vmt;
using namespace vmt::serve;

namespace {

constexpr const char *kTool = "vmtserve";

/** Set by the signal handler; polled once per interval. */
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void
handleStopSignal(int)
{
    g_stop_requested = 1;
}

ServeConfig
configFromFlags(const Flags &flags)
{
    ServeConfig config;
    config.numServers =
        cli::countFlag(flags, kTool, "servers", 1000, 1, "positive");
    config.podSize =
        cli::countFlag(flags, kTool, "pod-size", 256, 1, "positive");
    config.seed =
        static_cast<std::uint64_t>(flags.getInt("seed", 7));
    config.policy = flags.getString("policy", "wa");
    config.gv = flags.getDouble("gv", 22.0);
    config.waxThreshold = flags.getDouble("threshold", 0.98);
    config.overheatTemp = flags.getDouble("overheat-temp", 45.0);

    config.queueCapacity = cli::countFlag(flags, kTool, "queue-capacity",
                                          65536, 1, "positive");
    config.admissionBudget = cli::countFlag(
        flags, kTool, "admission-budget", 0, 0, ">= 0 (0 = unlimited)");
    config.admit =
        admitPolicyFromString(flags.getString("admit", "queue"));
    config.maxQueueAge = flags.getDouble("max-queue-age", 0.0);
    if (config.maxQueueAge < 0.0)
        fatal("vmtserve: --max-queue-age must be >= 0 (0 = off)");

    cli::readFaultFlags(flags, kTool, config.faults);
    config.evacRetries =
        cli::countFlag(flags, kTool, "evac-retries", 3, 0, ">= 0");

    config.brownout.maxAirTemp =
        flags.getDouble("brownout-temp", 0.0);
    config.brownout.maxMelt = flags.getDouble("brownout-melt", 0.0);
    config.brownout.step = flags.getDouble("brownout-step", 0.25);
    config.brownout.floor = flags.getDouble("brownout-floor", 0.1);
    config.brownout.holdIntervals =
        cli::countFlag(flags, kTool, "brownout-hold", 5, 1, "positive");

    config.maxIntervals = cli::countFlag(flags, kTool, "minutes", 0, 0,
                                         ">= 0 (0 = open-ended)");
    config.checkpointEvery = cli::countFlag(
        flags, kTool, "checkpoint-every", 0, 0, ">= 0 (0 = off)");
    config.checkpointPath =
        flags.getString("checkpoint-path", "vmtserve.ckpt");
    config.resumeFrom = flags.getString("resume-from", "");
    config.telemetryOut = flags.getString("telemetry-out", "");
    if (cli::obsOptionsFromFlags(flags).enabled())
        config.obs = &obs::globalObservability();
    return config;
}

std::unique_ptr<JobFeed>
feedFromFlags(const Flags &flags, const ServeConfig &config)
{
    const std::string feed = flags.getString("feed", "synthetic");
    if (feed == "synthetic") {
        SyntheticFeedParams params;
        params.users = flags.getDouble("users", 1e6);
        params.requestsPerUserHour =
            flags.getDouble("req-rate", 0.75);
        params.diurnalTrough =
            flags.getDouble("diurnal-trough", 0.35);
        params.rampHours = flags.getDouble("ramp-hours", 0.0);
        params.burstPeriodHours =
            flags.getDouble("burst-period-hours", 0.0);
        params.burstFactor = flags.getDouble("burst-factor", 3.0);
        params.burstMinutes = flags.getDouble("burst-minutes", 5.0);
        params.seed = config.seed;
        return std::make_unique<SyntheticFeed>(params);
    }
    const std::size_t total_cores =
        config.numServers * config.spec.cores();
    if (feed == "-")
        return std::make_unique<LineFeed>(std::cin, "<stdin>",
                                          total_cores);
    return std::make_unique<LineFeed>(feed, total_cores);
}

void
printSummary(const ServeResult &r)
{
    std::printf("policy            %s\n", r.schedulerName.c_str());
    std::printf("shards            %zu\n", r.shards);
    std::printf("intervals         %zu (resumed from %zu)\n",
                r.completedIntervals, r.resumedIntervals);
    std::printf("arrivals          %llu\n",
                static_cast<unsigned long long>(r.arrivals));
    std::printf("admitted          %llu (shed %llu, requeued %llu)\n",
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.requeued));
    std::printf("jobs placed       %llu (dropped %llu)\n",
                static_cast<unsigned long long>(r.placed),
                static_cast<unsigned long long>(r.droppedJobs));
    std::printf("jobs completed    %llu\n",
                static_cast<unsigned long long>(r.completedJobs));
    if (r.degraded) {
        std::printf("evacuated         %llu (migrated %llu, "
                    "lost %llu)\n",
                    static_cast<unsigned long long>(r.evacuatedJobs),
                    static_cast<unsigned long long>(r.migratedJobs),
                    static_cast<unsigned long long>(r.lostJobs));
        std::printf("expired           %llu\n",
                    static_cast<unsigned long long>(r.expiredJobs));
        std::printf("servers down      %zu (quarantined %zu)\n",
                    r.failedServers, r.quarantinedServers);
        std::printf("brownout          level %zu max, %llu "
                    "intervals\n",
                    r.maxBrownoutLevel,
                    static_cast<unsigned long long>(
                        r.brownoutIntervals));
    }
    if (r.checkpointFailures > 0)
        std::printf("checkpoint fails  %llu (kept last good)\n",
                    static_cast<unsigned long long>(
                        r.checkpointFailures));
    std::printf("queue depth       %zu final, %zu peak\n",
                r.finalQueueDepth, r.peakQueueDepth);
    std::printf("in flight         %zu\n", r.finalInFlight);
    std::printf("peak cooling load %.1f kW\n",
                r.peakCoolingLoad / 1e3);
    std::printf("peak power        %.1f kW\n", r.peakPower / 1e3);
    std::printf("max air temp      %.1f C\n", r.maxAirTemp);
    std::printf("max mean melt     %.1f %%\n",
                r.maxMeltFraction * 100.0);
    if (r.stopped)
        std::printf("stopped by signal; state drained\n");
    if (r.feedExhausted)
        std::printf("feed exhausted and drained\n");
    if (!r.finalCheckpoint.empty())
        std::printf("checkpoint        %s\n",
                    r.finalCheckpoint.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags(argc, argv);
    try {
        setGlobalThreadCount(cli::countFlag(flags, kTool, "threads", 0, 0,
                                            ">= 0 (0 = auto)"));

        const ServeConfig config = configFromFlags(flags);
        std::unique_ptr<JobFeed> feed = feedFromFlags(flags, config);

        if (cli::reportUnknownFlags(flags, kTool))
            return 2;

        std::signal(SIGINT, handleStopSignal);
        std::signal(SIGTERM, handleStopSignal);

        ShardedDriver driver(config);
        const ServeResult result = driver.run(
            *feed, [] { return g_stop_requested != 0; });
        printSummary(result);
        cli::exportObservability(flags);
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "vmtserve: %s\n", err.what());
        return 1;
    }
}
