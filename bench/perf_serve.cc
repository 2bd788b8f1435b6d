/**
 * @file
 * perf_serve — sustained-throughput study of the sharded serving
 * driver (vmtserve): for each fleet size, run a fixed number of
 * serving intervals against the synthetic heavy-traffic feed and
 * report sustained arrivals/sec of wall time plus p50/p99
 * per-interval placement latency (the `serve` rows on stdout).
 *
 * A second study prices the fault layer (the `serve_fault` rows):
 * an enabled-but-empty fault plan against the clean baseline (the
 * degraded-mode bookkeeping overhead, expected <= ~3%), and a
 * half-fleet outage with scripted recovery (sustained arrivals/sec
 * while the cross-shard evacuation and re-admission paths are hot).
 * One run of each side reads as noise on a shared host, so the study
 * runs kFaultRounds rounds of clean, empty-plan and outage runs in
 * turn; a row gives the median rate of its mode's runs and the
 * median and quartiles of the per-round overhead against the clean
 * run of the same round.
 *
 * Each row is a single run and goes to stdout only; perfbench's
 * `serve_10k_outage` workload is the repeated measurement
 * (`arrivals_per_s`, `serve.place_p50_ms`/`p99_ms`, `fault.*`).
 *
 * Flags:  --quick   small fleets / short runs (CI smoke)
 */

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <utility>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/flags.h"

using namespace vmt;
using namespace vmt::serve;

namespace {

double
percentileUs(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return 1e6 * sorted[std::min(rank, sorted.size() - 1)];
}

/** Rounds of the fault study: clean, empty-plan and outage runs. */
constexpr std::size_t kFaultRounds = 5;

/** Linear-interpolation quantile q of `values` (not empty). */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

} // namespace

int
main(int argc, char **argv)
{
    vmt::bench::configureThreadsFromArgs(argc, argv);
    const Flags flags(argc, argv, {"quick"});
    const bool quick = flags.getBool("quick", false);

    const std::vector<std::size_t> fleets =
        quick ? std::vector<std::size_t>{500}
              : std::vector<std::size_t>{1000, 10000};
    const std::size_t intervals = quick ? 20 : 60;

    for (const std::size_t servers : fleets) {
        ServeConfig config;
        config.numServers = servers;
        config.podSize = 256;
        // Heavy traffic: scale the user population with the fleet so
        // every size runs at a comparable utilization, with bursts.
        SyntheticFeedParams params;
        params.users = static_cast<double>(servers) * 400.0;
        params.requestsPerUserHour = 0.75;
        params.burstPeriodHours = 0.25;
        params.burstFactor = 3.0;
        params.burstMinutes = 3.0;
        params.seed = config.seed;
        config.maxIntervals = intervals;
        config.recordPlacementLatency = true;

        SyntheticFeed feed(params);
        ShardedDriver driver(config);
        const auto start = std::chrono::steady_clock::now();
        const ServeResult result = driver.run(feed);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        std::printf("[serve] servers=%-6zu shards=%-3zu "
                    "intervals=%-3zu %10.0f arrivals/s  placement "
                    "p50 %8.1f us  p99 %8.1f us\n",
                    servers, result.shards, result.completedIntervals,
                    static_cast<double>(result.arrivals) / wall,
                    percentileUs(result.placementSeconds, 0.50),
                    percentileUs(result.placementSeconds, 0.99));
        std::fflush(stdout);
    }

    // ------------------------------------------------------------
    // The fault-layer study: what does degraded mode cost when
    // nothing fails, and what rate survives a half-fleet outage?
    const std::size_t fault_servers = quick ? 500 : 10000;
    const std::size_t fault_intervals = intervals;
    ServeConfig fault_config;
    fault_config.numServers = fault_servers;
    fault_config.podSize = 256;
    fault_config.maxIntervals = fault_intervals;
    SyntheticFeedParams fault_params;
    fault_params.users = static_cast<double>(fault_servers) * 400.0;
    fault_params.requestsPerUserHour = 0.75;
    fault_params.burstPeriodHours = 0.25;
    fault_params.burstFactor = 3.0;
    fault_params.burstMinutes = 3.0;
    fault_params.seed = fault_config.seed;

    auto timedRun = [&](const ServeConfig &config, double *wall) {
        SyntheticFeed feed(fault_params);
        ShardedDriver driver(config);
        const auto start = std::chrono::steady_clock::now();
        const ServeResult result = driver.run(feed);
        *wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        return result;
    };

    // Empty plan: the full degraded interval path (fault engines,
    // schedulable-free capacity scans, evacuation orchestration)
    // with zero events — pure bookkeeping overhead.
    ServeConfig empty_plan = fault_config;
    empty_plan.faults.enable = true;

    // Half-fleet outage a third of the way in, scripted recovery at
    // two thirds: the evacuation, waterfill re-routing and
    // re-admission paths all run hot while the rate is measured.
    ServeConfig outage = fault_config;
    {
        const Seconds down_at = static_cast<double>(
                                    fault_intervals / 3) *
                                outage.interval;
        const Seconds up_at = static_cast<double>(
                                  2 * fault_intervals / 3) *
                              outage.interval;
        std::vector<FaultEvent> events;
        for (const auto &[at, type] :
             {std::pair{down_at, FaultEventType::ServerDown},
              std::pair{up_at, FaultEventType::ServerUp}}) {
            for (std::size_t id = 0; id < fault_servers / 2; ++id) {
                FaultEvent event;
                event.time = at;
                event.type = type;
                event.serverId = id;
                events.push_back(event);
            }
        }
        outage.faults.plan = FaultPlan(std::move(events));
    }

    struct Mode
    {
        const char *name;
        const ServeConfig *config;
        std::vector<double> rates;
        std::vector<double> overheads;
        ServeResult last;
    };
    Mode modes[] = {{"empty_plan", &empty_plan, {}, {}, {}},
                    {"half_fleet_outage", &outage, {}, {}, {}}};
    for (std::size_t round = 0; round < kFaultRounds; ++round) {
        double wall = 0.0;
        const ServeResult clean = timedRun(fault_config, &wall);
        const double clean_rate =
            static_cast<double>(clean.arrivals) / wall;
        for (Mode &mode : modes) {
            mode.last = timedRun(*mode.config, &wall);
            const double rate =
                static_cast<double>(mode.last.arrivals) / wall;
            mode.rates.push_back(rate);
            mode.overheads.push_back(100.0 *
                                     (1.0 - rate / clean_rate));
        }
    }

    for (const Mode &mode : modes) {
        std::printf("[serve_fault] servers=%-6zu %-17s %10.0f "
                    "arrivals/s  overhead %+5.1f%% (quartiles "
                    "%+.1f, %+.1f; %zu rounds)  evacuated %llu "
                    "(migrated %llu, lost %llu)\n",
                    fault_servers, mode.name, quantile(mode.rates, 0.5),
                    quantile(mode.overheads, 0.5),
                    quantile(mode.overheads, 0.25),
                    quantile(mode.overheads, 0.75), kFaultRounds,
                    static_cast<unsigned long long>(
                        mode.last.evacuatedJobs),
                    static_cast<unsigned long long>(
                        mode.last.migratedJobs),
                    static_cast<unsigned long long>(
                        mode.last.lostJobs));
    }
    return 0;
}
