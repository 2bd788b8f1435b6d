/**
 * @file
 * perf_serve — sustained-throughput study of the sharded serving
 * driver (vmtserve): for each fleet size, run a fixed number of
 * serving intervals against the synthetic heavy-traffic feed and
 * report sustained arrivals/sec of wall time plus p50/p99
 * per-interval placement latency. These are the `serve` rows in
 * BENCH_sim.json.
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
 * Flags:  --quick   small fleets / short runs (CI smoke)
 * Environment: VMT_PERF_JSON  BENCH_sim.json path to splice the
 *              `serve`, `serve_fault` and `serve_build` keys into
 *              (default ./BENCH_sim.json).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "util/flags.h"
#include "util/json_splice.h"

using namespace vmt;
using namespace vmt::serve;

namespace {

struct Row
{
    std::size_t servers;
    std::size_t shards;
    std::size_t intervals;
    std::uint64_t arrivals;
    double arrivalsPerSec; // Of wall time, the sustained-rate figure.
    double p50PlacementUs;
    double p99PlacementUs;
};

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

/** One `serve_fault` study row, over kFaultRounds rounds. */
struct FaultRow
{
    std::size_t servers;
    std::string mode; // "empty_plan" | "half_fleet_outage"
    /** Median over the mode's runs. */
    double arrivalsPerSec;
    /** Slowdown vs. the clean run of the same round (%): median and
     *  quartiles over the rounds. */
    double overheadPct;
    double overheadQ1Pct;
    double overheadQ3Pct;
    std::uint64_t evacuated;
    std::uint64_t migrated;
    std::uint64_t lost;
};

void
spliceFaultJson(const std::string &path,
                const std::vector<FaultRow> &rows)
{
    std::string doc;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        doc = buffer.str();
    }
    std::ostringstream value;
    value << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FaultRow &r = rows[i];
        value << "    {\"servers\": " << r.servers
              << ", \"mode\": \"" << r.mode << "\""
              << ", \"runs\": " << kFaultRounds
              << ", \"arrivals_per_sec\": " << r.arrivalsPerSec
              << ", \"overhead_pct\": " << r.overheadPct
              << ", \"overhead_pct_q1\": " << r.overheadQ1Pct
              << ", \"overhead_pct_q3\": " << r.overheadQ3Pct
              << ", \"evacuated\": " << r.evacuated
              << ", \"migrated\": " << r.migrated
              << ", \"lost\": " << r.lost << "}"
              << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    value << "  ]";
    doc = spliceTopLevelJson(doc, "serve_fault", value.str());
    doc = spliceTopLevelJson(doc, "serve_build", bench::buildJson());

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[serve_fault] cannot write %s\n",
                     path.c_str());
        return;
    }
    out << doc;
    std::printf("[serve_fault] spliced %zu rows into %s\n",
                rows.size(), path.c_str());
}

void
spliceJson(const std::string &path, const std::vector<Row> &rows)
{
    std::string doc;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        doc = buffer.str();
    }
    std::ostringstream value;
    value << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        value << "    {\"servers\": " << r.servers
              << ", \"shards\": " << r.shards
              << ", \"intervals\": " << r.intervals
              << ", \"arrivals\": " << r.arrivals
              << ", \"arrivals_per_sec\": " << r.arrivalsPerSec
              << ", \"p50_placement_us\": " << r.p50PlacementUs
              << ", \"p99_placement_us\": " << r.p99PlacementUs
              << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    value << "  ]";
    doc = spliceTopLevelJson(doc, "serve", value.str());

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[serve] cannot write %s\n",
                     path.c_str());
        return;
    }
    out << doc;
    std::printf("[serve] spliced %zu rows into %s\n", rows.size(),
                path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    vmt::bench::configureThreadsFromArgs(argc, argv);
    const Flags flags(argc, argv, {"quick"});
    const bool quick = flags.getBool("quick", false);

    std::string json_path = "BENCH_sim.json";
    if (const char *env = std::getenv("VMT_PERF_JSON"))
        json_path = env;

    const std::vector<std::size_t> fleets =
        quick ? std::vector<std::size_t>{500}
              : std::vector<std::size_t>{1000, 10000};
    const std::size_t intervals = quick ? 20 : 60;

    std::vector<Row> rows;
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

        Row row;
        row.servers = servers;
        row.shards = result.shards;
        row.intervals = result.completedIntervals;
        row.arrivals = result.arrivals;
        row.arrivalsPerSec =
            static_cast<double>(result.arrivals) / wall;
        row.p50PlacementUs =
            percentileUs(result.placementSeconds, 0.50);
        row.p99PlacementUs =
            percentileUs(result.placementSeconds, 0.99);
        rows.push_back(row);
        std::printf("[serve] servers=%-6zu shards=%-3zu "
                    "intervals=%-3zu %10.0f arrivals/s  placement "
                    "p50 %8.1f us  p99 %8.1f us\n",
                    servers, row.shards, row.intervals,
                    row.arrivalsPerSec, row.p50PlacementUs,
                    row.p99PlacementUs);
        std::fflush(stdout);
    }

    spliceJson(json_path, rows);

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

    std::vector<FaultRow> fault_rows;
    for (const Mode &mode : modes) {
        FaultRow row;
        row.servers = fault_servers;
        row.mode = mode.name;
        row.arrivalsPerSec = quantile(mode.rates, 0.5);
        row.overheadPct = quantile(mode.overheads, 0.5);
        row.overheadQ1Pct = quantile(mode.overheads, 0.25);
        row.overheadQ3Pct = quantile(mode.overheads, 0.75);
        row.evacuated = mode.last.evacuatedJobs;
        row.migrated = mode.last.migratedJobs;
        row.lost = mode.last.lostJobs;
        fault_rows.push_back(row);
        std::printf("[serve_fault] servers=%-6zu %-17s %10.0f "
                    "arrivals/s  overhead %+5.1f%% (quartiles "
                    "%+.1f, %+.1f; %zu rounds)  evacuated %llu "
                    "(migrated %llu, lost %llu)\n",
                    fault_servers, mode.name, row.arrivalsPerSec,
                    row.overheadPct, row.overheadQ1Pct,
                    row.overheadQ3Pct, kFaultRounds,
                    static_cast<unsigned long long>(row.evacuated),
                    static_cast<unsigned long long>(row.migrated),
                    static_cast<unsigned long long>(row.lost));
    }

    spliceFaultJson(json_path, fault_rows);
    return 0;
}
