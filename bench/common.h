/**
 * @file
 * Shared setup for the benchmark harnesses: the calibrated study
 * configuration (Section IV) and small reporting helpers. Every
 * figure/table bench uses these defaults so results compose like the
 * paper's.
 */

#ifndef VMT_BENCH_COMMON_H
#define VMT_BENCH_COMMON_H

#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "state/sweep_manifest.h"
#include "util/thread_pool.h"
#include "util/time_series.h"

namespace vmt::bench {

/**
 * SweepRunner's handles on the global observability bundle:
 * `sweep.points_total`, `sweep.points_from_manifest_total` and the
 * `profile.phase.sweep_point` timer. Registered once per process
 * (registration is idempotent).
 */
struct SweepObsHandles
{
    obs::CounterHandle points;
    obs::CounterHandle fromManifest;
    obs::PhaseId point;
    obs::PhaseProfiler *profiler = nullptr;
};

/** Register (or look up) the handles above. */
SweepObsHandles sweepObsHandles();

/**
 * Parse the shared bench flag (--threads N, default VMT_THREADS /
 * hardware concurrency) and size the global pool accordingly. Call
 * first thing in a bench main(); other flags are left alone for the
 * bench's own parsing.
 */
void configureThreadsFromArgs(int argc, const char *const *argv);

/**
 * The sweep-manifest base path from VMT_SWEEP_MANIFEST (crash
 * resilience, see state/sweep_manifest.h); empty when unset.
 */
std::string manifestPathFromEnv();

/**
 * Fans independent sweep points out across the thread pool. Points
 * must not share mutable state (construct schedulers inside the
 * callback — the run helpers below already do); results come back in
 * input order, so tables print exactly as the serial loop would.
 *
 * When VMT_SWEEP_MANIFEST is set (or a base path is passed
 * explicitly), completed points of trivially-copyable result types
 * are persisted to a per-sweep manifest file after each completion;
 * rerunning after a crash serves recorded points from the manifest
 * and recomputes only the remainder. Non-trivially-copyable result
 * types always recompute (their bytes are not relocatable).
 */
class SweepRunner
{
  public:
    /** Uses the global (--threads / VMT_THREADS) pool and the
     *  VMT_SWEEP_MANIFEST resilience setting. */
    SweepRunner() : pool_(globalPool()), manifestBase_(manifestPathFromEnv())
    {}

    explicit SweepRunner(ThreadPool &pool,
                         std::string manifest_base = manifestPathFromEnv())
        : pool_(pool), manifestBase_(std::move(manifest_base))
    {}

    /** Evaluate fn(i) for i in [0, count) concurrently. */
    template <typename R, typename Fn>
    std::vector<R> map(std::size_t count, Fn &&fn) const
    {
        if constexpr (std::is_trivially_copyable_v<R>) {
            if (!manifestBase_.empty())
                return mapWithManifest<R>(count, std::forward<Fn>(fn));
        }
        const SweepObsHandles obs = sweepObsHandles();
        return parallelMap<R>(pool_, count, 1, [&](std::size_t i) {
            obs::ScopedPhase timer(obs.profiler, obs.point);
            R result = fn(i);
            obs::globalObservability().metrics().inc(obs.points);
            return result;
        });
    }

    /** Evaluate fn(point) over explicit sweep points. */
    template <typename R, typename Point, typename Fn>
    std::vector<R> mapPoints(const std::vector<Point> &points,
                             Fn &&fn) const
    {
        return map<R>(points.size(), [&](std::size_t i) {
            return fn(points[i]);
        });
    }

  private:
    template <typename R, typename Fn>
    std::vector<R> mapWithManifest(std::size_t count, Fn &&fn) const
    {
        SweepManifest manifest(nextSweepManifestPath(manifestBase_),
                               count, sizeof(R));
        const SweepObsHandles obs = sweepObsHandles();
        obs::MetricsRegistry &metrics =
            obs::globalObservability().metrics();
        return parallelMap<R>(pool_, count, 1, [&](std::size_t i) {
            if (const std::vector<std::uint8_t> *bytes =
                    manifest.completed(i)) {
                R result;
                std::memcpy(&result, bytes->data(), sizeof(R));
                metrics.inc(obs.points);
                metrics.inc(obs.fromManifest);
                return result;
            }
            obs::ScopedPhase timer(obs.profiler, obs.point);
            R result = fn(i);
            manifest.record(i, &result, sizeof(R));
            metrics.inc(obs.points);
            return result;
        });
    }

    ThreadPool &pool_;
    std::string manifestBase_;
};

/** The calibrated study configuration (see DESIGN.md section 5). */
SimConfig studyConfig(std::size_t num_servers);

/** VMT config with the study's wax and the given GV. */
VmtConfig studyVmt(double grouping_value);

/** Run a fresh round-robin baseline on the config. */
SimResult runRoundRobin(const SimConfig &config);

/** Run a fresh coolest-first baseline on the config. */
SimResult runCoolestFirst(const SimConfig &config);

/** Run VMT-TA at a grouping value. */
SimResult runVmtTa(const SimConfig &config, double grouping_value);

/** Run VMT-WA at a grouping value (and optional wax threshold). */
SimResult runVmtWa(const SimConfig &config, double grouping_value,
                   double wax_threshold = 0.98);

/**
 * Print a time series as paper-style rows: one row per `stride`
 * samples, with time in hours and the value scaled by `scale`.
 */
void printSeries(const std::string &title, const TimeSeries &series,
                 std::size_t stride, double scale,
                 const std::string &unit);

/** Print the standard run footer (peak load, melt fraction, jobs). */
void printRunSummary(const SimResult &result);

/**
 * When the environment variable VMT_BENCH_CSV_DIR is set, write the
 * run's full-resolution series (and heatmaps, when recorded) to
 * `$VMT_BENCH_CSV_DIR/<name>*.csv` for offline plotting; otherwise a
 * no-op. Benches call this next to their console tables.
 */
void maybeExportCsv(const std::string &name, const SimResult &result);

/**
 * Render the paper's server-by-time heatmap pair (air temperature at
 * the wax, 10-50 C; wax melted, 0-100 %) as ASCII art with summary
 * rows. Requires SimConfig::recordHeatmaps.
 */
void printHeatmaps(const SimResult &result);

} // namespace vmt::bench

#endif // VMT_BENCH_COMMON_H
