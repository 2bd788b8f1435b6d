/**
 * @file
 * The observability bundle one simulation run (or one CLI process)
 * carries: a MetricsRegistry, a PhaseProfiler over it, and a
 * RunTelemetry sampler. SimConfig::obs points at one of these to turn
 * the driver's instrumentation on; a null pointer runs the exact
 * uninstrumented code path.
 *
 * Determinism contract (pinned by `ctest -L obs`): every metric
 * outside the `profile.` namespace, every telemetry series and the
 * JSONL event log are bitwise identical across thread counts and
 * across checkpoint/resume. `profile.*` metrics are wall-clock
 * derived and carry no such guarantee.
 */

#ifndef VMT_OBS_OBSERVABILITY_H
#define VMT_OBS_OBSERVABILITY_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/phase_profiler.h"
#include "obs/run_telemetry.h"
#include "util/units.h"

namespace vmt {

class Serializer;
class SnapshotReader;

namespace obs {

/** Output paths for the end-of-process exports (CLI wiring). */
struct ObsOptions
{
    /** Metrics dump base path: Prometheus text at PATH, CSV at
     *  PATH.csv. Empty = no dump. */
    std::string metricsOut;
    /** JSONL trace-event stream path. Empty = no stream. */
    std::string traceEvents;

    bool enabled() const
    {
        return !metricsOut.empty() || !traceEvents.empty();
    }
};

/** Read ObsOptions from VMT_METRICS_OUT / VMT_TRACE_EVENTS. */
ObsOptions obsOptionsFromEnv();

/** Registry + profiler + telemetry for one run at a time. */
class Observability
{
  public:
    Observability();
    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    MetricsRegistry &metrics() { return registry_; }
    PhaseProfiler &profiler() { return profiler_; }
    RunTelemetry &telemetry() { return telemetry_; }
    const RunTelemetry &telemetry() const { return telemetry_; }

    /**
     * Called by the driver before the first interval: resets the
     * per-run telemetry series, appends the run-header event and
     * snapshots the pool task-stat baseline.
     */
    void beginRun(const std::string &scheduler, std::size_t servers,
                  std::size_t intervals, Seconds interval);

    /**
     * Called by the driver after the last interval: publishes the
     * pool task-stat deltas under `profile.pool.*` and appends the
     * summary + non-`profile.` metric events to the trace log.
     */
    void endRun();

    /** Serialize metric values + telemetry (snapshot OBSV payload). */
    void saveState(Serializer &out) const;

    /**
     * Restore the state @p reader's OBSV section saved after
     * @p completed intervals. A snapshot without the section (written
     * before this layer, or by a run without observability) resumes
     * anyway: warn and zero-pad the telemetry prefix so the series
     * stay aligned.
     */
    void restoreState(const SnapshotReader &reader,
                      std::size_t completed);

    /** Write Prometheus text to @p path and CSV to `path + ".csv"`,
     *  both atomically. @throws FatalError naming the failing path. */
    void writeMetrics(const std::string &path) const;

    /** Write the JSONL event stream atomically.
     *  @throws FatalError naming @p path. */
    void writeTraceEvents(const std::string &path) const;

  private:
    MetricsRegistry registry_;
    PhaseProfiler profiler_;
    RunTelemetry telemetry_;
    GaugeHandle poolTasks_;
    GaugeHandle poolBusySeconds_;
    std::uint64_t poolTasksBase_ = 0;
    double poolBusyBase_ = 0.0;
};

/**
 * The process-wide bundle the CLI front-ends and bench::SweepRunner
 * share (created lazily, like the global thread pool). Library users
 * and tests construct their own Observability instances instead.
 */
Observability &globalObservability();

} // namespace obs
} // namespace vmt

#endif // VMT_OBS_OBSERVABILITY_H
