/**
 * @file
 * Process-observable metrics: named counters, gauges and fixed-bucket
 * histograms, cheap enough for the driver's per-interval hot loop.
 *
 * Names resolve to integer handles once, at registration time; every
 * hot-path operation (inc/set/observe) is a single indexed slot
 * update with no map lookup. Slots are relaxed atomics so the pool
 * instrumentation (profile.* metrics recorded from worker threads)
 * is race-free under TSan; simulation metrics are only ever touched
 * from the driver thread, which is what keeps their values bitwise
 * identical across thread counts.
 *
 * Naming scheme (see DESIGN.md section 12): lowercase dotted paths,
 * `[a-z0-9_.]`, e.g. `sim.jobs.placed_total`. Everything under
 * `profile.` is wall-clock derived and excluded from the determinism
 * guarantees; everything else must be bitwise reproducible.
 */

#ifndef VMT_OBS_METRICS_REGISTRY_H
#define VMT_OBS_METRICS_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vmt {

class Serializer;
class Deserializer;

namespace obs {

/** Handle to a registered counter (index into the counter table). */
struct CounterHandle
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Handle to a registered gauge. */
struct GaugeHandle
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Handle to a registered histogram. */
struct HistogramHandle
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Kind tag used in exports and the generic value snapshot. */
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** One metric's values, flattened for comparisons and tests. */
struct MetricValue
{
    std::string name;
    MetricKind kind;
    /**
     * Counter: {value}. Gauge: {value}. Histogram: per-bucket counts
     * (ascending bounds, then the overflow bucket), then sum, then
     * count.
     */
    std::vector<double> values;
};

/**
 * Registry of named metrics. Registration is idempotent: asking for
 * an existing name of the same kind returns the original handle
 * (same bounds required for histograms); re-registering a name as a
 * different kind is fatal.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Register (or look up) a monotonic counter. */
    CounterHandle counter(const std::string &name,
                          const std::string &help = "");

    /** Register (or look up) a gauge. */
    GaugeHandle gauge(const std::string &name,
                      const std::string &help = "");

    /**
     * Register (or look up) a fixed-bucket histogram.
     * @param bounds Strictly ascending upper bounds; a sample lands
     *        in the first bucket whose bound is >= the value
     *        (Prometheus `le` semantics), or in the implicit
     *        overflow bucket past the last bound.
     */
    HistogramHandle histogram(const std::string &name,
                              std::vector<double> bounds,
                              const std::string &help = "");

    /** Add to a counter (relaxed atomic; hot-path safe). */
    void inc(CounterHandle h, std::uint64_t delta = 1);

    /** Set a gauge. */
    void set(GaugeHandle h, double value);

    /** Add to a gauge (used by the profiler's accumulated seconds). */
    void add(GaugeHandle h, double delta);

    /** Record one histogram observation. */
    void observe(HistogramHandle h, double value);

    std::uint64_t counterValue(CounterHandle h) const;
    double gaugeValue(GaugeHandle h) const;
    std::uint64_t histogramCount(HistogramHandle h) const;
    double histogramSum(HistogramHandle h) const;
    /** Per-bucket (non-cumulative) counts; last is the overflow. */
    std::vector<std::uint64_t>
    histogramBuckets(HistogramHandle h) const;

    /** Number of registered metrics of every kind. */
    std::size_t size() const;

    /**
     * Every metric's flattened values in registration order.
     * @param include_profile When false, metrics under `profile.` are
     *        skipped — the set the determinism tests compare.
     */
    std::vector<MetricValue>
    snapshotValues(bool include_profile = true) const;

    /** Prometheus text exposition (name `vmt_` + dots->underscores). */
    std::string renderPrometheus() const;

    /** CSV exposition: `metric,kind,value` rows. */
    std::string renderCsv() const;

    /** Atomic (temp + rename) Prometheus dump.
     *  @throws FatalError naming @p path when it cannot be written. */
    void writePrometheus(const std::string &path) const;

    /** Atomic CSV dump. @throws FatalError naming @p path. */
    void writeCsv(const std::string &path) const;

    /** Serialize every non-`profile.` metric value (not the
     *  registrations, which are code-driven) into a snapshot section
     *  payload. */
    void saveState(Serializer &out) const;

    /** Restore values saved by saveState(). The same non-`profile.`
     *  registrations must already exist; any shape mismatch among
     *  them is fatal. `profile.` metrics keep this process's values. */
    void loadState(Deserializer &in);

  private:
    struct CounterSlot
    {
        std::string name;
        std::string help;
        std::atomic<std::uint64_t> value{0};
    };
    struct GaugeSlot
    {
        std::string name;
        std::string help;
        std::atomic<double> value{0.0};
    };
    struct HistogramSlot
    {
        std::string name;
        std::string help;
        std::vector<double> bounds;
        /** bounds.size() + 1 buckets; the last is the overflow. */
        std::deque<std::atomic<std::uint64_t>> buckets;
        std::atomic<double> sum{0.0};
        std::atomic<std::uint64_t> count{0};
    };

    static void atomicAddDouble(std::atomic<double> &slot,
                                double delta);

    /** Existing registration of @p name, or registers a new slot. */
    std::uint32_t resolve(const std::string &name, MetricKind kind,
                          const std::string &help,
                          const std::vector<double> *bounds);

    mutable std::mutex registerMutex_;
    std::deque<CounterSlot> counters_;
    std::deque<GaugeSlot> gauges_;
    std::deque<HistogramSlot> histograms_;
    std::map<std::string, std::pair<MetricKind, std::uint32_t>>
        byName_;
    /** Registration order, for deterministic exports. */
    std::vector<std::pair<MetricKind, std::uint32_t>> order_;
};

/** Render a double the way every obs exporter does (shortest form
 *  that round-trips, stable across runs). */
std::string formatMetricNumber(double value);

} // namespace obs
} // namespace vmt

#endif // VMT_OBS_METRICS_REGISTRY_H
