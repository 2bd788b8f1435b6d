#include "obs/metrics_registry.h"

#include <algorithm>
#include <cstdio>

#include "state/serializer.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt::obs {

namespace {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

void
validateName(const std::string &name)
{
    if (name.empty())
        fatal("MetricsRegistry: empty metric name");
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            fatal("MetricsRegistry: invalid metric name '" + name +
                  "' (lowercase dotted [a-z0-9_.] only)");
    }
}

/** `sim.jobs.placed_total` -> `vmt_sim_jobs_placed_total`. */
std::string
prometheusName(const std::string &name)
{
    std::string out = "vmt_";
    for (const char c : name)
        out.push_back(c == '.' ? '_' : c);
    return out;
}

bool
isProfileMetric(const std::string &name)
{
    return name.rfind("profile.", 0) == 0;
}

/** Slots a snapshot carries: the deterministic (non-`profile.`) ones.
 *  Wall-clock phase timings stay out, so a build that adds or drops a
 *  phase still resumes an instrumented snapshot of the build before. */
template <typename Slots>
std::size_t
savedCount(const Slots &slots)
{
    return static_cast<std::size_t>(
        std::count_if(slots.begin(), slots.end(), [](const auto &slot) {
            return !isProfileMetric(slot.name);
        }));
}

} // namespace

std::string
formatMetricNumber(double value)
{
    // %.17g round-trips every double; trim to the shortest precision
    // that still parses back exactly so exports stay readable.
    char buf[64];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        double parsed = 0.0;
        std::sscanf(buf, "%lf", &parsed);
        if (parsed == value)
            break;
    }
    return buf;
}

void
MetricsRegistry::atomicAddDouble(std::atomic<double> &slot,
                                 double delta)
{
    double expected = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
}

std::uint32_t
MetricsRegistry::resolve(const std::string &name, MetricKind kind,
                         const std::string &help,
                         const std::vector<double> *bounds)
{
    validateName(name);
    std::lock_guard<std::mutex> lock(registerMutex_);
    const auto it = byName_.find(name);
    if (it != byName_.end()) {
        if (it->second.first != kind)
            fatal("MetricsRegistry: '" + name +
                  "' already registered as a " +
                  kindName(it->second.first) + ", requested " +
                  kindName(kind));
        if (kind == MetricKind::Histogram &&
            histograms_[it->second.second].bounds != *bounds)
            fatal("MetricsRegistry: histogram '" + name +
                  "' re-registered with different buckets");
        return it->second.second;
    }

    std::uint32_t index = 0;
    switch (kind) {
    case MetricKind::Counter:
        index = static_cast<std::uint32_t>(counters_.size());
        counters_.emplace_back();
        counters_.back().name = name;
        counters_.back().help = help;
        break;
    case MetricKind::Gauge:
        index = static_cast<std::uint32_t>(gauges_.size());
        gauges_.emplace_back();
        gauges_.back().name = name;
        gauges_.back().help = help;
        break;
    case MetricKind::Histogram: {
        if (bounds->empty())
            fatal("MetricsRegistry: histogram '" + name +
                  "' needs at least one bucket bound");
        for (std::size_t i = 1; i < bounds->size(); ++i)
            if (!((*bounds)[i - 1] < (*bounds)[i]))
                fatal("MetricsRegistry: histogram '" + name +
                      "' bounds must be strictly ascending");
        index = static_cast<std::uint32_t>(histograms_.size());
        histograms_.emplace_back();
        HistogramSlot &slot = histograms_.back();
        slot.name = name;
        slot.help = help;
        slot.bounds = *bounds;
        slot.buckets.resize(bounds->size() + 1);
        break;
    }
    }
    byName_.emplace(name, std::make_pair(kind, index));
    order_.emplace_back(kind, index);
    return index;
}

CounterHandle
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    return CounterHandle{
        resolve(name, MetricKind::Counter, help, nullptr)};
}

GaugeHandle
MetricsRegistry::gauge(const std::string &name,
                       const std::string &help)
{
    return GaugeHandle{resolve(name, MetricKind::Gauge, help, nullptr)};
}

HistogramHandle
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds,
                           const std::string &help)
{
    return HistogramHandle{
        resolve(name, MetricKind::Histogram, help, &bounds)};
}

void
MetricsRegistry::inc(CounterHandle h, std::uint64_t delta)
{
    if (h.index >= counters_.size())
        panic("MetricsRegistry::inc with an unregistered handle");
    counters_[h.index].value.fetch_add(delta,
                                       std::memory_order_relaxed);
}

void
MetricsRegistry::set(GaugeHandle h, double value)
{
    if (h.index >= gauges_.size())
        panic("MetricsRegistry::set with an unregistered handle");
    gauges_[h.index].value.store(value, std::memory_order_relaxed);
}

void
MetricsRegistry::add(GaugeHandle h, double delta)
{
    if (h.index >= gauges_.size())
        panic("MetricsRegistry::add with an unregistered handle");
    atomicAddDouble(gauges_[h.index].value, delta);
}

void
MetricsRegistry::observe(HistogramHandle h, double value)
{
    if (h.index >= histograms_.size())
        panic("MetricsRegistry::observe with an unregistered handle");
    HistogramSlot &slot = histograms_[h.index];
    // First bound >= value, Prometheus `le` semantics; past the last
    // bound lands in the overflow bucket.
    const auto it = std::lower_bound(slot.bounds.begin(),
                                     slot.bounds.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - slot.bounds.begin());
    slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(slot.sum, value);
}

std::uint64_t
MetricsRegistry::counterValue(CounterHandle h) const
{
    if (h.index >= counters_.size())
        panic("MetricsRegistry::counterValue: unregistered handle");
    return counters_[h.index].value.load(std::memory_order_relaxed);
}

double
MetricsRegistry::gaugeValue(GaugeHandle h) const
{
    if (h.index >= gauges_.size())
        panic("MetricsRegistry::gaugeValue: unregistered handle");
    return gauges_[h.index].value.load(std::memory_order_relaxed);
}

std::uint64_t
MetricsRegistry::histogramCount(HistogramHandle h) const
{
    if (h.index >= histograms_.size())
        panic("MetricsRegistry::histogramCount: unregistered handle");
    return histograms_[h.index].count.load(std::memory_order_relaxed);
}

double
MetricsRegistry::histogramSum(HistogramHandle h) const
{
    if (h.index >= histograms_.size())
        panic("MetricsRegistry::histogramSum: unregistered handle");
    return histograms_[h.index].sum.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t>
MetricsRegistry::histogramBuckets(HistogramHandle h) const
{
    if (h.index >= histograms_.size())
        panic("MetricsRegistry::histogramBuckets: unregistered handle");
    const HistogramSlot &slot = histograms_[h.index];
    std::vector<std::uint64_t> counts;
    counts.reserve(slot.buckets.size());
    for (const auto &bucket : slot.buckets)
        counts.push_back(bucket.load(std::memory_order_relaxed));
    return counts;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    return order_.size();
}

std::vector<MetricValue>
MetricsRegistry::snapshotValues(bool include_profile) const
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    std::vector<MetricValue> out;
    out.reserve(order_.size());
    for (const auto &[kind, index] : order_) {
        MetricValue value;
        value.kind = kind;
        switch (kind) {
        case MetricKind::Counter:
            value.name = counters_[index].name;
            value.values = {static_cast<double>(
                counters_[index].value.load(
                    std::memory_order_relaxed))};
            break;
        case MetricKind::Gauge:
            value.name = gauges_[index].name;
            value.values = {gauges_[index].value.load(
                std::memory_order_relaxed)};
            break;
        case MetricKind::Histogram: {
            const HistogramSlot &slot = histograms_[index];
            value.name = slot.name;
            for (const auto &bucket : slot.buckets)
                value.values.push_back(static_cast<double>(
                    bucket.load(std::memory_order_relaxed)));
            value.values.push_back(
                slot.sum.load(std::memory_order_relaxed));
            value.values.push_back(static_cast<double>(
                slot.count.load(std::memory_order_relaxed)));
            break;
        }
        }
        if (!include_profile && isProfileMetric(value.name))
            continue;
        out.push_back(std::move(value));
    }
    return out;
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    std::string out;
    for (const auto &[kind, index] : order_) {
        switch (kind) {
        case MetricKind::Counter: {
            const CounterSlot &slot = counters_[index];
            const std::string name = prometheusName(slot.name);
            if (!slot.help.empty())
                out += "# HELP " + name + " " + slot.help + "\n";
            out += "# TYPE " + name + " counter\n";
            out += name + " " +
                   std::to_string(slot.value.load(
                       std::memory_order_relaxed)) +
                   "\n";
            break;
        }
        case MetricKind::Gauge: {
            const GaugeSlot &slot = gauges_[index];
            const std::string name = prometheusName(slot.name);
            if (!slot.help.empty())
                out += "# HELP " + name + " " + slot.help + "\n";
            out += "# TYPE " + name + " gauge\n";
            out += name + " " +
                   formatMetricNumber(slot.value.load(
                       std::memory_order_relaxed)) +
                   "\n";
            break;
        }
        case MetricKind::Histogram: {
            const HistogramSlot &slot = histograms_[index];
            const std::string name = prometheusName(slot.name);
            if (!slot.help.empty())
                out += "# HELP " + name + " " + slot.help + "\n";
            out += "# TYPE " + name + " histogram\n";
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < slot.buckets.size(); ++i) {
                cumulative += slot.buckets[i].load(
                    std::memory_order_relaxed);
                const std::string le =
                    i < slot.bounds.size()
                        ? formatMetricNumber(slot.bounds[i])
                        : "+Inf";
                out += name + "_bucket{le=\"" + le + "\"} " +
                       std::to_string(cumulative) + "\n";
            }
            out += name + "_sum " +
                   formatMetricNumber(
                       slot.sum.load(std::memory_order_relaxed)) +
                   "\n";
            out += name + "_count " +
                   std::to_string(slot.count.load(
                       std::memory_order_relaxed)) +
                   "\n";
            break;
        }
        }
    }
    return out;
}

std::string
MetricsRegistry::renderCsv() const
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    std::string out = "metric,kind,value\n";
    const auto row = [&out](const std::string &name,
                            const char *kind,
                            const std::string &value) {
        out += name + "," + kind + "," + value + "\n";
    };
    for (const auto &[kind, index] : order_) {
        switch (kind) {
        case MetricKind::Counter:
            row(counters_[index].name, "counter",
                std::to_string(counters_[index].value.load(
                    std::memory_order_relaxed)));
            break;
        case MetricKind::Gauge:
            row(gauges_[index].name, "gauge",
                formatMetricNumber(gauges_[index].value.load(
                    std::memory_order_relaxed)));
            break;
        case MetricKind::Histogram: {
            const HistogramSlot &slot = histograms_[index];
            for (std::size_t i = 0; i < slot.buckets.size(); ++i) {
                const std::string le =
                    i < slot.bounds.size()
                        ? "le_" + formatMetricNumber(slot.bounds[i])
                        : "le_inf";
                row(slot.name + "." + le, "histogram",
                    std::to_string(slot.buckets[i].load(
                        std::memory_order_relaxed)));
            }
            row(slot.name + ".sum", "histogram",
                formatMetricNumber(
                    slot.sum.load(std::memory_order_relaxed)));
            row(slot.name + ".count", "histogram",
                std::to_string(
                    slot.count.load(std::memory_order_relaxed)));
            break;
        }
        }
    }
    return out;
}

void
MetricsRegistry::writePrometheus(const std::string &path) const
{
    const std::string body = renderPrometheus();
    try {
        atomicWriteFile(path, body.data(), body.size());
    } catch (const FatalError &) {
        fatal("MetricsRegistry: cannot write metrics to " + path);
    }
}

void
MetricsRegistry::writeCsv(const std::string &path) const
{
    const std::string body = renderCsv();
    try {
        atomicWriteFile(path, body.data(), body.size());
    } catch (const FatalError &) {
        fatal("MetricsRegistry: cannot write metrics to " + path);
    }
}

void
MetricsRegistry::saveState(Serializer &out) const
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    out.putSize(savedCount(counters_));
    for (const CounterSlot &slot : counters_)
        if (!isProfileMetric(slot.name))
            out.putU64(slot.value.load(std::memory_order_relaxed));
    out.putSize(savedCount(gauges_));
    for (const GaugeSlot &slot : gauges_)
        if (!isProfileMetric(slot.name))
            out.putDouble(slot.value.load(std::memory_order_relaxed));
    out.putSize(savedCount(histograms_));
    for (const HistogramSlot &slot : histograms_) {
        if (isProfileMetric(slot.name))
            continue;
        out.putSize(slot.buckets.size());
        for (const auto &bucket : slot.buckets)
            out.putU64(bucket.load(std::memory_order_relaxed));
        out.putDouble(slot.sum.load(std::memory_order_relaxed));
        out.putU64(slot.count.load(std::memory_order_relaxed));
    }
}

void
MetricsRegistry::loadState(Deserializer &in)
{
    std::lock_guard<std::mutex> lock(registerMutex_);
    const auto check = [](const char *what, std::size_t snap,
                          std::size_t now) {
        if (snap != now)
            fatal("snapshot metrics do not match the registered set (" +
                  std::string(what) + ": snapshot " +
                  std::to_string(snap) + ", run " +
                  std::to_string(now) + ")");
    };
    check("counters", in.getSize(), savedCount(counters_));
    for (CounterSlot &slot : counters_)
        if (!isProfileMetric(slot.name))
            slot.value.store(in.getU64(), std::memory_order_relaxed);
    check("gauges", in.getSize(), savedCount(gauges_));
    for (GaugeSlot &slot : gauges_)
        if (!isProfileMetric(slot.name))
            slot.value.store(in.getDouble(), std::memory_order_relaxed);
    check("histograms", in.getSize(), savedCount(histograms_));
    for (HistogramSlot &slot : histograms_) {
        if (isProfileMetric(slot.name))
            continue;
        check("histogram buckets", in.getSize(), slot.buckets.size());
        for (auto &bucket : slot.buckets)
            bucket.store(in.getU64(), std::memory_order_relaxed);
        slot.sum.store(in.getDouble(), std::memory_order_relaxed);
        slot.count.store(in.getU64(), std::memory_order_relaxed);
    }
}

} // namespace vmt::obs
