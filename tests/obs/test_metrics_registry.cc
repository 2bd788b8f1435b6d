/**
 * @file
 * MetricsRegistry unit tests: handle resolution and reuse, histogram
 * bucket edges (Prometheus `le` semantics), exports and the snapshot
 * value round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt::obs {
namespace {

TEST(MetricsRegistry, CountersGaugesAccumulate)
{
    MetricsRegistry registry;
    const CounterHandle c = registry.counter("test.events_total");
    const GaugeHandle g = registry.gauge("test.level");

    EXPECT_EQ(registry.counterValue(c), 0u);
    registry.inc(c);
    registry.inc(c, 4);
    EXPECT_EQ(registry.counterValue(c), 5u);

    registry.set(g, 2.5);
    EXPECT_EQ(registry.gaugeValue(g), 2.5);
    registry.add(g, 0.25);
    EXPECT_EQ(registry.gaugeValue(g), 2.75);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndReusesHandles)
{
    MetricsRegistry registry;
    const CounterHandle a = registry.counter("test.a_total");
    const CounterHandle b = registry.counter("test.a_total");
    EXPECT_EQ(a.index, b.index);
    registry.inc(a);
    registry.inc(b);
    EXPECT_EQ(registry.counterValue(a), 2u);

    const HistogramHandle h1 =
        registry.histogram("test.hist", {1.0, 2.0});
    const HistogramHandle h2 =
        registry.histogram("test.hist", {1.0, 2.0});
    EXPECT_EQ(h1.index, h2.index);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    MetricsRegistry registry;
    registry.counter("test.name");
    EXPECT_THROW(registry.gauge("test.name"), FatalError);
    EXPECT_THROW(registry.histogram("test.name", {1.0}), FatalError);
}

TEST(MetricsRegistry, HistogramBoundsMustMatchOnReuse)
{
    MetricsRegistry registry;
    registry.histogram("test.hist", {1.0, 2.0});
    EXPECT_THROW(registry.histogram("test.hist", {1.0, 3.0}),
                 FatalError);
}

TEST(MetricsRegistry, RejectsBadNamesAndBadBounds)
{
    MetricsRegistry registry;
    EXPECT_THROW(registry.counter(""), FatalError);
    EXPECT_THROW(registry.counter("Upper.Case"), FatalError);
    EXPECT_THROW(registry.counter("with space"), FatalError);
    EXPECT_THROW(registry.histogram("test.h", {}), FatalError);
    EXPECT_THROW(registry.histogram("test.h", {2.0, 1.0}),
                 FatalError);
    EXPECT_THROW(registry.histogram("test.h", {1.0, 1.0}),
                 FatalError);
}

TEST(MetricsRegistry, HistogramBucketEdgesUseLeSemantics)
{
    MetricsRegistry registry;
    const HistogramHandle h =
        registry.histogram("test.temp", {25.0, 30.0, 35.0});

    // A sample exactly on a bound belongs to that bound's bucket
    // (le = "less than or equal"), one past it to the next.
    registry.observe(h, 25.0);
    registry.observe(h, 25.000001);
    registry.observe(h, 24.0);
    registry.observe(h, 35.0);
    registry.observe(h, 35.1); // overflow bucket
    registry.observe(h, 1e9);  // overflow bucket

    const std::vector<std::uint64_t> buckets =
        registry.histogramBuckets(h);
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u); // 24.0, 25.0
    EXPECT_EQ(buckets[1], 1u); // 25.000001
    EXPECT_EQ(buckets[2], 1u); // 35.0
    EXPECT_EQ(buckets[3], 2u); // 35.1, 1e9
    EXPECT_EQ(registry.histogramCount(h), 6u);
    EXPECT_NEAR(registry.histogramSum(h),
                25.0 + 25.000001 + 24.0 + 35.0 + 35.1 + 1e9, 1.0);
}

TEST(MetricsRegistry, PrometheusRenderingIsCumulative)
{
    MetricsRegistry registry;
    const CounterHandle c =
        registry.counter("sim.jobs.placed_total", "Jobs placed");
    registry.inc(c, 7);
    const GaugeHandle g = registry.gauge("sim.level");
    registry.set(g, 1.5);
    const HistogramHandle h =
        registry.histogram("sim.temp", {25.0, 30.0});
    registry.observe(h, 20.0);
    registry.observe(h, 27.0);
    registry.observe(h, 99.0);

    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# HELP vmt_sim_jobs_placed_total Jobs "
                        "placed\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE vmt_sim_jobs_placed_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("vmt_sim_jobs_placed_total 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("vmt_sim_level 1.5\n"), std::string::npos);
    // le-labelled buckets are cumulative; +Inf equals the count.
    EXPECT_NE(text.find("vmt_sim_temp_bucket{le=\"25\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("vmt_sim_temp_bucket{le=\"30\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("vmt_sim_temp_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("vmt_sim_temp_count 3\n"), std::string::npos);
}

TEST(MetricsRegistry, CsvRenderingListsEveryMetric)
{
    MetricsRegistry registry;
    const CounterHandle c = registry.counter("test.c_total");
    registry.inc(c, 3);
    registry.set(registry.gauge("test.g"), 0.5);

    const std::string csv = registry.renderCsv();
    EXPECT_NE(csv.find("metric,kind,value\n"), std::string::npos);
    EXPECT_NE(csv.find("test.c_total,counter,3\n"),
              std::string::npos);
    EXPECT_NE(csv.find("test.g,gauge,0.5\n"), std::string::npos);
}

TEST(MetricsRegistry, SnapshotValuesFilterProfileNamespace)
{
    MetricsRegistry registry;
    registry.counter("sim.intervals_total");
    registry.gauge("profile.phase.thermal.seconds");

    EXPECT_EQ(registry.snapshotValues(true).size(), 2u);
    const std::vector<MetricValue> filtered =
        registry.snapshotValues(false);
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].name, "sim.intervals_total");
}

TEST(MetricsRegistry, SaveLoadRoundTripsValues)
{
    const auto register_all = [](MetricsRegistry &registry) {
        registry.counter("test.c_total");
        registry.gauge("test.g");
        registry.histogram("test.h", {1.0, 2.0});
    };

    MetricsRegistry source;
    source.inc(source.counter("profile.phase.dropped.calls"), 3);
    register_all(source);
    source.inc(source.counter("test.c_total"), 9);
    source.set(source.gauge("test.g"), -2.25);
    source.observe(source.histogram("test.h", {1.0, 2.0}), 1.5);
    source.observe(source.histogram("test.h", {1.0, 2.0}), 5.0);

    Serializer out;
    source.saveState(out);

    // Each side has a wall-clock phase the other lacks. profile.
    // metrics are not part of the saved state, so neither blocks the
    // load, and the resuming side's keeps its own value.
    MetricsRegistry restored;
    const GaugeHandle phase =
        restored.gauge("profile.phase.extra.seconds");
    restored.set(phase, 0.5);
    register_all(restored);
    Deserializer in(out.bytes());
    restored.loadState(in);
    EXPECT_EQ(restored.gaugeValue(phase), 0.5);

    const std::vector<MetricValue> a = source.snapshotValues(false);
    const std::vector<MetricValue> b = restored.snapshotValues(false);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].values, b[i].values);
    }
}

TEST(MetricsRegistry, LoadRejectsShapeMismatch)
{
    MetricsRegistry source;
    source.counter("test.a_total");
    Serializer out;
    source.saveState(out);

    MetricsRegistry other;
    other.counter("test.a_total");
    other.counter("test.b_total");
    Deserializer in(out.bytes());
    EXPECT_THROW(other.loadState(in), FatalError);
}

TEST(MetricsRegistry, WriteFailuresNameTheDestinationPath)
{
    MetricsRegistry registry;
    registry.counter("test.c_total");
    const std::string bad =
        testing::TempDir() + "no-such-dir-vmt/metrics.prom";
    try {
        registry.writePrometheus(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(bad),
                  std::string::npos);
    }
    try {
        registry.writeCsv(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(bad),
                  std::string::npos);
    }
}

TEST(MetricsRegistry, FormatMetricNumberRoundTrips)
{
    EXPECT_EQ(formatMetricNumber(0.0), "0");
    EXPECT_EQ(formatMetricNumber(1000.0), "1000");
    EXPECT_EQ(formatMetricNumber(0.5), "0.5");
    // 1/3 has no short decimal form; the formatter must still emit
    // one that parses back to the exact same double.
    const std::string third = formatMetricNumber(1.0 / 3.0);
    EXPECT_EQ(std::stod(third), 1.0 / 3.0);
}

} // namespace
} // namespace vmt::obs
