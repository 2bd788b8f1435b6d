/**
 * @file
 * RunTelemetry unit tests: series recording, the JSONL event schema
 * (pinned by a golden fixture), export error paths, and the snapshot
 * round-trip / zero-pad resume fallback.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/run_telemetry.h"
#include "reference/scratch_path.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/units.h"

namespace vmt::obs {
namespace {

IntervalSample
sampleAt(std::size_t interval, double cooling, double max_temp,
         double melt, std::uint64_t evacuated, std::uint64_t lost)
{
    IntervalSample sample;
    sample.interval = interval;
    sample.coolingLoad = cooling;
    sample.maxAirTemp = max_temp;
    sample.meanAirTemp = 35.25;
    sample.hotGroupSize = 20.0;
    sample.meltFraction = melt;
    sample.evacuatedJobs = evacuated;
    sample.lostJobs = lost;
    return sample;
}

/** The three-interval run the golden fixture pins. */
void
recordGoldenRun(RunTelemetry &telemetry)
{
    telemetry.beginRun("wa", 100, 3, kHour);
    telemetry.record(sampleAt(0, 1000.0, 40.5, 0.5, 0, 0));
    telemetry.record(sampleAt(1, 1001.5, 41.0, 0.625, 1, 0));
    telemetry.record(sampleAt(2, 1002.25, 40.0, 0.75, 2, 1));

    MetricsRegistry registry;
    registry.inc(registry.counter("sim.jobs.placed_total"), 3);
    const HistogramHandle h =
        registry.histogram("sim.air_temp", {1.0, 2.0});
    registry.observe(h, 0.5);
    registry.observe(h, 1.5);
    registry.observe(h, 2.0);
    telemetry.endRun(registry.snapshotValues(false));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(RunTelemetry, RecordAppendsEverySeries)
{
    RunTelemetry telemetry;
    telemetry.beginRun("rr", 10, 2, kHour);
    telemetry.record(sampleAt(0, 500.0, 30.0, 0.1, 0, 0));
    telemetry.record(sampleAt(1, 600.0, 31.0, 0.2, 2, 1));

    EXPECT_EQ(telemetry.intervalsRecorded(), 2u);
    EXPECT_DOUBLE_EQ(telemetry.coolingLoad().at(1), 600.0);
    EXPECT_DOUBLE_EQ(telemetry.maxAirTemp().at(0), 30.0);
    EXPECT_DOUBLE_EQ(telemetry.meanAirTemp().at(1), 35.25);
    EXPECT_DOUBLE_EQ(telemetry.hotGroupSize().at(0), 20.0);
    EXPECT_DOUBLE_EQ(telemetry.meltFraction().at(1), 0.2);
    EXPECT_DOUBLE_EQ(telemetry.evacuatedJobs().at(1), 2.0);
    EXPECT_DOUBLE_EQ(telemetry.lostJobs().at(1), 1.0);
    EXPECT_DOUBLE_EQ(telemetry.coolingLoad().period(), kHour);
}

TEST(RunTelemetry, BeginRunResetsSeriesButKeepsEventLog)
{
    RunTelemetry telemetry;
    telemetry.beginRun("rr", 10, 1, kHour);
    telemetry.record(sampleAt(0, 500.0, 30.0, 0.1, 0, 0));
    const std::string first_log = telemetry.eventLog();

    telemetry.beginRun("wa", 10, 1, kHour);
    EXPECT_EQ(telemetry.intervalsRecorded(), 0u);
    // The log is a stream: the first run's lines stay, the new run
    // header is appended.
    EXPECT_EQ(telemetry.eventLog().rfind(first_log, 0), 0u);
    EXPECT_NE(telemetry.eventLog().find("\"scheduler\":\"wa\""),
              std::string::npos);
}

TEST(RunTelemetry, EventLogMatchesGoldenFixture)
{
    RunTelemetry telemetry;
    recordGoldenRun(telemetry);
    const std::string golden = readFile(
        std::string(VMT_TEST_DATA_DIR) + "/trace_events_golden.jsonl");
    EXPECT_EQ(telemetry.eventLog(), golden);
}

TEST(RunTelemetry, WriteJsonlRoundTripsThroughDisk)
{
    RunTelemetry telemetry;
    recordGoldenRun(telemetry);
    const std::string path =
        reference::scratchPath("trace_events.jsonl");
    telemetry.writeJsonl(path);
    EXPECT_EQ(readFile(path), telemetry.eventLog());
    std::remove(path.c_str());
}

TEST(RunTelemetry, WriteJsonlFailureNamesThePath)
{
    RunTelemetry telemetry;
    telemetry.beginRun("rr", 1, 1, kHour);
    const std::string bad =
        testing::TempDir() + "no-such-dir-vmt/trace.jsonl";
    try {
        telemetry.writeJsonl(bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(bad),
                  std::string::npos);
    }
}

TEST(RunTelemetry, SaveLoadRoundTripsSeriesAndLog)
{
    RunTelemetry source;
    source.beginRun("wa", 10, 3, kHour);
    source.record(sampleAt(0, 1000.0, 40.5, 0.5, 0, 0));
    source.record(sampleAt(1, 1001.5, 41.0, 0.625, 1, 0));

    Serializer out;
    source.saveState(out);

    RunTelemetry restored;
    Deserializer in(out.bytes());
    restored.loadState(in, 2);

    EXPECT_EQ(restored.eventLog(), source.eventLog());
    ASSERT_EQ(restored.intervalsRecorded(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(restored.coolingLoad().at(i),
                  source.coolingLoad().at(i));
        EXPECT_EQ(restored.maxAirTemp().at(i),
                  source.maxAirTemp().at(i));
        EXPECT_EQ(restored.evacuatedJobs().at(i),
                  source.evacuatedJobs().at(i));
    }
    EXPECT_DOUBLE_EQ(restored.coolingLoad().period(), kHour);
}

TEST(RunTelemetry, LoadRejectsSampleCountMismatch)
{
    RunTelemetry source;
    source.beginRun("wa", 10, 3, kHour);
    source.record(sampleAt(0, 1000.0, 40.5, 0.5, 0, 0));

    Serializer out;
    source.saveState(out);

    RunTelemetry restored;
    Deserializer in(out.bytes());
    EXPECT_THROW(restored.loadState(in, 2), FatalError);
}

TEST(RunTelemetry, PadMissingZeroFillsThePrefix)
{
    RunTelemetry telemetry;
    telemetry.beginRun("wa", 10, 5, kHour);
    telemetry.padMissing(3);

    ASSERT_EQ(telemetry.intervalsRecorded(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(telemetry.coolingLoad().at(i), 0.0);
        EXPECT_EQ(telemetry.lostJobs().at(i), 0.0);
    }
    // Recording continues at the right interval index afterwards.
    telemetry.record(sampleAt(3, 900.0, 39.0, 0.3, 0, 0));
    EXPECT_EQ(telemetry.intervalsRecorded(), 4u);
    EXPECT_DOUBLE_EQ(telemetry.coolingLoad().at(3), 900.0);
}

} // namespace
} // namespace vmt::obs
