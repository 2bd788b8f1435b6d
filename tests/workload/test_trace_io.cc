/**
 * @file
 * Unit tests for trace CSV round-tripping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "reference/scratch_path.h"
#include "util/logging.h"
#include "workload/trace_io.h"

namespace vmt {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    // One file per test and process.
    std::string path_ = reference::scratchPath("out.csv");

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceIoTest, RoundTripPreservesSamples)
{
    TraceParams params;
    params.duration = 6.0;
    params.noiseStddev = 0.01;
    const DiurnalTrace original(params);
    saveTraceCsv(original, path_);

    const DiurnalTrace loaded = loadTraceCsv(path_);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_NEAR(loaded.sampleInterval(),
                original.sampleInterval(), 1e-6);
    for (std::size_t i = 0; i < original.size(); i += 7) {
        EXPECT_NEAR(loaded.utilization(i), original.utilization(i),
                    1e-9);
    }
}

TEST_F(TraceIoTest, LoadsHandAuthoredFile)
{
    {
        std::ofstream out(path_);
        out << "# operator trace\n";
        out << "hour,utilization\n";
        out << "0,0.5\n0.5,0.6\n1.0,0.7\n";
    }
    const DiurnalTrace trace = loadTraceCsv(path_);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_DOUBLE_EQ(trace.sampleInterval(), 1800.0);
    EXPECT_DOUBLE_EQ(trace.utilization(2), 0.7);
    EXPECT_DOUBLE_EQ(trace.peak(), 0.7);
    EXPECT_DOUBLE_EQ(trace.trough(), 0.5);
}

TEST_F(TraceIoTest, RejectsMalformedRows)
{
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,abc\n1,0.5\n";
    }
    EXPECT_THROW(loadTraceCsv(path_), FatalError);
}

TEST_F(TraceIoTest, RejectsOutOfRangeUtilizationNamingTheRow)
{
    {
        std::ofstream out(path_);
        out << "# comment line\n";
        out << "hour,utilization\n";
        out << "0,0.5\n0.5,1.5\n1.0,0.7\n";
    }
    // The bad sample sits on physical line 4 of the file.
    try {
        loadTraceCsv(path_);
        FAIL() << "accepted utilization 1.5";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(path_ + ":4"), std::string::npos) << what;
        EXPECT_NE(what.find("1.5"), std::string::npos) << what;
    }
}

TEST_F(TraceIoTest, RejectsNegativeAndNanUtilization)
{
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,-0.1\n0.5,0.5\n";
    }
    EXPECT_THROW(loadTraceCsv(path_), FatalError);
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,nan\n0.5,0.5\n";
    }
    EXPECT_THROW(loadTraceCsv(path_), FatalError);
}

TEST_F(TraceIoTest, AcceptsTheClosedUnitInterval)
{
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,0\n0.5,1\n1.0,1.0\n";
    }
    const DiurnalTrace trace = loadTraceCsv(path_);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_DOUBLE_EQ(trace.trough(), 0.0);
    EXPECT_DOUBLE_EQ(trace.peak(), 1.0);
}

TEST_F(TraceIoTest, RejectsNonUniformSampling)
{
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,0.5\n1,0.6\n3,0.7\n";
    }
    EXPECT_THROW(loadTraceCsv(path_), FatalError);
}

TEST_F(TraceIoTest, RejectsTooFewRows)
{
    {
        std::ofstream out(path_);
        out << "hour,utilization\n0,0.5\n";
    }
    EXPECT_THROW(loadTraceCsv(path_), FatalError);
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(loadTraceCsv("/nonexistent/trace.csv"), FatalError);
}

TEST(DiurnalTraceSamples, ValidatesExplicitSamples)
{
    EXPECT_THROW(DiurnalTrace({}, 60.0), FatalError);
    EXPECT_THROW(DiurnalTrace({0.5, 1.5}, 60.0), FatalError);
    EXPECT_THROW(DiurnalTrace({0.5, 0.6}, 0.0), FatalError);
}

TEST(DiurnalTraceSamples, WorksWithWorkloadSplit)
{
    const DiurnalTrace trace({0.4, 0.8}, 60.0);
    EXPECT_NEAR(trace.workloadUtilization(WorkloadType::WebSearch, 1),
                0.8 * 0.25, 1e-12);
}

} // namespace
} // namespace vmt
