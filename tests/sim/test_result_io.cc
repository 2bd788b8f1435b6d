/**
 * @file
 * Unit tests for simulation-result CSV export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "reference/scratch_path.h"
#include "sched/round_robin.h"
#include "sim/result_io.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {
namespace {

class ResultIoTest : public ::testing::Test
{
  protected:
    // One file per test and process.
    std::string path_ = reference::scratchPath("out.csv");

    void TearDown() override { std::remove(path_.c_str()); }

    static SimResult
    shortRun(bool heatmaps = false)
    {
        SimConfig config;
        config.numServers = 5;
        config.trace.duration = 1.0;
        config.recordHeatmaps = heatmaps;
        RoundRobinScheduler rr;
        return runSimulation(config, rr);
    }

    std::size_t
    lineCount() const
    {
        std::ifstream in(path_);
        std::string line;
        std::size_t n = 0;
        while (std::getline(in, line))
            ++n;
        return n;
    }
};

TEST_F(ResultIoTest, WritesHeaderPlusOneRowPerInterval)
{
    const SimResult r = shortRun();
    saveResultCsv(r, path_);
    EXPECT_EQ(lineCount(), 1u + r.coolingLoad.size());
    std::ifstream in(path_);
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("cooling_load_w"), std::string::npos);
    EXPECT_NE(header.find("inlet_temp_c"), std::string::npos);
}

TEST_F(ResultIoTest, HeatmapCsvHasOneRowPerServer)
{
    const SimResult r = shortRun(true);
    saveHeatmapCsv(r, "airtemp", path_);
    EXPECT_EQ(lineCount(), 5u);
    saveHeatmapCsv(r, "melt", path_);
    EXPECT_EQ(lineCount(), 5u);
}

TEST_F(ResultIoTest, HeatmapRequiresRecording)
{
    const SimResult r = shortRun(false);
    EXPECT_THROW(saveHeatmapCsv(r, "airtemp", path_), FatalError);
}

TEST_F(ResultIoTest, HeatmapRejectsUnknownName)
{
    const SimResult r = shortRun(true);
    EXPECT_THROW(saveHeatmapCsv(r, "bogus", path_), FatalError);
}

TEST_F(ResultIoTest, SaveIsAtomicAndLeavesNoTempFile)
{
    const SimResult r = shortRun(true);
    saveResultCsv(r, path_);
    EXPECT_FALSE(std::ifstream(atomicTempPath(path_)).good());
    // Overwriting an existing file also goes through the temp path.
    saveResultCsv(r, path_);
    EXPECT_FALSE(std::ifstream(atomicTempPath(path_)).good());
    saveHeatmapCsv(r, "melt", path_);
    EXPECT_FALSE(std::ifstream(atomicTempPath(path_)).good());
}

TEST(ResultIo, UnwritablePathIsFatal)
{
    SimResult r;
    EXPECT_THROW(saveResultCsv(r, "/nonexistent/x.csv"), FatalError);
    // The failed save must not leave a stray temp file either.
    EXPECT_FALSE(
        std::ifstream(atomicTempPath("/nonexistent/x.csv")).good());
}

TEST(ResultIo, UnwritableHeatmapPathIsFatal)
{
    SimResult r;
    r.airTempMap.emplace(2, 2);
    EXPECT_THROW(saveHeatmapCsv(r, "airtemp", "/nonexistent/x.csv"),
                 FatalError);
}

} // namespace
} // namespace vmt
