/**
 * @file
 * Crash-resilient sweep manifest: completed points survive a restart,
 * a manifest from a different sweep shape is rejected, and the
 * SweepRunner integration serves recorded points instead of
 * recomputing them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "reference/scratch_path.h"
#include "state/sweep_manifest.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

std::string
tempManifestPath(const char *name)
{
    const std::string path = reference::scratchPath(name);
    std::remove(path.c_str());
    return path;
}

TEST(SweepManifest, StartsEmptyAndRecordsPoints)
{
    const std::string path =
        tempManifestPath("vmt_manifest_basic.snap");
    SweepManifest manifest(path, 4, sizeof(double));
    EXPECT_EQ(manifest.completedCount(), 0u);
    EXPECT_EQ(manifest.completed(2), nullptr);

    const double value = 3.25;
    manifest.record(2, &value, sizeof(value));
    ASSERT_NE(manifest.completed(2), nullptr);
    double back = 0.0;
    std::memcpy(&back, manifest.completed(2)->data(), sizeof(back));
    EXPECT_EQ(back, 3.25);
    std::remove(path.c_str());
}

TEST(SweepManifest, CompletedPointsSurviveReopen)
{
    const std::string path =
        tempManifestPath("vmt_manifest_reopen.snap");
    const double values[2] = {1.5, -2.75};
    {
        SweepManifest manifest(path, 8, sizeof(double));
        manifest.record(1, &values[0], sizeof(double));
        manifest.record(6, &values[1], sizeof(double));
    }
    SweepManifest reopened(path, 8, sizeof(double));
    EXPECT_EQ(reopened.completedCount(), 2u);
    EXPECT_EQ(reopened.completed(0), nullptr);
    double back = 0.0;
    ASSERT_NE(reopened.completed(1), nullptr);
    std::memcpy(&back, reopened.completed(1)->data(), sizeof(back));
    EXPECT_EQ(back, 1.5);
    ASSERT_NE(reopened.completed(6), nullptr);
    std::memcpy(&back, reopened.completed(6)->data(), sizeof(back));
    EXPECT_EQ(back, -2.75);
    std::remove(path.c_str());
}

TEST(SweepManifest, RejectsDifferentSweepShape)
{
    const std::string path =
        tempManifestPath("vmt_manifest_shape.snap");
    const double value = 1.0;
    {
        SweepManifest manifest(path, 8, sizeof(double));
        manifest.record(0, &value, sizeof(double));
    }
    EXPECT_THROW(SweepManifest(path, 9, sizeof(double)), FatalError);
    EXPECT_THROW(SweepManifest(path, 8, sizeof(float)), FatalError);
    std::remove(path.c_str());
}

TEST(SweepManifest, RecordValidatesIndexAndSize)
{
    const std::string path =
        tempManifestPath("vmt_manifest_validate.snap");
    SweepManifest manifest(path, 2, sizeof(double));
    const double value = 1.0;
    EXPECT_THROW(manifest.record(2, &value, sizeof(double)),
                 FatalError);
    EXPECT_THROW(manifest.record(0, &value, sizeof(float)),
                 FatalError);
    std::remove(path.c_str());
}

TEST(SweepManifest, NextPathIsDistinctPerSweep)
{
    const std::string a = nextSweepManifestPath("base");
    const std::string b = nextSweepManifestPath("base");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.rfind("base.", 0), 0u);
}

/**
 * The ordinal counter behind nextSweepManifestPath is process-global,
 * so a test cannot assume which suffix a sweep will draw. Probe by
 * consuming one ordinal: the next call — the one inside
 * SweepRunner::map — returns the probe's ordinal + 1.
 */
std::string
pathOfNextRunnerSweep(const std::string &base)
{
    const std::string probe = nextSweepManifestPath(base);
    const unsigned long ordinal =
        std::stoul(probe.substr(base.size() + 1));
    return base + "." + std::to_string(ordinal + 1);
}

TEST(SweepRunnerManifest, RecordsPointsAndServesThemOnRerun)
{
    const std::string base =
        tempManifestPath("vmt_runner_manifest.snap");
    std::atomic<int> calls{0};
    const auto fn = [&](std::size_t i) {
        ++calls;
        return static_cast<double>(i) * 1.5;
    };

    // First sweep: no manifest on disk, everything computes, and the
    // completed points land in this file.
    const std::string first_file = pathOfNextRunnerSweep(base);
    bench::SweepRunner runner(globalPool(), base);
    const std::vector<double> run1 = runner.map<double>(5, fn);
    EXPECT_EQ(calls.load(), 5);
    ASSERT_EQ(run1.size(), 5u);
    EXPECT_EQ(run1[3], 4.5);
    EXPECT_EQ(SweepManifest(first_file, 5, sizeof(double))
                  .completedCount(),
              5u);

    // Simulate the crashed-and-rerun bench: copy the completed file
    // to the path the next sweep will open, then sweep again —
    // nothing may recompute.
    const std::string second_file = pathOfNextRunnerSweep(base);
    {
        const SweepManifest recorded(first_file, 5, sizeof(double));
        SweepManifest seed(second_file, 5, sizeof(double));
        for (std::size_t i = 0; i < 5; ++i)
            seed.record(i, recorded.completed(i)->data(),
                        sizeof(double));
    }
    calls = 0;
    const std::vector<double> run2 = runner.map<double>(5, fn);
    EXPECT_EQ(calls.load(), 0) << "recorded points were recomputed";
    EXPECT_EQ(run2, run1);

    std::remove(first_file.c_str());
    std::remove(second_file.c_str());
}

TEST(SweepRunnerManifest, PartialManifestRecomputesOnlyMissing)
{
    const std::string base =
        tempManifestPath("vmt_runner_partial.snap");
    // Pre-record points 0 and 3 of 4 into the file the next sweep
    // will open; only points 1 and 2 may compute.
    const std::string file = pathOfNextRunnerSweep(base);
    const double p0 = 0.0, p3 = 7.5;
    {
        SweepManifest seed(file, 4, sizeof(double));
        seed.record(0, &p0, sizeof(double));
        seed.record(3, &p3, sizeof(double));
    }
    std::atomic<int> calls{0};
    bench::SweepRunner runner(globalPool(), base);
    const std::vector<double> results =
        runner.map<double>(4, [&](std::size_t i) {
            ++calls;
            return static_cast<double>(i) * 2.5;
        });
    EXPECT_EQ(calls.load(), 2);
    const std::vector<double> expected = {0.0, 2.5, 5.0, 7.5};
    EXPECT_EQ(results, expected);
    EXPECT_EQ(SweepManifest(file, 4, sizeof(double)).completedCount(),
              4u);
    std::remove(file.c_str());
}

TEST(SweepRunnerManifest, ShapeMismatchIsFatalNotSilent)
{
    const std::string base =
        tempManifestPath("vmt_runner_badshape.snap");
    const std::string file = pathOfNextRunnerSweep(base);
    const double value = 1.0;
    {
        SweepManifest seed(file, 3, sizeof(double));
        seed.record(0, &value, sizeof(double));
    }
    bench::SweepRunner runner(globalPool(), base);
    EXPECT_THROW(runner.map<double>(
                     4, [](std::size_t i) {
                         return static_cast<double>(i);
                     }),
                 FatalError);
    std::remove(file.c_str());
}

} // namespace
} // namespace vmt
