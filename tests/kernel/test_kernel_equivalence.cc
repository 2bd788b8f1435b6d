/**
 * @file
 * Thermal-kernel equivalence at the simulation level: the batched SoA
 * kernel must reproduce, bitwise, the SimResult series the per-object
 * scalar kernel produced — serially and on the chunked parallel path,
 * and under a scripted fault plan.
 *
 * The expected values are FNV-1a digests (tests/reference/digest.h)
 * of SimResults recorded by running the retired runtime-selectable
 * scalar thermal kernel (closed-form PCM integrator, per-object
 * placement engine, threads 1) on the configs below, before that
 * kernel was removed from src/. A digest match is a bitwise match of
 * every series and aggregate. The fault-plan digest was re-recorded
 * when the departure ring's evacuation rule (DESIGN.md §11) replaced
 * the per-job slot ledger; its series still match the earlier
 * recording through the first evacuation interval. The per-object
 * stepping itself lives on in tests/reference/ and is pinned step by
 * step by test_kernel_property.cc and test_kernel_cache.cc.
 *
 * The binary carries the ctest label "kernel" (run alone with
 * `ctest -L kernel`; CI also runs the label under ASan/UBSan and
 * TSan).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common.h"
#include "fault/fault_plan.h"
#include "reference/digest.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

SimConfig
studyRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    return config;
}

/** VMT-WA at GV 22 must reproduce `expected` at threads 1 and 4. */
void
expectDigestAtBothThreadCounts(const SimConfig &config,
                               std::uint64_t expected)
{
    ThreadCountGuard guard;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreadCount(threads);
        EXPECT_EQ(reference::digestResult(bench::runVmtWa(config, 22.0)),
                  expected);
    }
}

TEST(KernelEquivalence, MatchesScalarDigestsAtBothThreadCounts)
{
    // 80 servers stay on the serial loop at any thread count; 300
    // servers take the chunked parallel path at 4 threads (from 256,
    // with a partial last chunk).
    expectDigestAtBothThreadCounts(studyRun(80, 4.0),
                                   0x55f8568e789d143bull);
    expectDigestAtBothThreadCounts(studyRun(300, 3.0),
                                   0xce5d63363dd07ffeull);
}

TEST(KernelEquivalence, MatchesScalarUnderFaultPlan)
{
    SimConfig config = studyRun(60, 4.0);
    config.faults.enable = true;
    // Outages mid-melt, a repair, and a cooling derate: health
    // transitions (0 W draws, refreezing wax) and inlet shifts must
    // flow through the SoA arrays exactly as through the objects.
    config.faults.plan = FaultPlan({
        {3600.0, FaultEventType::ServerDown, 3, 0.0},
        {3600.0, FaultEventType::ServerDown, 17, 0.0},
        {5400.0, FaultEventType::CoolingDerate, 0, 1.5},
        {7200.0, FaultEventType::ServerUp, 3, 0.0},
        {9000.0, FaultEventType::CoolingRestore, 0, 0.0},
    });
    expectDigestAtBothThreadCounts(config, 0xb486bc70f5ef8383ull);
}

} // namespace
} // namespace vmt
