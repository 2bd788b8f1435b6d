/**
 * @file
 * Isolated thermal kernel throughput: Cluster::stepThermal (the
 * batched SoA kernel, rows `soa`) against the per-object reference
 * fleet from tests/reference/ (rows `scalar`) with no placement churn,
 * across fleet sizes x starting PCM regimes x dt, printed to stdout as
 * `kernel_micro` rows. The end-to-end runs bundle the thermal step
 * with placement and trace bookkeeping (perfbench's
 * `thermal.ns_per_server_step` is the end-to-end kernel yardstick);
 * this bench times the step itself.
 *
 * Scenarios pin the starting regime mix:
 *   solid    idle fleet, wax frozen (one long solid run)
 *   melting  loaded fleet warmed onto the latent plateau
 *   liquid   loaded fleet warmed until fully melted
 *   mixed    half loaded/melted, half idle/frozen (regime-run
 *            boundary mid-fleet, exercises the partitioner)
 * State evolves during timing (melting converges toward liquid);
 * both fleets time the identical trajectory, so the ratio is fair.
 *
 * Flags: --check             exit non-zero if SoA is slower than the
 *                            reference on the cluster1000 rows
 *        --threads and the shared bench flags (bench/common.h)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "reference/reference_fleet.h"
#include "server/cluster.h"
#include "util/flags.h"

using namespace vmt;

namespace {

constexpr Celsius kHotThreshold = 45.0;

struct Scenario
{
    const char *name;
    /** Fraction of servers loaded to full capacity (rest idle). */
    double loadedShare;
    /** Warm until the hottest server's melt fraction reaches this
     *  (0 = no warm-up beyond settling the air node). */
    double meltTarget;
};

constexpr Scenario kScenarios[] = {
    {"solid", 0.0, 0.0},
    {"melting", 1.0, 0.3},
    {"liquid", 1.0, 1.0},
    {"mixed", 0.5, 1.0},
};

/** Build a fleet (Cluster or the reference) and drive it into the
 *  scenario's starting regime. Deterministic: both fleets produce
 *  bitwise-identical state, so they time the same trajectory. */
template <typename Fleet>
std::unique_ptr<Fleet>
makeScenario(const Scenario &scenario, std::size_t servers, Seconds dt)
{
    const SimConfig config = vmt::bench::studyConfig(servers);
    auto cluster = std::make_unique<Fleet>(
        servers, config.spec, config.thermal,
        PowerModel(config.spec, config.powerScale));

    const auto loaded = static_cast<std::size_t>(
        scenario.loadedShare * static_cast<double>(servers));
    for (std::size_t id = 0; id < loaded; ++id)
        for (std::size_t c = 0; c < config.spec.cores(); ++c)
            cluster->addJob(id, WorkloadType::WebSearch);

    // Settle the air node, then (for warmed scenarios) melt the
    // loaded servers to the target fraction. Warm-up runs at the
    // measurement dt so per-dt caches are hot when timing starts.
    for (int i = 0; i < 30; ++i)
        cluster->stepThermal(dt, kHotThreshold);
    if (scenario.meltTarget > 0.0) {
        for (int i = 0; i < 20000; ++i) {
            if (std::as_const(*cluster).server(0).waxMeltFraction() >=
                scenario.meltTarget)
                break;
            cluster->stepThermal(dt, kHotThreshold);
        }
    }
    return cluster;
}

template <typename Fleet>
double
timeSteps(Fleet &cluster, Seconds dt, std::size_t reps)
{
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i)
        sink += cluster.stepThermal(dt, kHotThreshold).totalPower;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // Keep the accumulated samples observable so the loop cannot be
    // elided.
    static volatile double guard = 0.0;
    guard = guard + sink;
    return elapsed.count();
}

} // namespace

int
main(int argc, char **argv)
{
    vmt::bench::configureThreadsFromArgs(argc, argv);
    const Flags flags(argc, argv);
    const bool check = flags.getBool("check", false);

    const std::vector<std::size_t> fleet_sizes =
        check ? std::vector<std::size_t>{1000}
              : std::vector<std::size_t>{250, 1000};
    const std::vector<double> dts =
        check ? std::vector<double>{60.0}
              : std::vector<double>{60.0, 300.0};

    bool gate_ok = true;
    for (const Scenario &scenario : kScenarios) {
        for (const std::size_t servers : fleet_sizes) {
            for (const double dt : dts) {
                // Fixed rep count per point so both fleets time the
                // same number of identical steps.
                const std::size_t reps = std::max<std::size_t>(
                    200, 2000000 / servers);
                double scalar_rate = 0.0;
                const auto measure = [&](auto &fleet, const char *kernel) {
                    // Best of three: the minimum is the least
                    // noise-contaminated estimate of the true cost.
                    double seconds = timeSteps(fleet, dt, reps);
                    for (int rep = 0; rep < 2; ++rep)
                        seconds = std::min(seconds,
                                           timeSteps(fleet, dt, reps));
                    const double rate =
                        static_cast<double>(reps) / seconds;
                    if (scalar_rate == 0.0)
                        scalar_rate = rate;
                    std::printf(
                        "[kernel_micro] %-8s servers=%-5zu dt=%-4.0f "
                        "kernel=%-6s %8.2f us/step %10.0f steps/s  "
                        "speedup %.2fx\n",
                        scenario.name, servers, dt, kernel,
                        1e6 * seconds / static_cast<double>(reps), rate,
                        rate / scalar_rate);
                    std::fflush(stdout);
                    return rate;
                };
                measure(*makeScenario<reference::ReferenceFleet>(
                            scenario, servers, dt),
                        "scalar");
                const double soa_rate = measure(
                    *makeScenario<Cluster>(scenario, servers, dt), "soa");
                if (check && servers == 1000 && soa_rate < scalar_rate)
                    gate_ok = false;
            }
        }
    }

    if (check) {
        std::printf("[kernel_micro] perf gate: %s\n",
                    gate_ok ? "PASS (SoA >= reference on cluster1000)"
                            : "FAIL (SoA slower than the reference)");
        return gate_ok ? 0 : 1;
    }
    return 0;
}
