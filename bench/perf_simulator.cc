/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: PCM
 * stepping, scheduler placement throughput, and end-to-end simulated
 * hours per second at both study scales.
 *
 * Before the microbenchmarks run, a threads-scaling study times the
 * headline runs (the 1,000-server two-day cluster and the 8-cluster
 * datacenter) at 1/2/4/N threads, then a checkpoint study times the
 * cluster run at threads=1 with a snapshot every 1,000 intervals to
 * pin the checkpointing overhead,
 * a fault study times the same run with the fault engine enabled
 * on an empty plan vs disabled to pin the per-interval fault
 * bookkeeping overhead (budget: <= 3%), an observability study
 * times the same run with the obs layer detached vs attached
 * (metrics + profiler + telemetry all recording; budget: <= 3%).
 * All write into a machine-readable BENCH_sim.json so the perf
 * trajectory is tracked PR over PR.
 * Environment knobs:
 *   VMT_PERF_SCALING=0   skip the scaling and overhead studies
 *   VMT_PERF_HOURS=H     trace length for the studies (default 48)
 *   VMT_PERF_JSON=PATH   output path (default ./BENCH_sim.json)
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "obs/observability.h"
#include "sched/round_robin.h"
#include "sim/datacenter_sim.h"
#include "sim/simulation.h"
#include "state/sim_snapshot.h"
#include "reference/server_thermal.h"
#include "util/json_splice.h"
#include "util/thread_pool.h"

using namespace vmt;

namespace {

void
BM_PcmStep(benchmark::State &state)
{
    Pcm pcm(PcmParams{}, 22.0);
    double air = 30.0;
    for (auto _ : state) {
        air = air < 45.0 ? air + 0.01 : 30.0;
        benchmark::DoNotOptimize(pcm.step(air, 60.0));
    }
}
BENCHMARK(BM_PcmStep);

void
BM_ServerThermalStep(benchmark::State &state)
{
    ServerThermal thermal{ServerThermalParams{}};
    for (auto _ : state)
        benchmark::DoNotOptimize(thermal.step(420.0, 60.0));
}
BENCHMARK(BM_ServerThermalStep);

template <typename Sched>
void
placementLoop(benchmark::State &state)
{
    Cluster cluster(static_cast<std::size_t>(state.range(0)),
                    ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.77));
    Sched sched = [] {
        if constexpr (std::is_same_v<Sched, RoundRobinScheduler>)
            return RoundRobinScheduler{};
        else
            return Sched(VmtConfig{}, hotMaskFromPaper());
    }();
    sched.beginInterval(cluster, 0.0);
    Job job;
    job.type = WorkloadType::WebSearch;
    std::vector<std::pair<std::size_t, WorkloadType>> placed;
    for (auto _ : state) {
        const std::size_t id = sched.placeJob(cluster, job);
        if (id == kNoServer) {
            // Drain and refresh to keep measuring placements.
            state.PauseTiming();
            for (auto &[sid, type] : placed)
                cluster.removeJob(sid, type);
            placed.clear();
            sched.beginInterval(cluster, 0.0);
            state.ResumeTiming();
            continue;
        }
        cluster.addJob(id, job.type);
        placed.emplace_back(id, job.type);
    }
}

void
BM_PlaceJobRoundRobin(benchmark::State &state)
{
    placementLoop<RoundRobinScheduler>(state);
}
BENCHMARK(BM_PlaceJobRoundRobin)->Arg(100)->Arg(1000);

void
BM_PlaceJobVmtTa(benchmark::State &state)
{
    placementLoop<VmtTaScheduler>(state);
}
BENCHMARK(BM_PlaceJobVmtTa)->Arg(100)->Arg(1000);

void
BM_PlaceJobVmtWa(benchmark::State &state)
{
    placementLoop<VmtWaScheduler>(state);
}
BENCHMARK(BM_PlaceJobVmtWa)->Arg(100)->Arg(1000);

void
BM_FullSimulation(benchmark::State &state)
{
    SimConfig config = bench::studyConfig(
        static_cast<std::size_t>(state.range(0)));
    config.trace.duration = 12.0;
    for (auto _ : state) {
        VmtWaScheduler sched(bench::studyVmt(22.0),
                             hotMaskFromPaper());
        benchmark::DoNotOptimize(runSimulation(config, sched));
    }
    state.counters["sim_hours_per_s"] = benchmark::Counter(
        12.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSimulation)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

struct ScalingRow
{
    std::string name;
    std::size_t threads;
    double wallSeconds;
    double intervalsPerSec;
    double speedup;
};

double
wallSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/** 1/2/4/N-thread timings of one workload; serial run is first. */
void
scaleWorkload(const std::string &name, double sim_intervals,
              const std::vector<std::size_t> &thread_counts,
              const std::function<void()> &run,
              std::vector<ScalingRow> &rows)
{
    double serial_seconds = 0.0;
    for (const std::size_t threads : thread_counts) {
        setGlobalThreadCount(threads);
        const double seconds = wallSeconds(run);
        if (threads == 1)
            serial_seconds = seconds;
        rows.push_back({name, threads, seconds,
                        sim_intervals / seconds,
                        serial_seconds > 0.0
                            ? serial_seconds / seconds
                            : 1.0});
        std::printf("[scaling] %-18s threads=%zu  %7.2f s  "
                    "%9.0f intervals/s  speedup %.2fx\n",
                    name.c_str(), threads, seconds,
                    sim_intervals / seconds,
                    rows.back().speedup);
        std::fflush(stdout);
    }
    setGlobalThreadCount(0);
}

/** One single-thread timing of the headline run per checkpoint
 *  cadence (0 = checkpointing off). */
struct CheckpointRow
{
    std::size_t every;
    double wallSeconds;
    double intervalsPerSec;
    /** Wall-time increase over the every=0 baseline, percent. */
    double overheadPct;
};

/**
 * Checkpoint-overhead study: the 1,000-server headline run at
 * threads=1 with checkpointing off and with a snapshot every 1,000
 * completed intervals (the cadence the acceptance bar holds to <= 5%
 * overhead). Snapshots go to a scratch file that is removed after.
 */
void
runCheckpointStudy(double hours, std::vector<CheckpointRow> &rows)
{
    const std::string snap_path = "BENCH_ckpt.snap";
    setGlobalThreadCount(1);
    double baseline_seconds = 0.0;
    for (const std::size_t every : {std::size_t{0}, std::size_t{1000}}) {
        SimConfig config = bench::studyConfig(1000);
        config.trace.duration = hours;
        CheckpointOptions ckpt;
        ckpt.every = every;
        ckpt.path = snap_path;
        attachCheckpointing(config, ckpt);
        const double seconds = wallSeconds([&] {
            VmtWaScheduler sched(bench::studyVmt(22.0),
                                 hotMaskFromPaper());
            benchmark::DoNotOptimize(runSimulation(config, sched));
        });
        if (every == 0)
            baseline_seconds = seconds;
        const double overhead =
            baseline_seconds > 0.0
                ? 100.0 * (seconds - baseline_seconds) / baseline_seconds
                : 0.0;
        rows.push_back(
            {every, seconds, hours * 60.0 / seconds, overhead});
        std::printf("[checkpoint] cluster1000 threads=1 every=%-5zu "
                    "%7.2f s  %9.0f intervals/s  overhead %+.2f%%\n",
                    every, seconds, rows.back().intervalsPerSec,
                    overhead);
        std::fflush(stdout);
    }
    std::remove(snap_path.c_str());
    std::remove((snap_path + ".tmp").c_str());
    setGlobalThreadCount(0);
}

/** One single-thread timing of the headline run with the fault
 *  engine off or on (empty plan: pure bookkeeping overhead). */
struct FaultRow
{
    bool enabled;
    double wallSeconds;
    double intervalsPerSec;
    /** Wall-time increase over the disabled baseline, percent. */
    double overheadPct;
};

/**
 * Fault-layer overhead study: the 1,000-server headline run at
 * threads=1 with the fault layer disabled versus enabled with an
 * empty plan, no stochastic rates and no critical threshold — the
 * configuration where the engine runs every interval but changes
 * nothing. The acceptance budget for that bookkeeping is <= 3%.
 */
void
runFaultStudy(double hours, std::vector<FaultRow> &rows)
{
    setGlobalThreadCount(1);
    double baseline_seconds = 0.0;
    for (const bool enabled : {false, true}) {
        SimConfig config = bench::studyConfig(1000);
        config.trace.duration = hours;
        config.faults.enable = enabled;
        const double seconds = wallSeconds([&] {
            VmtWaScheduler sched(bench::studyVmt(22.0),
                                 hotMaskFromPaper());
            benchmark::DoNotOptimize(runSimulation(config, sched));
        });
        if (!enabled)
            baseline_seconds = seconds;
        const double overhead =
            baseline_seconds > 0.0
                ? 100.0 * (seconds - baseline_seconds) / baseline_seconds
                : 0.0;
        rows.push_back(
            {enabled, seconds, hours * 60.0 / seconds, overhead});
        std::printf("[fault] cluster1000 threads=1 engine=%-8s "
                    "%7.2f s  %9.0f intervals/s  overhead %+.2f%%\n",
                    enabled ? "empty" : "disabled", seconds,
                    rows.back().intervalsPerSec, overhead);
        std::fflush(stdout);
    }
    setGlobalThreadCount(0);
}

/** One single-thread timing of the headline run with observability
 *  detached or attached. */
struct ObsRow
{
    bool enabled;
    double wallSeconds;
    double intervalsPerSec;
    /** Wall-time increase over the detached baseline, percent. */
    double overheadPct;
};

/**
 * Observability-overhead study: the 1,000-server headline run at
 * threads=1 with SimConfig::obs null versus attached to a fresh
 * Observability — per interval that is ~15 metric updates, five
 * phase timers and one telemetry sample + JSONL event line, the
 * full recording cost without the (end-of-process) export I/O. The
 * acceptance budget is <= 3%; detached must be indistinguishable
 * from the pre-obs driver.
 */
void
runObsStudy(double hours, std::vector<ObsRow> &rows)
{
    setGlobalThreadCount(1);
    double baseline_seconds = 0.0;
    for (const bool enabled : {false, true}) {
        SimConfig config = bench::studyConfig(1000);
        config.trace.duration = hours;
        obs::Observability obs;
        if (enabled)
            config.obs = &obs;
        const double seconds = wallSeconds([&] {
            VmtWaScheduler sched(bench::studyVmt(22.0),
                                 hotMaskFromPaper());
            benchmark::DoNotOptimize(runSimulation(config, sched));
        });
        if (!enabled)
            baseline_seconds = seconds;
        const double overhead =
            baseline_seconds > 0.0
                ? 100.0 * (seconds - baseline_seconds) / baseline_seconds
                : 0.0;
        rows.push_back(
            {enabled, seconds, hours * 60.0 / seconds, overhead});
        std::printf("[obs] cluster1000 threads=1 obs=%-8s "
                    "%7.2f s  %9.0f intervals/s  overhead %+.2f%%\n",
                    enabled ? "attached" : "detached", seconds,
                    rows.back().intervalsPerSec, overhead);
        std::fflush(stdout);
    }
    setGlobalThreadCount(0);
}

void
writeScalingJson(const std::string &path, double hours,
                 const std::vector<ScalingRow> &rows,
                 const std::vector<CheckpointRow> &checkpoint,
                 const std::vector<FaultRow> &fault,
                 const std::vector<ObsRow> &obs)
{
    std::string doc;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        doc = buffer.str();
    }

    // Key-level splices replace this tool's previous rows in place
    // and leave the other perf tools' keys (kernel_micro,
    // placement_micro, serve, build) untouched.
    doc = spliceTopLevelJson(doc, "benchmark",
                             "\"vmt_parallel_scaling\"");
    // host_cpus qualifies the speedup column: on a one-core host the
    // expected speedup is ~1.0 at every thread count.
    doc = spliceTopLevelJson(doc, "host_cpus",
                             std::to_string(defaultThreadCount()));
    {
        std::ostringstream value;
        value << hours;
        doc = spliceTopLevelJson(doc, "trace_hours", value.str());
    }

    const auto splice_rows = [&doc](const std::string &key,
                                    const auto &items, auto &&emit) {
        std::ostringstream value;
        value << "[\n";
        for (std::size_t i = 0; i < items.size(); ++i) {
            value << "    ";
            emit(value, items[i]);
            value << (i + 1 < items.size() ? "," : "") << "\n";
        }
        value << "  ]";
        doc = spliceTopLevelJson(doc, key, value.str());
    };

    splice_rows("runs", rows,
                [](std::ostream &out, const ScalingRow &r) {
                    out << "{\"name\": \"" << r.name
                        << "\", \"threads\": " << r.threads
                        << ", \"wall_seconds\": " << r.wallSeconds
                        << ", \"intervals_per_sec\": "
                        << r.intervalsPerSec
                        << ", \"speedup\": " << r.speedup << "}";
                });
    splice_rows("checkpoint", checkpoint,
                [](std::ostream &out, const CheckpointRow &r) {
                    out << "{\"name\": \"cluster1000\", \"threads\": 1"
                        << ", \"every\": " << r.every
                        << ", \"wall_seconds\": " << r.wallSeconds
                        << ", \"intervals_per_sec\": "
                        << r.intervalsPerSec
                        << ", \"overhead_pct\": " << r.overheadPct
                        << "}";
                });
    splice_rows("fault", fault,
                [](std::ostream &out, const FaultRow &r) {
                    out << "{\"name\": \"cluster1000\", \"threads\": 1"
                        << ", \"engine\": \""
                        << (r.enabled ? "empty" : "disabled")
                        << "\", \"wall_seconds\": " << r.wallSeconds
                        << ", \"intervals_per_sec\": "
                        << r.intervalsPerSec
                        << ", \"overhead_pct\": " << r.overheadPct
                        << "}";
                });
    splice_rows("obs", obs,
                [](std::ostream &out, const ObsRow &r) {
                    out << "{\"name\": \"cluster1000\", \"threads\": 1"
                        << ", \"obs\": \""
                        << (r.enabled ? "attached" : "detached")
                        << "\", \"wall_seconds\": " << r.wallSeconds
                        << ", \"intervals_per_sec\": "
                        << r.intervalsPerSec
                        << ", \"overhead_pct\": " << r.overheadPct
                        << "}";
                });
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[scaling] cannot write %s\n",
                     path.c_str());
        return;
    }
    out << doc;
    std::printf("[scaling] wrote %s\n", path.c_str());
}

void
runScalingStudy()
{
    double hours = 48.0;
    if (const char *env = std::getenv("VMT_PERF_HOURS"))
        hours = std::atof(env);
    std::string json_path = "BENCH_sim.json";
    if (const char *env = std::getenv("VMT_PERF_JSON"))
        json_path = env;

    std::vector<std::size_t> thread_counts = {1, 2, 4};
    const std::size_t hw = defaultThreadCount();
    if (hw > 4)
        thread_counts.push_back(hw);

    std::vector<ScalingRow> rows;

    // Headline single-cluster run: 1,000 servers, two days. Scales
    // through the chunked thermal path only (placement stays serial).
    SimConfig cluster_cfg = bench::studyConfig(1000);
    cluster_cfg.trace.duration = hours;
    scaleWorkload(
        "cluster1000", hours * 60.0, thread_counts,
        [&] {
            VmtWaScheduler sched(bench::studyVmt(22.0),
                                 hotMaskFromPaper());
            benchmark::DoNotOptimize(
                runSimulation(cluster_cfg, sched));
        },
        rows);

    // 8-cluster datacenter run: embarrassingly parallel cluster
    // fan-out (the >= 3x at 4 threads acceptance target).
    DatacenterSimConfig dc_cfg;
    dc_cfg.numClusters = 8;
    dc_cfg.cluster = bench::studyConfig(100);
    dc_cfg.cluster.trace.duration = hours;
    scaleWorkload(
        "datacenter8x100", 8.0 * hours * 60.0, thread_counts,
        [&] {
            benchmark::DoNotOptimize(
                runDatacenter(dc_cfg, [](std::size_t) {
                    return std::make_unique<VmtWaScheduler>(
                        bench::studyVmt(22.0), hotMaskFromPaper());
                }));
        },
        rows);

    std::vector<CheckpointRow> checkpoint;
    runCheckpointStudy(hours, checkpoint);

    std::vector<FaultRow> fault;
    runFaultStudy(hours, fault);

    std::vector<ObsRow> obs_rows;
    runObsStudy(hours, obs_rows);

    writeScalingJson(json_path, hours, rows, checkpoint, fault,
                     obs_rows);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *scaling = std::getenv("VMT_PERF_SCALING");
    if (!scaling || std::string(scaling) != "0")
        runScalingStudy();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
