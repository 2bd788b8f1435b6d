/**
 * @file
 * vmtsim — command-line front-end to the VMT scale-out simulator.
 *
 * Commands:
 *   run      simulate one policy and print a summary
 *   compare  run every policy on the same trace, print reductions
 *   sweep    sweep the grouping value for one policy
 *   tune     golden-section search for the best GV on a forecast
 *   trace    generate the study trace (--out FILE), or analyze an
 *            existing one (--analyze with --trace FILE)
 *
 * Common flags:
 *   --servers N          cluster size               (default 100)
 *   --hours H            trace length               (default 48)
 *   --seed X             run seed                   (default 7)
 *   --threads N          worker threads; 0 = auto from VMT_THREADS
 *                        or hardware concurrency    (default 0)
 *   --inlet-stddev S     inlet variation sigma in K (default 0)
 *   --cooling-capacity W cooling plant capacity in watts (0 = inf)
 *   --trace FILE         load utilization trace CSV (hour,utilization)
 *   --fault-plan FILE    scripted fault events (see docs: lines of
 *                        "<hours> server-down <id>" / "server-up <id>"
 *                        / "cooling-derate <K>" / "cooling-restore")
 *   --fault-seed X       seed of the fault layer's private Rng
 *                        (default 1)
 *   --fault-mtbf H       stochastic failures: MTBF in hours at the
 *                        reference temperature (0 = off, default)
 *   --fault-repair H     stochastic-failure repair time in hours
 *                        (default 4)
 *   --critical-temp C    thermal-emergency threshold in Celsius; a
 *                        server at or above it stops taking new jobs
 *                        until it cools off (0 = off, default)
 *   --metrics-out PATH   write end-of-run metrics: Prometheus text at
 *                        PATH, CSV at PATH.csv (default from
 *                        VMT_METRICS_OUT, else off)
 *   --trace-events PATH  write the JSONL run/interval/summary event
 *                        stream (default from VMT_TRACE_EVENTS, else
 *                        off)
 *
 * run flags:
 *   --policy P           rr | cf | ta | wa | preserve | adaptive
 *                        (default wa)
 *   --gv G               grouping value              (default 22)
 *   --threshold T        wax threshold               (default 0.98)
 *   --out FILE           write per-interval series CSV
 *   --heatmaps PREFIX    write PREFIX_airtemp.csv / PREFIX_melt.csv
 *   --checkpoint-every N snapshot every N completed intervals
 *                        (default from VMT_CHECKPOINT_EVERY, else off)
 *   --checkpoint-path F  snapshot file (default VMT_CHECKPOINT_PATH,
 *                        else vmt.ckpt)
 *   --resume-from F      resume from a snapshot written by an earlier
 *                        run with the same configuration (default
 *                        from VMT_CHECKPOINT_RESUME)
 *
 * sweep flags: --policy, --gv-from, --gv-to, --gv-step
 * trace flags: --out FILE
 *
 * Examples:
 *   vmtsim compare --servers 1000
 *   vmtsim run --policy wa --gv 22 --out series.csv
 *   vmtsim sweep --policy ta --gv-from 16 --gv-to 28 --gv-step 1
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "cli_common.h"
#include "core/policy_factory.h"
#include "core/gv_tuner.h"
#include "sched/round_robin.h"
#include "sim/result_io.h"
#include "sim/simulation.h"
#include "state/sim_snapshot.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/trace_io.h"
#include "workload/trace_stats.h"

using namespace vmt;

namespace {

constexpr const char *kTool = "vmtsim";

SimConfig
configFromFlags(const Flags &flags)
{
    SimConfig config;
    config.numServers = static_cast<std::size_t>(
        flags.getInt("servers", 100));
    config.trace.duration = flags.getDouble("hours", 48.0);
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 7));
    config.inletStddev = flags.getDouble("inlet-stddev", 0.0);
    config.coolingCapacity =
        flags.getDouble("cooling-capacity", 0.0);
    if (flags.has("trace")) {
        const DiurnalTrace loaded =
            loadTraceCsv(flags.getString("trace"));
        if (std::abs(loaded.sampleInterval() - config.interval) >
            1e-6)
            fatal("trace sampling interval must be one minute");
        config.traceSamples = std::vector<double>();
        config.traceSamples.reserve(loaded.size());
        for (std::size_t i = 0; i < loaded.size(); ++i)
            config.traceSamples.push_back(loaded.utilization(i));
    }
    cli::readFaultFlags(flags, config.faults);
    // Every simulation this process runs shares the global
    // observability bundle; main() exports it once at the end.
    if (cli::obsOptionsFromFlags(flags).enabled())
        config.obs = &obs::globalObservability();
    return config;
}

void
printSummary(const SimResult &r)
{
    std::printf("policy            %s\n", r.schedulerName.c_str());
    std::printf("peak cooling load %.1f kW\n",
                r.peakCoolingLoad / 1e3);
    std::printf("peak power        %.1f kW\n", r.peakPower / 1e3);
    std::printf("max mean melt     %.1f %%\n",
                r.maxMeltFraction * 100.0);
    std::printf("max air temp      %.1f C\n", r.maxAirTemp);
    std::printf("peak inlet        %.2f C\n", r.inletTemp.peak());
    std::printf("jobs placed       %llu (dropped %llu)\n",
                static_cast<unsigned long long>(r.placedJobs),
                static_cast<unsigned long long>(r.droppedJobs));
    // Fault telemetry prints only when the run saw degraded modes,
    // keeping clean-run output unchanged.
    if (!r.aliveServers.empty() &&
        (r.evacuatedJobs > 0 || r.lostJobs > 0 ||
         r.criticalServerIntervals > 0 ||
         r.aliveServers.trough() < r.aliveServers.peak())) {
        std::printf("min alive servers %.0f\n",
                    r.aliveServers.trough());
        std::printf("jobs evacuated    %llu (lost %llu)\n",
                    static_cast<unsigned long long>(r.evacuatedJobs),
                    static_cast<unsigned long long>(r.lostJobs));
        std::printf("critical srv-min  %llu\n",
                    static_cast<unsigned long long>(
                        r.criticalServerIntervals));
    }
}

int
cmdRun(const Flags &flags)
{
    SimConfig config = configFromFlags(flags);
    config.recordHeatmaps = flags.has("heatmaps");
    const std::string heatmaps = flags.getString("heatmaps", "");
    const std::string out = flags.getString("out", "");

    // Environment supplies the defaults; explicit flags win.
    CheckpointOptions ckpt = checkpointOptionsFromEnv();
    if (flags.has("checkpoint-every"))
        ckpt.every =
            cli::countFlag(flags, "checkpoint-every", 0, 0, ">= 0");
    if (flags.has("checkpoint-path"))
        ckpt.path = flags.getString("checkpoint-path");
    if (flags.has("resume-from"))
        ckpt.resumeFrom = flags.getString("resume-from");
    attachCheckpointing(config, ckpt);

    auto sched = makeScheduler(flags.getString("policy", "wa"),
                            flags.getDouble("gv", 22.0),
                            flags.getDouble("threshold", 0.98));
    const SimResult result = runSimulation(config, *sched);
    printSummary(result);

    if (!out.empty()) {
        saveResultCsv(result, out);
        std::printf("series written    %s\n", out.c_str());
    }
    if (!heatmaps.empty()) {
        saveHeatmapCsv(result, "airtemp", heatmaps + "_airtemp.csv");
        saveHeatmapCsv(result, "melt", heatmaps + "_melt.csv");
        std::printf("heatmaps written  %s_{airtemp,melt}.csv\n",
                    heatmaps.c_str());
    }
    return 0;
}

int
cmdCompare(const Flags &flags)
{
    const SimConfig config = configFromFlags(flags);
    const double gv = flags.getDouble("gv", 22.0);
    const double threshold = flags.getDouble("threshold", 0.98);

    RoundRobinScheduler rr;
    const SimResult base = runSimulation(config, rr);

    Table table("Policy comparison (" +
                std::to_string(config.numServers) + " servers)");
    table.setHeader({"Policy", "Peak (kW)", "Reduction (%)",
                     "Max melt (%)"});
    table.addRow({base.schedulerName,
                  Table::cell(base.peakCoolingLoad / 1e3, 1), "0.0",
                  Table::cell(base.maxMeltFraction * 100.0, 1)});
    for (const char *policy : {"cf", "ta", "wa", "preserve"}) {
        auto sched = makeScheduler(policy, gv, threshold);
        const SimResult r = runSimulation(config, *sched);
        table.addRow({r.schedulerName,
                      Table::cell(r.peakCoolingLoad / 1e3, 1),
                      Table::cell(peakReductionPercent(base, r), 1),
                      Table::cell(r.maxMeltFraction * 100.0, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdSweep(const Flags &flags)
{
    const SimConfig config = configFromFlags(flags);
    const std::string policy = flags.getString("policy", "wa");
    const double from = flags.getDouble("gv-from", 16.0);
    const double to = flags.getDouble("gv-to", 28.0);
    const double step = flags.getDouble("gv-step", 2.0);
    if (step <= 0.0 || to < from)
        fatal("sweep: need gv-from <= gv-to and gv-step > 0");

    RoundRobinScheduler rr;
    const SimResult base = runSimulation(config, rr);

    Table table("GV sweep, policy " + policy);
    table.setHeader({"GV", "Peak (kW)", "Reduction (%)"});
    for (double gv = from; gv <= to + 1e-9; gv += step) {
        auto sched =
            makeScheduler(policy, gv, flags.getDouble("threshold", 0.98));
        const SimResult r = runSimulation(config, *sched);
        table.addRow({Table::cell(gv, 2),
                      Table::cell(r.peakCoolingLoad / 1e3, 1),
                      Table::cell(peakReductionPercent(base, r), 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdTune(const Flags &flags)
{
    SimConfig forecast = configFromFlags(flags);
    GvTunerParams params;
    params.gvLow = flags.getDouble("gv-from", 14.0);
    params.gvHigh = flags.getDouble("gv-to", 30.0);
    params.tolerance = flags.getDouble("tolerance", 0.5);
    params.algorithm = flags.getString("policy", "wa") == "ta"
                           ? VmtAlgorithm::ThermalAware
                           : VmtAlgorithm::WaxAware;
    const GvTunerResult r = tuneGv(forecast, params);
    std::printf("best GV        %.2f\n", r.bestGv);
    std::printf("reduction      %.1f %%\n", r.bestReduction);
    std::printf("evaluations    %d\n", r.evaluations);
    return 0;
}

void
printTraceStats(const DiurnalTrace &trace)
{
    const TraceStats stats = analyzeTrace(trace);
    std::printf("samples        %zu (%.1f h at %.0f s)\n",
                trace.size(),
                secondsToHours(trace.sampleInterval() *
                               static_cast<double>(trace.size())),
                trace.sampleInterval());
    std::printf("peak           %.1f %% at hour %.1f\n",
                stats.peak * 100.0, stats.peakHour);
    std::printf("trough         %.1f %%\n", stats.trough * 100.0);
    std::printf("mean           %.1f %%\n", stats.mean * 100.0);
    std::printf("peak width     %.1f h within 10%% of peak\n",
                stats.peakWidth);
    std::printf("max ramp       %.1f %%/h\n",
                stats.maxHourlyRamp * 100.0);
    std::printf("hot load share %.0f %%\n",
                stats.hotLoadShare * 100.0);
}

int
cmdTrace(const Flags &flags)
{
    if (flags.getBool("analyze", false)) {
        if (!flags.has("trace"))
            fatal("trace --analyze requires --trace FILE");
        printTraceStats(loadTraceCsv(flags.getString("trace")));
        return 0;
    }
    const std::string out = flags.getString("out", "");
    if (out.empty())
        fatal("trace: --out FILE is required");
    TraceParams params;
    params.duration = flags.getDouble("hours", 48.0);
    params.seed =
        static_cast<std::uint64_t>(flags.getInt("seed", 42));
    const DiurnalTrace trace(params);
    saveTraceCsv(trace, out);
    std::printf("trace written %s\n", out.c_str());
    printTraceStats(trace);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vmtsim <run|compare|sweep|tune|trace> [flags]\n"
                 "see the header comment in tools/vmtsim.cc for the "
                 "full flag reference\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // "analyze" is the one value-less flag; registering it keeps
    // `vmtsim trace --analyze file.csv` from eating the positional.
    const Flags flags(argc, argv, {"analyze"});
    if (flags.positional().empty())
        return usage();
    const std::string command = flags.positional().front();

    try {
        setGlobalThreadCount(
            cli::countFlag(flags, "threads", 0, 0, ">= 0 (0 = auto)"));

        int rc;
        if (command == "run")
            rc = cmdRun(flags);
        else if (command == "compare")
            rc = cmdCompare(flags);
        else if (command == "sweep")
            rc = cmdSweep(flags);
        else if (command == "tune")
            rc = cmdTune(flags);
        else if (command == "trace")
            rc = cmdTrace(flags);
        else
            return usage();

        cli::exportObservability(flags);
        if (cli::reportUnknownFlags(flags, kTool))
            return 2;
        return rc;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "vmtsim: %s\n", err.what());
        return 1;
    }
}
