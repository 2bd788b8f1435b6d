#include "common.h"

#include <cstdio>
#include <iostream>

#include <cstdlib>

#include "sched/coolest_first.h"
#include "sched/round_robin.h"
#include "sim/result_io.h"
#include "util/flags.h"
#include "util/logging.h"

namespace vmt::bench {

SweepObsHandles
sweepObsHandles()
{
    obs::Observability &o = obs::globalObservability();
    SweepObsHandles handles;
    handles.points = o.metrics().counter(
        "sweep.points_total", "Sweep points completed");
    handles.fromManifest = o.metrics().counter(
        "sweep.points_from_manifest_total",
        "Sweep points served from a crash-resume manifest");
    handles.point = o.profiler().phase("sweep_point");
    handles.profiler = &o.profiler();
    return handles;
}

std::string
manifestPathFromEnv()
{
    const char *path = std::getenv("VMT_SWEEP_MANIFEST");
    return (path && *path) ? std::string(path) : std::string();
}

void
configureThreadsFromArgs(int argc, const char *const *argv)
{
    const Flags flags(argc, argv);
    const long long threads = flags.getInt("threads", 0);
    if (threads < 0)
        fatal("--threads must be >= 0 (0 = auto)");
    setGlobalThreadCount(static_cast<std::size_t>(threads));
}

SimConfig
studyConfig(std::size_t num_servers)
{
    // The library defaults *are* the calibrated study configuration
    // (round robin peaks just below the 35.7 C melting temperature;
    // VMT's hot group exceeds it — DESIGN.md section 5). Restated
    // here so a drive-by change to a default is caught by the
    // calibration tests rather than silently shifting every figure.
    SimConfig config;
    config.numServers = num_servers;
    config.seed = 7;
    config.thermal.inletTemp = 22.0;
    config.thermal.airRisePerWatt = 0.040;
    config.thermal.exhaustRisePerWatt = 0.058;
    config.thermal.timeConstant = 900.0;
    config.thermal.pcm.conductance = 100.0;
    config.powerScale = 1.77;
    return config;
}

VmtConfig
studyVmt(double grouping_value)
{
    VmtConfig vmt;
    vmt.groupingValue = grouping_value;
    vmt.physicalMeltTemp = 35.7;
    vmt.waxThreshold = 0.98;
    return vmt;
}

SimResult
runRoundRobin(const SimConfig &config)
{
    RoundRobinScheduler sched;
    return runSimulation(config, sched);
}

SimResult
runCoolestFirst(const SimConfig &config)
{
    CoolestFirstScheduler sched;
    return runSimulation(config, sched);
}

SimResult
runVmtTa(const SimConfig &config, double grouping_value)
{
    VmtTaScheduler sched(studyVmt(grouping_value), hotMaskFromPaper());
    return runSimulation(config, sched);
}

SimResult
runVmtWa(const SimConfig &config, double grouping_value,
         double wax_threshold)
{
    VmtConfig vmt = studyVmt(grouping_value);
    vmt.waxThreshold = wax_threshold;
    VmtWaScheduler sched(vmt, hotMaskFromPaper());
    return runSimulation(config, sched);
}

void
printSeries(const std::string &title, const TimeSeries &series,
            std::size_t stride, double scale, const std::string &unit)
{
    std::printf("%s\n", title.c_str());
    std::printf("%10s  %12s\n", "hour", unit.c_str());
    for (std::size_t i = 0; i < series.size(); i += stride) {
        std::printf("%10.2f  %12.3f\n", series.timeAt(i) / kHour,
                    series.at(i) * scale);
    }
}

void
printHeatmaps(const SimResult &result)
{
    if (!result.airTempMap || !result.meltMap)
        fatal("printHeatmaps requires SimConfig::recordHeatmaps");
    std::printf("Air temperature at the wax (rows: servers, cols: "
                "time 0-%.0f h; ramp ' .:-=+*#%%@' = 10-50 C):\n",
                secondsToHours(result.meanAirTemp.timeAt(
                    result.meanAirTemp.size() - 1)));
    result.airTempMap->render(std::cout, 10.0, 50.0);
    std::printf("  min %.1f C  mean %.1f C  max %.1f C\n",
                result.airTempMap->minValue(),
                result.airTempMap->meanValue(),
                result.airTempMap->maxValue());
    std::printf("Wax melted (same axes; ramp = 0-100%%):\n");
    result.meltMap->render(std::cout, 0.0, 100.0);
    std::printf("  min %.1f%%  mean %.1f%%  max %.1f%%\n",
                result.meltMap->minValue(),
                result.meltMap->meanValue(),
                result.meltMap->maxValue());
}

void
maybeExportCsv(const std::string &name, const SimResult &result)
{
    const char *dir = std::getenv("VMT_BENCH_CSV_DIR");
    if (!dir || !*dir)
        return;
    const std::string base = std::string(dir) + "/" + name;
    saveResultCsv(result, base + ".csv");
    if (result.airTempMap)
        saveHeatmapCsv(result, "airtemp", base + "_airtemp.csv");
    if (result.meltMap)
        saveHeatmapCsv(result, "melt", base + "_melt.csv");
    std::printf("[csv] wrote %s*.csv\n", base.c_str());
}

void
printRunSummary(const SimResult &result)
{
    std::printf(
        "[%s] peak cooling %.1f kW | peak power %.1f kW | "
        "max mean melt %.1f%% | jobs placed %llu dropped %llu\n",
        result.schedulerName.c_str(), result.peakCoolingLoad / 1000.0,
        result.peakPower / 1000.0, result.maxMeltFraction * 100.0,
        static_cast<unsigned long long>(result.placedJobs),
        static_cast<unsigned long long>(result.droppedJobs));
}

} // namespace vmt::bench
