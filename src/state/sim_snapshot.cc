#include "state/sim_snapshot.h"

#include <cstdlib>
#include <string>

#include "fault/fault_engine.h"
#include "obs/observability.h"
#include "state/resume_check.h"
#include "state/snapshot.h"
#include "thermal/pcm.h"
#include "util/logging.h"

namespace vmt {

namespace {

constexpr ResumeCheck check{"snapshot"};

void
saveSeries(Serializer &out, const TimeSeries &series)
{
    out.putSize(series.size());
    for (double value : series.values())
        out.putDouble(value);
}

void
loadSeries(Deserializer &in, TimeSeries &series, std::size_t expected,
           const char *what)
{
    const std::size_t count = in.getSize();
    if (count != expected)
        fatal("snapshot series '" + std::string(what) + "' has " +
              std::to_string(count) + " samples, expected " +
              std::to_string(expected));
    for (std::size_t i = 0; i < count; ++i)
        series.add(in.getDouble());
}

void
saveHeatmap(Serializer &out, const std::optional<Heatmap> &map)
{
    out.putBool(map.has_value());
    if (!map)
        return;
    out.putSize(map->rows());
    out.putSize(map->cols());
    for (std::size_t row = 0; row < map->rows(); ++row)
        for (std::size_t col = 0; col < map->cols(); ++col)
            out.putDouble(map->at(row, col));
}

void
loadHeatmap(Deserializer &in, std::optional<Heatmap> &map,
            const char *what)
{
    const bool present = in.getBool();
    if (present != map.has_value())
        check.fail(std::string(what) +
                   " heatmap recording on/off differs");
    if (!present)
        return;
    const std::size_t rows = in.getSize();
    const std::size_t cols = in.getSize();
    if (rows != map->rows() || cols != map->cols())
        check.fail(std::string(what) + " heatmap dimensions differ");
    for (std::size_t row = 0; row < rows; ++row)
        for (std::size_t col = 0; col < cols; ++col)
            map->at(row, col) = in.getDouble();
}

} // namespace

void
saveSnapshot(const SimState &state, std::size_t completed,
             const std::string &path)
{
    const SimConfig &config = state.config;
    SnapshotWriter writer;

    // CONF: everything needed to refuse a resume under a different
    // configuration. The values are reconstruction *parameters*
    // (verified on load), not restored state.
    Serializer &conf = writer.section("CONF");
    conf.putSize(completed);
    conf.putSize(state.numIntervals);
    conf.putSize(config.numServers);
    conf.putU64(config.seed);
    conf.putDouble(config.interval);
    conf.putDouble(config.powerScale);
    conf.putDouble(config.inletStddev);
    conf.putDouble(config.coolingCapacity);
    conf.putDouble(config.coolingOverloadRise);
    conf.putDouble(config.overheatTemp);
    conf.putSize(config.migrationBudget);
    conf.putSize(config.peakWindow);
    conf.putBool(config.modelRecirculation);
    conf.putBool(config.recordHeatmaps);
    const Cluster &cluster = state.cluster;
    conf.putU8(kClosedFormIntegratorTag);
    conf.putString(state.scheduler.name());

    state.generator.saveState(writer.section("GENR"));
    cluster.saveState(writer.section("CLUS"));

    // QUEU (format v3): the departure ring, one 4-byte (server, type)
    // record per running job, bucket by bucket in drain order.
    state.departures.saveState(writer.section("QUEU"));

    state.scheduler.saveState(writer.section("SCHD"));

    // RSLT: the series and aggregates accumulated so far, plus the
    // cooling-plant feedback input for the next interval.
    Serializer &res = writer.section("RSLT");
    const SimResult &result = state.result;
    saveSeries(res, result.coolingLoad);
    saveSeries(res, result.totalPower);
    saveSeries(res, result.waxHeatFlow);
    saveSeries(res, result.meanAirTemp);
    saveSeries(res, result.hotGroupTemp);
    saveSeries(res, result.hotGroupSizeSeries);
    saveSeries(res, result.meanMeltFraction);
    saveSeries(res, result.utilization);
    saveSeries(res, result.inletTemp);
    res.putDouble(result.maxAirTemp);
    res.putU64(result.overheatedServerIntervals);
    res.putU64(result.throttledServerIntervals);
    res.putU64(result.droppedJobs);
    res.putU64(result.migrations);
    res.putU64(result.placedJobs);
    res.putDouble(state.prevCoolingLoad);
    saveHeatmap(res, result.airTempMap);
    saveHeatmap(res, result.meltMap);

    // FALT (since format v2): the fault-layer configuration echo
    // (rejecting resume under different faults, like CONF does for
    // the core parameters), the engine's dynamic state and the fault
    // telemetry. Always written — a disabled layer round-trips as
    // "inactive" — so every v2/v3 snapshot has the same section set.
    Serializer &falt = writer.section("FALT");
    const FaultConfig &fc = config.faults;
    falt.putBool(fc.enable);
    falt.putU64(fc.seed);
    falt.putDouble(fc.mtbf);
    falt.putDouble(fc.mtbfRefTemp);
    falt.putDouble(fc.mtbfDoublingDelta);
    falt.putDouble(fc.repairTime);
    falt.putDouble(fc.criticalTemp);
    falt.putDouble(fc.criticalRelease);
    falt.putSize(fc.plan.size());
    for (const FaultEvent &event : fc.plan.events()) {
        falt.putDouble(event.time);
        falt.putU8(static_cast<std::uint8_t>(event.type));
        falt.putSize(event.serverId);
        falt.putDouble(event.supplyRise);
    }
    falt.putBool(state.faults != nullptr);
    if (state.faults)
        state.faults->saveState(falt, cluster);
    saveSeries(falt, result.aliveServers);
    falt.putU64(result.evacuatedJobs);
    falt.putU64(result.lostJobs);
    falt.putU64(result.criticalServerIntervals);

    // OBSV (optional): metric values + run telemetry, written only
    // when the run carries an observability layer. Readers of every
    // format version treat a missing section as "run without
    // observability".
    if (state.obs)
        state.obs->saveState(writer.section("OBSV"));

    writer.write(path);
}

std::size_t
loadSnapshot(SimState &state, const std::string &path)
{
    const SimConfig &config = state.config;
    const SnapshotReader reader(path);

    Deserializer conf = reader.section("CONF");
    const std::size_t completed = conf.getSize();
    check.u64("run length", conf.getSize(), state.numIntervals);
    if (completed > state.numIntervals)
        fatal("snapshot claims " + std::to_string(completed) +
              " completed intervals of " +
              std::to_string(state.numIntervals));
    check.u64("server count", conf.getSize(), config.numServers);
    check.u64("seed", conf.getU64(), config.seed);
    check.real("interval", conf.getDouble(), config.interval);
    check.real("power scale", conf.getDouble(), config.powerScale);
    check.real("inlet stddev", conf.getDouble(), config.inletStddev);
    check.real("cooling capacity", conf.getDouble(),
               config.coolingCapacity);
    check.real("cooling overload rise", conf.getDouble(),
               config.coolingOverloadRise);
    check.real("overheat temp", conf.getDouble(), config.overheatTemp);
    check.u64("migration budget", conf.getSize(),
              config.migrationBudget);
    check.u64("peak window", conf.getSize(), config.peakWindow);
    if (conf.getBool() != config.modelRecirculation)
        check.fail("recirculation modelling on/off differs");
    if (conf.getBool() != config.recordHeatmaps)
        check.fail("heatmap recording on/off differs");
    const std::uint8_t integrator = conf.getU8();
    if (integrator != kClosedFormIntegratorTag)
        check.fail(std::string("PCM integrator: snapshot ") +
                   integratorTagName(integrator) + ", run " +
                   integratorTagName(kClosedFormIntegratorTag));
    const std::string scheduler_name = conf.getString();
    if (scheduler_name != state.scheduler.name())
        check.fail("scheduler: snapshot '" + scheduler_name +
                   "', run '" + state.scheduler.name() + "'");
    conf.expectEnd();

    Deserializer genr = reader.section("GENR");
    state.generator.loadState(genr);
    genr.expectEnd();

    Deserializer clus = reader.section("CLUS");
    state.cluster.loadState(clus);
    clus.expectEnd();

    // QUEU: the departure ring (v3), or a v1/v2 slot-table ledger
    // converted to records. Either way the next drain is the resume
    // boundary, and the ring must hold exactly the cluster's jobs.
    Deserializer queue = reader.section("QUEU");
    const Seconds resume = static_cast<double>(completed) * config.interval;
    if (reader.version() >= 3)
        state.departures.loadState(queue, resume);
    else
        state.departures.loadLegacy(queue, resume);
    queue.expectEnd();
    checkLedger(state.departures, state.cluster);

    Deserializer sched = reader.section("SCHD");
    state.scheduler.loadState(sched);
    sched.expectEnd();

    Deserializer res = reader.section("RSLT");
    SimResult &result = state.result;
    loadSeries(res, result.coolingLoad, completed, "coolingLoad");
    loadSeries(res, result.totalPower, completed, "totalPower");
    loadSeries(res, result.waxHeatFlow, completed, "waxHeatFlow");
    loadSeries(res, result.meanAirTemp, completed, "meanAirTemp");
    loadSeries(res, result.hotGroupTemp, completed, "hotGroupTemp");
    loadSeries(res, result.hotGroupSizeSeries, completed,
               "hotGroupSize");
    loadSeries(res, result.meanMeltFraction, completed,
               "meanMeltFraction");
    loadSeries(res, result.utilization, completed, "utilization");
    loadSeries(res, result.inletTemp, completed, "inletTemp");
    result.maxAirTemp = res.getDouble();
    result.overheatedServerIntervals = res.getU64();
    result.throttledServerIntervals = res.getU64();
    result.droppedJobs = res.getU64();
    result.migrations = res.getU64();
    result.placedJobs = res.getU64();
    state.prevCoolingLoad = res.getDouble();
    loadHeatmap(res, result.airTempMap, "air-temperature");
    loadHeatmap(res, result.meltMap, "melt-fraction");
    res.expectEnd();

    if (reader.has("FALT")) {
        Deserializer falt = reader.section("FALT");
        const FaultConfig &fc = config.faults;
        if (falt.getBool() != fc.enable)
            check.fail("fault layer enable flag differs");
        check.u64("fault seed", falt.getU64(), fc.seed);
        check.real("fault mtbf", falt.getDouble(), fc.mtbf);
        check.real("fault mtbf reference temp", falt.getDouble(),
                   fc.mtbfRefTemp);
        check.real("fault mtbf doubling delta", falt.getDouble(),
                   fc.mtbfDoublingDelta);
        check.real("fault repair time", falt.getDouble(),
                   fc.repairTime);
        check.real("fault critical temp", falt.getDouble(),
                   fc.criticalTemp);
        check.real("fault critical release", falt.getDouble(),
                   fc.criticalRelease);
        check.u64("fault plan length", falt.getSize(),
                  fc.plan.size());
        for (std::size_t i = 0; i < fc.plan.size(); ++i) {
            const FaultEvent &event = fc.plan.events()[i];
            check.real("fault event time", falt.getDouble(),
                       event.time);
            check.u64("fault event type", falt.getU8(),
                      static_cast<std::uint8_t>(event.type));
            check.u64("fault event server", falt.getSize(),
                      event.serverId);
            check.real("fault event supply rise", falt.getDouble(),
                       event.supplyRise);
        }
        const bool engine_active = falt.getBool();
        if (engine_active != (state.faults != nullptr))
            check.fail("fault engine active in one run but not the "
                       "other");
        if (state.faults)
            state.faults->loadState(falt, state.cluster);
        loadSeries(falt, result.aliveServers, completed,
                   "aliveServers");
        result.evacuatedJobs = falt.getU64();
        result.lostJobs = falt.getU64();
        result.criticalServerIntervals = falt.getU64();
        falt.expectEnd();
    } else {
        // A v1 snapshot predates the fault layer: it can only resume
        // a run with faults disabled, and the fault telemetry for
        // the completed prefix is trivially known.
        if (config.faults.enabled())
            fatal("snapshot predates the fault layer (format v1); "
                  "it cannot resume a run with faults configured");
        for (std::size_t i = 0; i < completed; ++i)
            result.aliveServers.add(
                static_cast<double>(config.numServers));
        result.evacuatedJobs = 0;
        result.lostJobs = 0;
        result.criticalServerIntervals = 0;
    }

    if (state.obs) {
        if (reader.has("OBSV")) {
            Deserializer obsv = reader.section("OBSV");
            state.obs->loadState(obsv, completed);
            obsv.expectEnd();
        } else {
            // Snapshot written without observability attached (or
            // predating the layer): resume anyway with a zero-filled
            // telemetry prefix rather than refusing the restore.
            state.obs->acceptMissingState(completed);
        }
    }

    return completed;
}

CheckpointOptions
checkpointOptionsFromEnv()
{
    CheckpointOptions options;
    if (const char *every = std::getenv("VMT_CHECKPOINT_EVERY")) {
        char *end = nullptr;
        const unsigned long long value = std::strtoull(every, &end, 10);
        if (end == every || *end != '\0')
            fatal(std::string("VMT_CHECKPOINT_EVERY is not a number: ") +
                  every);
        options.every = static_cast<std::size_t>(value);
    }
    if (const char *path = std::getenv("VMT_CHECKPOINT_PATH"))
        options.path = path;
    if (const char *resume = std::getenv("VMT_CHECKPOINT_RESUME"))
        options.resumeFrom = resume;
    return options;
}

void
attachCheckpointing(SimConfig &config, const CheckpointOptions &options)
{
    if (!options.resumeFrom.empty()) {
        const std::string from = options.resumeFrom;
        config.restoreHook = [from](SimState &state) {
            return loadSnapshot(state, from);
        };
    }
    if (options.every > 0) {
        const std::size_t every = options.every;
        const std::string path =
            options.path.empty() ? kDefaultCheckpointPath : options.path;
        config.checkpointHook = [every, path](const SimState &state,
                                              std::size_t completed) {
            // Skip the last interval: the run is finished, a snapshot
            // would only be dead weight on disk.
            if (completed % every == 0 && completed < state.numIntervals)
                saveSnapshot(state, completed, path);
        };
    }
}

} // namespace vmt
