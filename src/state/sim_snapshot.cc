#include "state/sim_snapshot.h"

#include <cstdlib>
#include <string>

#include "fault/fault_engine.h"
#include "obs/observability.h"
#include "state/fields.h"
#include "thermal/pcm.h"
#include "util/logging.h"

namespace vmt {

namespace {

constexpr ResumeCheck check{"snapshot"};

/** A result series; a resume at @p completed intervals must find
 *  exactly that many samples. */
void
series(Serializer &out, const TimeSeries &values, std::size_t,
       const char *)
{
    out.putSize(values.size());
    for (const double value : values.values())
        out.putDouble(value);
}

void
series(Restore &io, TimeSeries &values, std::size_t completed,
       const char *what)
{
    const std::size_t count = io.in.getSize();
    if (count != completed)
        fatal("snapshot series '" + std::string(what) + "' has " +
              std::to_string(count) + " samples, expected " +
              std::to_string(completed));
    for (std::size_t i = 0; i < count; ++i)
        values.add(io.in.getDouble());
}

template <typename IO>
void
heatmap(IO &io, std::optional<Heatmap> &map, const std::string &what)
{
    echo(io, what + " heatmap recording", map.has_value());
    if (!map)
        return;
    echo(io, what + " heatmap rows", map->rows());
    echo(io, what + " heatmap cols", map->cols());
    for (std::size_t row = 0; row < map->rows(); ++row)
        for (std::size_t col = 0; col < map->cols(); ++col)
            field(io, map->at(row, col));
}

/** CONF: the completed-interval count, then everything needed to
 *  refuse a resume under a different configuration. */
template <typename IO>
void
configFields(IO &io, const SimState &state, std::size_t &completed)
{
    const SimConfig &config = state.config;
    field(io, completed);
    echo(io, "run length", state.numIntervals);
    echo(io, "server count", config.numServers);
    echo(io, "seed", config.seed);
    echo(io, "interval", config.interval);
    echo(io, "power scale", config.powerScale);
    echo(io, "inlet stddev", config.inletStddev);
    echo(io, "cooling capacity", config.coolingCapacity);
    echo(io, "cooling overload rise", config.coolingOverloadRise);
    echo(io, "overheat temp", config.overheatTemp);
    echo(io, "migration budget", config.migrationBudget);
    echo(io, "peak window", config.peakWindow);
    echo(io, "recirculation modelling", config.modelRecirculation);
    echo(io, "heatmap recording", config.recordHeatmaps);
    echo(io, "PCM integrator", kClosedFormIntegratorTag,
         integratorTagName);
    echo(io, "scheduler", state.scheduler.name());
}

/** RSLT: the series and aggregates accumulated so far, plus the
 *  cooling-plant feedback input for the next interval. */
template <typename IO>
void
resultFields(IO &io, const SimState &state, std::size_t completed)
{
    SimResult &result = state.result;
    series(io, result.coolingLoad, completed, "coolingLoad");
    series(io, result.totalPower, completed, "totalPower");
    series(io, result.waxHeatFlow, completed, "waxHeatFlow");
    series(io, result.meanAirTemp, completed, "meanAirTemp");
    series(io, result.hotGroupTemp, completed, "hotGroupTemp");
    series(io, result.hotGroupSizeSeries, completed, "hotGroupSize");
    series(io, result.meanMeltFraction, completed, "meanMeltFraction");
    series(io, result.utilization, completed, "utilization");
    series(io, result.inletTemp, completed, "inletTemp");
    field(io, result.maxAirTemp);
    field(io, result.overheatedServerIntervals);
    field(io, result.throttledServerIntervals);
    field(io, result.droppedJobs);
    field(io, result.migrations);
    field(io, result.placedJobs);
    field(io, state.prevCoolingLoad);
    heatmap(io, result.airTempMap, "air-temperature");
    heatmap(io, result.meltMap, "melt-fraction");
}

/** FALT (since format v2): the fault-layer configuration echo, the
 *  engine's dynamic state and the fault telemetry. Always written —
 *  a disabled layer round-trips as "inactive" — so every v2/v3
 *  snapshot has the same section set. */
template <typename IO>
void
faultFields(IO &io, const SimState &state, std::size_t completed)
{
    const FaultConfig &faults = state.config.faults;
    echo(io, "fault layer enabled", faults.enable);
    echoFaultParams(io, faults);
    echoFaultPlan(io, faults.plan);
    echo(io, "fault engine active", state.faults != nullptr);
    if (state.faults)
        nested(io, *state.faults, state.cluster);
    SimResult &result = state.result;
    series(io, result.aliveServers, completed, "aliveServers");
    field(io, result.evacuatedJobs);
    field(io, result.lostJobs);
    field(io, result.criticalServerIntervals);
}

} // namespace

void
saveSnapshot(const SimState &state, std::size_t completed,
             const std::string &path)
{
    SnapshotWriter writer;
    configFields(writer.section("CONF"), state, completed);
    state.generator.saveState(writer.section("GENR"));
    state.cluster.saveState(writer.section("CLUS"));
    // QUEU (format v3): the departure ring, one 4-byte (server, type)
    // record per running job, bucket by bucket in drain order.
    state.departures.saveState(writer.section("QUEU"));
    state.scheduler.saveState(writer.section("SCHD"));
    resultFields(writer.section("RSLT"), state, completed);
    faultFields(writer.section("FALT"), state, completed);
    // OBSV (optional): metric values + run telemetry, written only
    // when the run carries an observability layer.
    if (state.obs)
        state.obs->saveState(writer.section("OBSV"));
    writer.write(path);
}

std::size_t
loadSnapshot(SimState &state, const std::string &path)
{
    const SimConfig &config = state.config;
    const SnapshotReader reader(path);

    std::size_t completed = 0;
    restoreSection(reader, check, "CONF", [&](Restore &io) {
        configFields(io, state, completed);
    });
    if (completed > state.numIntervals)
        fatal("snapshot claims " + std::to_string(completed) +
              " completed intervals of " +
              std::to_string(state.numIntervals));
    restoreSection(reader, check, "GENR",
                   [&](Restore &io) { nested(io, state.generator); });
    restoreSection(reader, check, "CLUS",
                   [&](Restore &io) { nested(io, state.cluster); });

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

    restoreSection(reader, check, "SCHD",
                   [&](Restore &io) { nested(io, state.scheduler); });
    restoreSection(reader, check, "RSLT", [&](Restore &io) {
        resultFields(io, state, completed);
    });

    if (reader.has("FALT")) {
        restoreSection(reader, check, "FALT", [&](Restore &io) {
            faultFields(io, state, completed);
        });
    } else {
        // A v1 snapshot predates the fault layer: it can only resume
        // a run with faults disabled, and the fault telemetry for
        // the completed prefix is trivially known.
        if (config.faults.enabled())
            fatal("snapshot predates the fault layer (format v1); "
                  "it cannot resume a run with faults configured");
        for (std::size_t i = 0; i < completed; ++i)
            state.result.aliveServers.add(
                static_cast<double>(config.numServers));
    }

    if (state.obs)
        state.obs->restoreState(reader, completed);
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
