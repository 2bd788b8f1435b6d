#include "sim/simulation.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "cooling/cooling_system.h"
#include "fault/fault_engine.h"
#include "obs/observability.h"
#include "thermal/inlet_model.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/job_generator.h"

namespace vmt {

namespace {

/**
 * The driver's metric/phase handles, resolved once per run
 * (registration is idempotent, so reusing an Observability across
 * runs hands back the same slots). Default-constructed handles are
 * invalid and never touched: the disabled path checks the
 * Observability pointer before recording, and ScopedPhase with a null
 * profiler never reads the clock.
 */
struct DriverObs
{
    obs::PhaseId phaseDepartures;
    obs::PhaseId phaseFault;
    obs::PhaseId phaseArrivals;
    obs::PhaseId phasePlacementBegin;
    obs::PhaseId phasePlacementEvac;
    obs::PhaseId phasePlacement;
    obs::PhaseId phaseLedger;
    obs::PhaseId phaseThermal;
    obs::PhaseId phaseCheckpoint;
    obs::CounterHandle intervals;
    obs::CounterHandle placed;
    obs::CounterHandle dropped;
    obs::CounterHandle evacuated;
    obs::CounterHandle lost;
    obs::CounterHandle migrations;
    obs::GaugeHandle coolingLoad;
    obs::GaugeHandle totalPower;
    obs::GaugeHandle meanAirTemp;
    obs::GaugeHandle meltFraction;
    obs::GaugeHandle aliveServers;
    obs::GaugeHandle peakCoolingLoad;
    obs::GaugeHandle peakPower;
    obs::GaugeHandle maxAirTemp;
    obs::HistogramHandle airTempHist;
    obs::HistogramHandle utilizationHist;

    void registerAll(obs::Observability &o)
    {
        obs::PhaseProfiler &prof = o.profiler();
        phaseDepartures = prof.phase("departures");
        phaseFault = prof.phase("fault");
        phaseArrivals = prof.phase("arrivals");
        phasePlacementBegin = prof.phase("placement.begin");
        phasePlacementEvac = prof.phase("placement.evac");
        phasePlacement = prof.phase("placement");
        phaseLedger = prof.phase("ledger");
        phaseThermal = prof.phase("thermal");
        phaseCheckpoint = prof.phase("checkpoint");

        obs::MetricsRegistry &m = o.metrics();
        intervals = m.counter("sim.intervals_total",
                              "Simulation intervals completed");
        placed = m.counter("sim.jobs.placed_total", "Jobs placed");
        dropped = m.counter("sim.jobs.dropped_total",
                            "Jobs that could not be placed");
        evacuated = m.counter("sim.jobs.evacuated_total",
                              "Jobs re-placed off failed servers");
        lost = m.counter("sim.jobs.lost_total",
                         "Jobs lost to server failures");
        migrations = m.counter("sim.jobs.migrations_total",
                               "Live migrations executed");
        coolingLoad = m.gauge("sim.cooling_load_watts",
                              "Cooling load of the last interval (W)");
        totalPower = m.gauge("sim.total_power_watts",
                             "Cluster electrical power (W)");
        meanAirTemp = m.gauge("sim.mean_air_temp_celsius",
                              "Mean air-at-wax temperature (C)");
        meltFraction = m.gauge("sim.melt_fraction",
                               "Mean ground-truth melt fraction");
        aliveServers = m.gauge("sim.alive_servers",
                               "Servers not in the Failed state");
        peakCoolingLoad =
            m.gauge("sim.peak_cooling_load_watts",
                    "Smoothed peak cooling load, set at end of run");
        peakPower = m.gauge("sim.peak_power_watts",
                            "Peak electrical power, set at end of run");
        maxAirTemp =
            m.gauge("sim.max_air_temp_celsius",
                    "Hottest air temperature seen across the run");
        airTempHist = m.histogram(
            "sim.air_temp_celsius", {25.0, 30.0, 35.0, 40.0, 45.0, 50.0},
            "Per-interval hottest air temperature (C)");
        utilizationHist = m.histogram(
            "sim.utilization", {0.25, 0.5, 0.75, 0.9},
            "Per-interval realized cluster utilization");
    }
};

} // namespace

SimResult::SimResult()
    : coolingLoad(kMinute),
      totalPower(kMinute),
      waxHeatFlow(kMinute),
      meanAirTemp(kMinute),
      hotGroupTemp(kMinute),
      hotGroupSizeSeries(kMinute),
      meanMeltFraction(kMinute),
      utilization(kMinute),
      inletTemp(kMinute),
      aliveServers(kMinute)
{}

SimResult
runSimulation(const SimConfig &config, Scheduler &scheduler,
              const SimObserver &observer)
{
    if (config.interval <= 0.0)
        fatal("SimConfig::interval must be positive");

    Rng rng(config.seed);
    const std::vector<Kelvin> offsets =
        drawInletOffsets(config.numServers, config.inletStddev, rng);

    const PowerModel power(config.spec, config.powerScale);
    Pod pod(Cluster(config.numServers, config.spec, config.thermal,
                    power, offsets),
            scheduler, config.interval);
    Cluster &cluster = pod.cluster;

    TraceParams trace_params = config.trace;
    trace_params.sampleInterval = config.interval;
    const DiurnalTrace trace =
        config.traceSamples.empty()
            ? DiurnalTrace(trace_params)
            : DiurnalTrace(config.traceSamples, config.interval);
    JobGenerator generator(trace, cluster.totalCores(), rng.next(),
                           config.mixSchedule);

    SimResult result;
    result.schedulerName = scheduler.name();
    const auto series_reset = [&](TimeSeries &ts) {
        ts = TimeSeries(config.interval);
    };
    series_reset(result.coolingLoad);
    series_reset(result.totalPower);
    series_reset(result.waxHeatFlow);
    series_reset(result.meanAirTemp);
    series_reset(result.hotGroupTemp);
    series_reset(result.hotGroupSizeSeries);
    series_reset(result.meanMeltFraction);
    series_reset(result.utilization);
    series_reset(result.inletTemp);
    series_reset(result.aliveServers);

    if (config.recordHeatmaps) {
        result.airTempMap.emplace(config.numServers, trace.size());
        result.meltMap.emplace(config.numServers, trace.size());
    }

    std::optional<CoolingSystem> plant;
    if (config.coolingCapacity > 0.0) {
        plant.emplace(config.coolingCapacity,
                      config.thermal.inletTemp,
                      config.coolingOverloadRise);
    }
    Watts prev_cooling_load = 0.0;

    std::optional<RecirculationModel> recirc;
    if (config.modelRecirculation)
        recirc.emplace(config.numServers, config.recirculation);
    // Recirculation work buffers, hoisted out of the interval loop
    // (two vector allocations per interval otherwise).
    std::vector<Watts> rejected;
    std::vector<Kelvin> recirc_offsets;
    if (recirc)
        rejected.resize(config.numServers, 0.0);
    // Arrival buffer and this interval's executed migrations, likewise
    // hoisted and reused.
    std::vector<Job> arrivals;
    std::vector<MigrationRequest> moves;

    // Fault layer: scripted/stochastic outages and degraded-mode
    // handling. Disabled (the default) leaves every code path below
    // exactly as before.
    if (config.faults.enabled())
        pod.faults.emplace(config.faults, config.numServers);

    // Observability: register the driver's handles and open the run
    // *before* the restore hook, so a snapshot OBSV section finds its
    // registrations in place. A null config.obs leaves `prof` null and
    // every recording site below compiled out to a pointer test.
    obs::Observability *const o = config.obs;
    DriverObs dobs;
    obs::PhaseProfiler *prof = nullptr;
    if (o) {
        dobs.registerAll(*o);
        prof = &o->profiler();
        o->beginRun(scheduler.name(), config.numServers, trace.size(),
                    config.interval);
    }

    SimState state{config, trace.size(), pod, generator,
                   result, prev_cooling_load, o};

    // Resume: skip intervals a snapshot already covers. The hook
    // rebuilds every structure above in place; everything not restored
    // (plant, recirc model, trace) is a pure function of the config.
    std::size_t first_interval = 0;
    if (config.restoreHook) {
        first_interval = config.restoreHook(state);
        if (first_interval > trace.size())
            fatal("snapshot has more completed intervals than the "
                  "configured run length");
    }
    // The cooling derate already pushed into per-server inlets; only
    // a *change* re-pushes below (and per-server CLUS state restores
    // the applied value on resume).
    if (pod.faults)
        pod.appliedRise = pod.faults->supplyRise();

    // Job-accounting totals as of the last recorded interval, so the
    // per-interval counters/telemetry record deltas. Read after the
    // restore hook: on resume these start at the snapshot's totals
    // and the (restored) metric counters carry the prefix.
    std::uint64_t obs_prev_placed = result.placedJobs;
    std::uint64_t obs_prev_dropped = result.droppedJobs;
    std::uint64_t obs_prev_evacuated = result.evacuatedJobs;
    std::uint64_t obs_prev_lost = result.lostJobs;
    std::uint64_t obs_prev_migrations = result.migrations;

    for (std::size_t interval = first_interval;
         interval < trace.size(); ++interval) {
        const Seconds now =
            static_cast<double>(interval) * config.interval;

        // 1. Complete jobs due by now.
        {
            obs::ScopedPhase timer(prof, dobs.phaseDepartures);
            pod.drain(now);
        }

        // 1b. Apply fault events due at this boundary (server
        // outages/repairs, cooling derates, stochastic draws,
        // thermal-emergency quarantine).
        std::vector<std::size_t> evacuating;
        if (pod.faults) {
            obs::ScopedPhase timer(prof, dobs.phaseFault);
            evacuating = pod.faults->beginInterval(cluster, now,
                                                   config.interval);
        }

        // 2. Refresh per-interval scheduler state (wax scans etc.)
        // and execute the policy's migration wishes, bounded by the
        // configured budget.
        {
            obs::ScopedPhase timer(prof, dobs.phasePlacementBegin);
            scheduler.beginInterval(cluster, now);
        }

        // 2a. Evacuate newly failed servers: drain their resident
        // jobs, then re-place them as one batch through the active
        // policy (which no longer sees the dead servers —
        // hasCapacity() is false). Draining everything first is
        // decision-identical to the historical interleaved loop: a
        // Failed server reports no capacity regardless of its
        // residual bookkeeping, and placement reads only frozen heap
        // keys, thermal state and live capacity. A placed refugee
        // keeps its departure bucket (Pod::evacuate); jobs with
        // nowhere to go are lost.
        if (!evacuating.empty()) {
            {
                obs::ScopedPhase timer(prof, dobs.phasePlacementEvac);
                pod.evacuate(evacuating);
                pod.place(pod.refugees);
            }
            obs::ScopedPhase timer(prof, dobs.phaseLedger);
            const std::size_t placed = pod.file(
                pod.refugees, [&](std::size_t k) { return pod.dues[k]; });
            result.evacuatedJobs += placed;
            result.lostJobs += pod.refugees.size() - placed;
        }

        // Migrations are decided on core counts; Pod::migrate then
        // re-homes each move's departure record (the source's
        // earliest-draining one of that type).
        if (config.migrationBudget > 0) {
            std::size_t budget = config.migrationBudget;
            moves.clear();
            for (const MigrationRequest &req :
                 scheduler.proposeMigrations(cluster, now)) {
                if (budget == 0)
                    break;
                if (req.fromServer >= config.numServers ||
                    req.toServer >= config.numServers ||
                    req.fromServer == req.toServer)
                    continue;
                const Cluster &view = cluster;
                if (!view.server(req.toServer).hasCapacity() ||
                    view.server(req.fromServer)
                            .coreCounts()[workloadIndex(req.type)] == 0)
                    continue;
                cluster.removeJob(req.fromServer, req.type);
                cluster.addJob(req.toServer, req.type);
                moves.push_back(req);
                ++result.migrations;
                --budget;
            }
            pod.migrate(moves);
        }

        // 3. Place this interval's arrivals.
        ActiveCounts active{};
        for (WorkloadType type : kAllWorkloads)
            active[workloadIndex(type)] =
                cluster.activeCounts()[workloadIndex(type)];
        {
            obs::ScopedPhase timer(prof, dobs.phaseArrivals);
            generator.arrivalsFor(interval, active, arrivals);
        }
        {
            // One batch call decides (and applies) every placement;
            // the departure records below are driver-local and cannot
            // influence decisions.
            obs::ScopedPhase timer(prof, dobs.phasePlacement);
            pod.place(arrivals);
        }
        {
            obs::ScopedPhase timer(prof, dobs.phaseLedger);
            const std::size_t placed =
                pod.file(arrivals, [&](std::size_t k) {
                    return now + arrivals[k].duration;
                });
            result.placedJobs += placed;
            result.droppedJobs += arrivals.size() - placed;
        }

        // 4. Cooling-plant feedback: an overloaded plant cannot hold
        // the cold-aisle setpoint. A fault-plan derate raises the
        // supply on top of whatever the plant delivers.
        Celsius inlet = config.thermal.inletTemp;
        if (plant)
            inlet = plant->inletFor(prev_cooling_load);
        if (pod.faults)
            inlet += pod.faults->supplyRise();
        if (!plant && !recirc)
            pod.pushSupplyRise(config.thermal.inletTemp);
        if (plant && !recirc)
            cluster.setBaseInlet(inlet);
        // 4b. Rack recirculation: each rack's exhaust warms its own
        // inlets in proportion to the rack's heat.
        if (recirc) {
            // Read-only access (std::as_const), so no server's
            // gathered power goes stale.
            const Cluster &cc = std::as_const(cluster);
            for (std::size_t id = 0; id < config.numServers; ++id)
                rejected[id] =
                    cc.server(id).power(cluster.powerModel());
            recirc->inletOffsets(rejected, recirc_offsets);
            for (std::size_t id = 0; id < config.numServers; ++id)
                cluster.setBaseInlet(id, inlet + recirc_offsets[id]);
        }
        result.inletTemp.add(inlet);

        // 5. Advance thermal state across the interval and record.
        ClusterSample sample;
        {
            obs::ScopedPhase timer(prof, dobs.phaseThermal);
            sample = cluster.stepThermal(config.interval, kOverheatTemp);
        }
        prev_cooling_load = sample.coolingLoad;
        result.maxAirTemp =
            std::max(result.maxAirTemp, sample.maxAirTemp);
        result.overheatedServerIntervals +=
            sample.serversAboveThreshold;
        result.throttledServerIntervals += sample.throttledServers;
        result.coolingLoad.add(sample.coolingLoad);
        result.totalPower.add(sample.totalPower);
        result.waxHeatFlow.add(sample.waxHeatFlow);
        result.meanAirTemp.add(sample.meanAirTemp);
        result.meanMeltFraction.add(sample.meanMeltFraction);
        const double utilization_now =
            static_cast<double>(cluster.busyCores()) /
            static_cast<double>(cluster.totalCores());
        result.utilization.add(utilization_now);
        result.aliveServers.add(
            static_cast<double>(cluster.aliveServers()));
        if (pod.faults && config.faults.criticalTemp > 0.0) {
            const Cluster &cc = std::as_const(cluster);
            for (std::size_t id = 0; id < config.numServers; ++id)
                if (cc.server(id).airTemp() >=
                    config.faults.criticalTemp)
                    ++result.criticalServerIntervals;
        }

        const std::optional<std::size_t> hot = scheduler.hotGroupSize();
        result.hotGroupSizeSeries.add(
            static_cast<double>(hot.value_or(0)));
        result.hotGroupTemp.add(
            hot && *hot > 0 ? cluster.meanAirTemp(*hot)
                            : sample.meanAirTemp);

        // Observability: fold this interval into the metrics and the
        // telemetry series *before* the checkpoint hook runs, so a
        // snapshot written at `interval + 1` carries it.
        if (o) {
            obs::MetricsRegistry &m = o->metrics();
            m.inc(dobs.intervals);
            m.inc(dobs.placed, result.placedJobs - obs_prev_placed);
            m.inc(dobs.dropped,
                  result.droppedJobs - obs_prev_dropped);
            m.inc(dobs.evacuated,
                  result.evacuatedJobs - obs_prev_evacuated);
            m.inc(dobs.lost, result.lostJobs - obs_prev_lost);
            m.inc(dobs.migrations,
                  result.migrations - obs_prev_migrations);
            m.set(dobs.coolingLoad, sample.coolingLoad);
            m.set(dobs.totalPower, sample.totalPower);
            m.set(dobs.meanAirTemp, sample.meanAirTemp);
            m.set(dobs.meltFraction, sample.meanMeltFraction);
            m.set(dobs.aliveServers,
                  static_cast<double>(cluster.aliveServers()));
            m.observe(dobs.airTempHist, sample.maxAirTemp);
            m.observe(dobs.utilizationHist, utilization_now);

            obs::IntervalSample telem;
            telem.interval = interval;
            telem.coolingLoad = sample.coolingLoad;
            telem.maxAirTemp = sample.maxAirTemp;
            telem.meanAirTemp = sample.meanAirTemp;
            telem.hotGroupSize =
                static_cast<double>(hot.value_or(0));
            telem.meltFraction = sample.meanMeltFraction;
            telem.evacuatedJobs =
                result.evacuatedJobs - obs_prev_evacuated;
            telem.lostJobs = result.lostJobs - obs_prev_lost;
            o->telemetry().record(telem);

            obs_prev_placed = result.placedJobs;
            obs_prev_dropped = result.droppedJobs;
            obs_prev_evacuated = result.evacuatedJobs;
            obs_prev_lost = result.lostJobs;
            obs_prev_migrations = result.migrations;
        }

        if (config.recordHeatmaps) {
            for (std::size_t id = 0; id < config.numServers; ++id) {
                const Server &srv = std::as_const(cluster).server(id);
                result.airTempMap->at(id, interval) = srv.airTemp();
                result.meltMap->at(id, interval) =
                    srv.waxMeltFraction() * 100.0;
            }
        }

        if (observer)
            observer(cluster, interval);

        if (config.checkpointHook) {
            obs::ScopedPhase timer(prof, dobs.phaseCheckpoint);
            config.checkpointHook(state, interval + 1);
        }
    }

    result.peakCoolingLoad = result.coolingLoad.smoothedPeak(kPeakWindow);
    result.peakPower = result.totalPower.smoothedPeak(kPeakWindow);
    result.maxMeltFraction = result.meanMeltFraction.peak();

    if (o) {
        obs::MetricsRegistry &m = o->metrics();
        m.set(dobs.peakCoolingLoad, result.peakCoolingLoad);
        m.set(dobs.peakPower, result.peakPower);
        m.set(dobs.maxAirTemp, result.maxAirTemp);
        o->endRun();
    }
    return result;
}

double
peakReductionPercent(const SimResult &baseline, const SimResult &policy)
{
    if (baseline.peakCoolingLoad <= 0.0)
        fatal("peakReductionPercent: baseline has no cooling load");
    return 100.0 *
           (baseline.peakCoolingLoad - policy.peakCoolingLoad) /
           baseline.peakCoolingLoad;
}

} // namespace vmt
