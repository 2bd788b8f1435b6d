/**
 * @file
 * The DCsim-style scale-out simulation driver (Section IV-E).
 *
 * One run wires together the diurnal trace, the job generator, a
 * placement policy and the PCM-enabled cluster, advancing in
 * one-minute intervals (the paper's wax-model update period). The
 * result carries everything the evaluation figures need: cooling-load
 * and temperature series, hot-group telemetry and, optionally, the
 * server-by-time heatmaps of Figs. 9-11/14.
 */

#ifndef VMT_SIM_SIMULATION_H
#define VMT_SIM_SIMULATION_H

#include <cstdint>
#include <functional>
#include <vector>
#include <memory>
#include <optional>

#include "cooling/recirculation.h"
#include "fault/fault_plan.h"
#include "sched/scheduler.h"
#include "server/cluster.h"
#include "server/server_spec.h"
#include "sim/departure_ring.h"
#include "thermal/thermal_params.h"
#include "util/heatmap.h"
#include "util/time_series.h"
#include "util/units.h"
#include "workload/diurnal_trace.h"
#include "workload/job_generator.h"

namespace vmt {

namespace obs {
class Observability;
} // namespace obs

struct SimState;
class FaultEngine;

/** Everything needed to reproduce one scale-out run. */
struct SimConfig
{
    /** Cluster size (100 for sweeps, 1,000 for the headline runs). */
    std::size_t numServers = 100;
    /** Server hardware. */
    ServerSpec spec{};
    /** Thermal constants (see DESIGN.md calibration notes). */
    ServerThermalParams thermal{};
    /** Table-I dynamic power calibration multiplier. */
    double powerScale = 1.77;
    /** Load trace parameters (used when traceSamples is empty). */
    TraceParams trace{};
    /** Explicit utilization samples (e.g. loaded via
     *  workload/trace_io.h); overrides the generated trace. One
     *  sample per scheduling interval. */
    std::vector<double> traceSamples;
    /** Optional workload-mix drift schedule (empty = catalog
     *  shares). */
    MixSchedule mixSchedule;
    /** Scheduling / model-update interval. */
    Seconds interval = kMinute;
    /** Inlet temperature variation sigma (Section V-D). */
    Kelvin inletStddev = 0.0;
    /** Seed for job durations and inlet offsets. */
    std::uint64_t seed = 7;
    /** Record per-server heatmaps (costs memory on big runs). */
    bool recordHeatmaps = false;
    /** Smoothing window (in intervals) for the peak cooling load. */
    std::size_t peakWindow = 15;

    /**
     * Cooling plant capacity in watts; 0 leaves the plant
     * unconstrained (the cold aisle always holds its setpoint). When
     * positive, rejected heat beyond the capacity raises the inlet
     * temperature (oversubscription studies, Section V-E).
     */
    Watts coolingCapacity = 0.0;
    /** Inlet rise per watt of heat beyond the plant capacity. */
    KelvinPerWatt coolingOverloadRise = 1.5e-3;
    /** Air temperature counted as overheating a server. */
    Celsius overheatTemp = 45.0;

    /** Migrations the scheduler may execute per interval (0 turns
     *  live migration off; placement then relies on job churn). */
    std::size_t migrationBudget = 0;

    /**
     * Fault-injection layer (src/fault/): scripted server/cooling
     * outages, stochastic failures and thermal-emergency handling.
     * Default-constructed = disabled; the driver then runs the exact
     * pre-fault code path.
     */
    FaultConfig faults;

    /** Model rack-level exhaust recirculation (hot aisles). */
    bool modelRecirculation = false;
    /** Recirculation layout/coupling when enabled. */
    RecirculationParams recirculation{};

    /**
     * Checkpoint hook: called at the end of every completed interval
     * with the live driver state and the number of completed
     * intervals. Install via attachCheckpointing()
     * (state/sim_snapshot.h); empty = no checkpointing.
     */
    std::function<void(const SimState &, std::size_t completed)>
        checkpointHook;

    /**
     * Restore hook: called once after driver setup, before the first
     * interval; returns the number of already-completed intervals to
     * skip. Install via attachCheckpointing(); empty = start at 0.
     */
    std::function<std::size_t(SimState &)> restoreHook;

    /**
     * Observability sink (src/obs/): metrics registry, phase profiler
     * and per-interval run telemetry. Null (the default) runs the
     * exact pre-observability code path — no clock reads, no metric
     * updates. The driver calls beginRun()/endRun() itself; attach a
     * long-lived instance (e.g. obs::globalObservability()) and export
     * after the run. Serialized into the optional OBSV snapshot
     * section when checkpointing is attached.
     */
    obs::Observability *obs = nullptr;
};

/** Series and aggregates from one run. */
struct SimResult
{
    /** Policy that produced the run. */
    std::string schedulerName;
    /** Cluster cooling load (W) per interval. */
    TimeSeries coolingLoad;
    /** Cluster electrical power (W) per interval. */
    TimeSeries totalPower;
    /** Heat flow into wax (W, signed) per interval. */
    TimeSeries waxHeatFlow;
    /** Mean air-at-wax temperature per interval. */
    TimeSeries meanAirTemp;
    /** Mean hot-group air temperature per interval (mirrors
     *  meanAirTemp for group-less baselines). */
    TimeSeries hotGroupTemp;
    /** Hot group size per interval (0 for baselines). */
    TimeSeries hotGroupSizeSeries;
    /** Mean ground-truth melt fraction per interval. */
    TimeSeries meanMeltFraction;
    /** Realized cluster utilization per interval. */
    TimeSeries utilization;
    /** Cold-aisle inlet temperature per interval (constant at the
     *  setpoint unless a finite cooling capacity is configured or a
     *  fault plan derates the cooling plant). */
    TimeSeries inletTemp;
    /** Servers not Failed per interval (== numServers without
     *  faults). */
    TimeSeries aliveServers;

    /** Optional server-by-time heatmaps. */
    std::optional<Heatmap> airTempMap;
    std::optional<Heatmap> meltMap;

    /** Smoothed peak cooling load (W). */
    Watts peakCoolingLoad = 0.0;
    /** Peak electrical power (W). */
    Watts peakPower = 0.0;
    /** Largest mean melt fraction reached. */
    double maxMeltFraction = 0.0;
    /** Hottest per-server air temperature seen in the run. */
    Celsius maxAirTemp = 0.0;
    /** Server-intervals spent at or above SimConfig::overheatTemp. */
    std::uint64_t overheatedServerIntervals = 0;
    /** Server-intervals spent thermally throttled (the downclocking
     *  TTS/VMT are meant to avoid). */
    std::uint64_t throttledServerIntervals = 0;
    /** Jobs that could not be placed (expected 0; the paper does not
     *  model computationally-overcommitted clusters). */
    std::uint64_t droppedJobs = 0;
    /** Live migrations executed across the run. */
    std::uint64_t migrations = 0;
    /** Total jobs placed. */
    std::uint64_t placedJobs = 0;
    /** Jobs successfully re-placed off failed servers. */
    std::uint64_t evacuatedJobs = 0;
    /** Jobs lost because no alive server could absorb them when
     *  their host failed. Unserved demand for the run is
     *  droppedJobs + lostJobs. */
    std::uint64_t lostJobs = 0;
    /** Server-intervals spent at or above the fault layer's
     *  critical temperature (time above critical). */
    std::uint64_t criticalServerIntervals = 0;

    SimResult();
};

/**
 * The complete mutable driver state of one in-flight runSimulation
 * call, exposed to the checkpoint/restore hooks. References point at
 * the driver's own locals and stay valid only inside a hook
 * invocation. See state/sim_snapshot.h for the save/load entry points
 * that serialize this bundle.
 */
struct SimState
{
    const SimConfig &config;
    /** Total intervals in the trace (the run length). */
    std::size_t numIntervals;
    Cluster &cluster;
    JobGenerator &generator;
    Scheduler &scheduler;
    /** Pending departures: one (server, type) record per running
     *  job. */
    DepartureRing &departures;
    SimResult &result;
    /** Previous interval's cooling load (plant feedback input). */
    Watts &prevCoolingLoad;
    /** Fault engine when SimConfig::faults is enabled, else null.
     *  Serialized into the snapshot FALT section (format v2). */
    FaultEngine *faults;
    /** Observability layer when SimConfig::obs is attached, else
     *  null. Serialized into the optional OBSV snapshot section. */
    obs::Observability *obs;
};

/**
 * Per-interval observer: called after each interval's thermal step
 * with the live cluster and the interval index. Use for custom
 * telemetry (e.g. the QoS monitor) without modifying the driver.
 */
using SimObserver =
    std::function<void(const Cluster &, std::size_t interval)>;

/**
 * Run one simulation.
 * @param config Run parameters.
 * @param scheduler Placement policy (stateful; use a fresh instance
 *        per run).
 * @param observer Optional per-interval telemetry hook.
 */
SimResult runSimulation(const SimConfig &config, Scheduler &scheduler,
                        const SimObserver &observer = {});

/**
 * Peak-cooling-load reduction of a policy versus a baseline, percent.
 * Positive when the policy's peak is lower.
 */
double peakReductionPercent(const SimResult &baseline,
                            const SimResult &policy);

} // namespace vmt

#endif // VMT_SIM_SIMULATION_H
