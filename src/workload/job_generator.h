/**
 * @file
 * Turns the load trace into a stream of job arrivals.
 *
 * Once per scheduling interval the generator compares the trace's
 * per-workload core target against the number of jobs currently
 * running and emits enough new arrivals to close the gap; excess load
 * drains through natural job completions (jobs are never killed).
 * Durations are exponential around the catalog's per-workload mean.
 */

#ifndef VMT_WORKLOAD_JOB_GENERATOR_H
#define VMT_WORKLOAD_JOB_GENERATOR_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/diurnal_trace.h"
#include "workload/job.h"

namespace vmt {

class Serializer;
struct Restore;

/** Per-workload count of currently running jobs. */
using ActiveCounts = std::array<std::size_t, kNumWorkloads>;

/** Per-workload fractions of total core demand (sums to ~1). */
using WorkloadShares = std::array<double, kNumWorkloads>;

/** One mix change: from `hour` onward, demand splits by `shares`.
 *  The paper motivates VMT with exactly this drift: "the types,
 *  prevalence and power characteristics of these workloads change
 *  over the lifetime of the datacenter and may change as frequently
 *  as day to day or hour to hour." */
struct MixPoint
{
    Hours hour = 0.0;
    WorkloadShares shares{};
};

/** Piecewise-constant mix schedule (ascending hours). */
using MixSchedule = std::vector<MixPoint>;

/** The catalog's default shares (Table I split, 60/40 hot/cold). */
WorkloadShares catalogShares();

/** Deterministic trace-following arrival generator. */
class JobGenerator
{
  public:
    /**
     * @param trace The load trace to follow (kept by reference; must
     *        outlive the generator).
     * @param total_cores Cluster core capacity the trace is scaled to.
     * @param seed Seed for duration draws.
     * @param mix Optional piecewise-constant workload-mix schedule;
     *        empty uses the catalog's fixed shares.
     * @throws FatalError on a malformed schedule (hours not
     *         ascending, shares negative or not summing to ~1).
     */
    JobGenerator(const DiurnalTrace &trace, std::size_t total_cores,
                 std::uint64_t seed = 1, MixSchedule mix = {});

    /** Shares in force at a trace interval. */
    const WorkloadShares &sharesAt(std::size_t interval) const;

    /**
     * Arrivals for one interval.
     * @param interval Trace interval index.
     * @param active Currently running jobs per workload.
     * @return New jobs to place this interval.
     */
    std::vector<Job> arrivalsFor(std::size_t interval,
                                 const ActiveCounts &active);

    /** Allocation-free variant for per-interval callers: clears and
     *  refills @p out (same jobs as the returning overload). */
    void arrivalsFor(std::size_t interval, const ActiveCounts &active,
                     std::vector<Job> &out);

    /** Total jobs emitted so far. */
    std::uint64_t jobsEmitted() const { return nextId_; }

    /** Checkpoint the generator position: duration-draw RNG state
     *  (including the Box-Muller spare) and the next job id. The
     *  trace and mix schedule are reconstruction parameters, not
     *  state. */
    void saveState(Serializer &out) const;
    void loadState(Restore &io);

  private:
    const DiurnalTrace &trace_;
    std::size_t totalCores_;
    Rng rng_;
    MixSchedule mix_;
    std::uint64_t nextId_ = 0;
};

} // namespace vmt

#endif // VMT_WORKLOAD_JOB_GENERATOR_H
