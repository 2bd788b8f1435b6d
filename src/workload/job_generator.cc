#include "workload/job_generator.h"

#include <algorithm>
#include <cmath>

#include "state/fields.h"
#include "util/logging.h"

namespace vmt {

WorkloadShares
catalogShares()
{
    WorkloadShares shares{};
    for (WorkloadType type : kAllWorkloads)
        shares[workloadIndex(type)] = workloadInfo(type).loadShare;
    return shares;
}

JobGenerator::JobGenerator(const DiurnalTrace &trace,
                           std::size_t total_cores, std::uint64_t seed,
                           MixSchedule mix)
    : trace_(trace), totalCores_(total_cores), rng_(seed),
      mix_(std::move(mix))
{
    if (total_cores == 0)
        fatal("JobGenerator requires a non-empty cluster");
    if (mix_.empty())
        mix_.push_back(MixPoint{0.0, catalogShares()});
    Hours prev = -1.0;
    for (const MixPoint &point : mix_) {
        if (point.hour <= prev && prev >= 0.0)
            fatal("MixSchedule hours must be ascending");
        prev = point.hour;
        double sum = 0.0;
        for (double share : point.shares) {
            if (share < 0.0)
                fatal("MixSchedule shares must be non-negative");
            sum += share;
        }
        if (std::abs(sum - 1.0) > 1e-6)
            fatal("MixSchedule shares must sum to 1");
    }
}

const WorkloadShares &
JobGenerator::sharesAt(std::size_t interval) const
{
    const Hours hour = secondsToHours(
        static_cast<double>(interval) * trace_.sampleInterval());
    const MixPoint *current = &mix_.front();
    for (const MixPoint &point : mix_) {
        if (point.hour <= hour)
            current = &point;
        else
            break;
    }
    return current->shares;
}

std::vector<Job>
JobGenerator::arrivalsFor(std::size_t interval, const ActiveCounts &active)
{
    std::vector<Job> arrivals;
    arrivalsFor(interval, active, arrivals);
    return arrivals;
}

void
JobGenerator::arrivalsFor(std::size_t interval,
                          const ActiveCounts &active,
                          std::vector<Job> &arrivals)
{
    arrivals.clear();
    const WorkloadShares &shares = sharesAt(interval);
    for (WorkloadType type : kAllWorkloads) {
        const double share = trace_.utilization(interval) *
                             shares[workloadIndex(type)];
        const auto target = static_cast<std::size_t>(
            std::lround(share * static_cast<double>(totalCores_)));
        const std::size_t running = active[workloadIndex(type)];
        if (target <= running)
            continue; // Excess drains through completions.
        const std::size_t need = target - running;
        const Seconds mean = workloadInfo(type).meanDuration;
        for (std::size_t i = 0; i < need; ++i) {
            Job job;
            job.id = nextId_++;
            job.type = type;
            // Clamp so a single straggler cannot hold a core for a
            // whole diurnal phase.
            job.duration = std::clamp(rng_.exponential(mean),
                                      kMinute, 6.0 * mean);
            arrivals.push_back(job);
        }
    }
}

void
JobGenerator::saveState(Serializer &out) const
{
    field(out, rng_);
    field(out, nextId_);
}

void
JobGenerator::loadState(Restore &io)
{
    field(io, rng_);
    field(io, nextId_);
}

} // namespace vmt
