/**
 * @file
 * The synthetic feed's retired arrival generator, one candidate at a
 * time: it evaluates the diurnal rate for every candidate and rebuilds
 * the catalog shares for every arrival. serve::SyntheticFeed draws the
 * same stream with fewer operations per draw (a keep floor that skips
 * the rate, tables built once); the serve suite compares the two
 * bitwise.
 */

#ifndef VMT_TESTS_REFERENCE_SYNTHETIC_FEED_H
#define VMT_TESTS_REFERENCE_SYNTHETIC_FEED_H

#include <cmath>

#include "serve/job_feed.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/job_generator.h"
#include "workload/workload.h"

namespace vmt::reference {

/** Lewis–Shedler thinning at the constant envelope, per draw. */
class ReferenceFeed
{
  public:
    explicit ReferenceFeed(const serve::SyntheticFeedParams &params)
        : params_(params), rng_(params.seed)
    {
        baseRate_ = params.users * params.requestsPerUserHour / 3600.0;
        maxRate_ = baseRate_ * (params.burstPeriodHours > 0.0
                                    ? params.burstFactor
                                    : 1.0);
    }

    double ratePerSecond(Seconds t) const
    {
        constexpr double kPi = 3.14159265358979323846;
        if (t < 0.0)
            return 0.0;
        const double hours = secondsToHours(t);
        const double shape =
            0.5 * (1.0 - std::cos(2.0 * kPi * hours / 24.0));
        double rate = baseRate_ * (params_.diurnalTrough +
                                   (1.0 - params_.diurnalTrough) * shape);
        if (params_.rampHours > 0.0 && hours < params_.rampHours)
            rate *= hours / params_.rampHours;
        if (params_.burstPeriodHours > 0.0) {
            const double phase = std::fmod(hours, params_.burstPeriodHours);
            if (phase < params_.burstMinutes / 60.0)
                rate *= params_.burstFactor;
        }
        return rate;
    }

    /** The next accepted arrival. */
    serve::FeedJob next()
    {
        while (true) {
            candidateTime_ += rng_.exponential(1.0 / maxRate_);
            const double keep = ratePerSecond(candidateTime_) / maxRate_;
            if (rng_.uniform() >= keep)
                continue;
            const WorkloadShares shares = catalogShares();
            const double u = rng_.uniform();
            double cdf = 0.0;
            WorkloadType type = kAllWorkloads.back();
            for (WorkloadType candidate : kAllWorkloads) {
                cdf += shares[workloadIndex(candidate)];
                if (u < cdf) {
                    type = candidate;
                    break;
                }
            }
            serve::FeedJob job;
            job.time = candidateTime_;
            job.type = type;
            job.duration =
                rng_.exponential(workloadInfo(type).meanDuration);
            return job;
        }
    }

  private:
    serve::SyntheticFeedParams params_;
    double baseRate_;
    double maxRate_;
    Rng rng_;
    Seconds candidateTime_ = 0.0;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SYNTHETIC_FEED_H
