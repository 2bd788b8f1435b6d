/**
 * @file
 * Isolated scheduler hot-path throughput: beginInterval + a batch of
 * placeJobs decisions on a steady-state cluster, across policies x
 * fleet sizes x arrival rates, printed to stdout as `placement_micro`
 * rows. The end-to-end runs bundle placement with thermal stepping and
 * driver bookkeeping; this bench times the scheduler alone
 * (perfbench's `sched.place_ns_per_job` is the end-to-end placement
 * yardstick).
 *
 * The cluster starts in a warmed steady state with diverse inlet
 * temperatures and melt fractions; each reset-to-steady-state rep
 * times one interval refresh plus one arrival batch, and the jobs
 * placed are removed again (untimed) before the next rep.
 *
 * Each point places two batch shapes with the catalog's load shares:
 * `runs`, one same-type run per workload as JobGenerator emits them
 * (the group policies' batch path), and `mixed`, the same jobs
 * interleaved as a serving feed delivers them (runs of one or two
 * jobs: the per-job path).
 *
 * Flags: --check    perf gate: on the 1000-server cluster with `runs`
 *                   batches, time placeJobs against a per-job replay
 *                   (the Scheduler::placeJobs default) for cf, ta and
 *                   wa, and for wa on `mixed` batches with every
 *                   unmelted server full (hot jobs that reach cascade
 *                   step (3) find it exhausted), best of three; exit
 *                   non-zero unless the batch path is faster and its
 *                   decisions are identical on every leg.
 *        --threads (bench/common.h)
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "sched/coolest_first.h"
#include "server/cluster.h"
#include "util/flags.h"

using namespace vmt;

namespace {

constexpr Celsius kHotThreshold = 45.0;

struct Policy
{
    const char *name;
    std::function<std::unique_ptr<Scheduler>()> make;
};

std::vector<Policy>
policies()
{
    return {
        {"cf",
         [] { return std::make_unique<CoolestFirstScheduler>(); }},
        {"ta",
         [] {
             return std::make_unique<VmtTaScheduler>(
                 bench::studyVmt(22.0), hotMaskFromPaper());
         }},
        {"wa",
         [] {
             return std::make_unique<VmtWaScheduler>(
                 bench::studyVmt(22.0), hotMaskFromPaper());
         }},
        {"preserve",
         [] {
             return std::make_unique<VmtPreserveScheduler>(
                 bench::studyVmt(22.0), hotMaskFromPaper());
         }},
    };
}

/** Arrival batch shapes (see the file comment). */
enum class Shape { Runs, Mixed };

const char *
shapeName(Shape shape)
{
    return shape == Shape::Runs ? "runs" : "mixed";
}

/** Forwards every call but placeJobs, so a batch is replayed job by
 *  job through the Scheduler::placeJobs default. */
class PerJobReplay final : public Scheduler
{
  public:
    explicit PerJobReplay(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {}

    std::string name() const override { return inner_->name(); }

    void beginInterval(Cluster &cluster, Seconds now) override
    {
        inner_->beginInterval(cluster, now);
    }

    std::size_t placeJob(Cluster &cluster, const Job &job) override
    {
        return inner_->placeJob(cluster, job);
    }

  private:
    std::unique_ptr<Scheduler> inner_;
};

/**
 * A steady-state cluster with placement-relevant diversity: a sawtooth
 * load profile (some servers full, some idle), an inlet gradient, and
 * enough warm-up that part of the fleet is melted and part frozen —
 * so WA/Preserve exercise every partition branch. Deterministic (no
 * scheduler involved).
 */
std::unique_ptr<Cluster>
makeSteadyCluster(std::size_t servers)
{
    const SimConfig config = bench::studyConfig(servers);
    auto cluster = std::make_unique<Cluster>(
        servers, config.spec, config.thermal,
        PowerModel(config.spec, config.powerScale));

    const std::size_t cores = config.spec.cores();
    for (std::size_t id = 0; id < servers; ++id) {
        const std::size_t load = (id * 7 + 3) % (cores + 1);
        for (std::size_t c = 0; c < load; ++c)
            cluster->addJob(id, kAllWorkloads[c % kNumWorkloads]);
        cluster->setBaseInlet(
            id, 20.0 + 14.0 * static_cast<double>(id % 11) / 10.0);
    }
    // Warm until the load sawtooth translates into a melt sawtooth:
    // heavily loaded hot-inlet servers melt, idle ones stay frozen.
    for (int i = 0; i < 240; ++i)
        cluster->stepThermal(60.0, kHotThreshold);
    return cluster;
}

/**
 * The steady cluster with every unmelted server filled to capacity:
 * VMT-WA's cascade step (3) (any server below the melted threshold)
 * fails for every hot job that reaches it, as in a serving outage
 * that fills the surviving pods.
 */
std::unique_ptr<Cluster>
makeFullFleetCluster(std::size_t servers)
{
    auto cluster = makeSteadyCluster(servers);
    const double threshold = bench::studyVmt(22.0).waxThreshold;
    for (std::size_t id = 0; id < servers; ++id) {
        const Server &srv = std::as_const(*cluster).server(id);
        if (srv.estimatedMeltFraction() >= threshold)
            continue;
        for (std::size_t c = srv.busyCores(); c < srv.cores(); ++c)
            cluster->addJob(id, kAllWorkloads[c % kNumWorkloads]);
    }
    return cluster;
}

/**
 * The deterministic arrival batch for one point: `rate` jobs split
 * over the workloads by catalog load share (remainder to the first
 * types), as one same-type run per workload in catalog order
 * (Shape::Runs) or interleaved by smooth weighted round robin
 * (Shape::Mixed).
 */
std::vector<Job>
makeArrivals(std::size_t rate, Shape shape)
{
    std::array<std::size_t, kNumWorkloads> count{};
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < kNumWorkloads; ++i) {
        count[i] = static_cast<std::size_t>(
            static_cast<double>(rate) *
            workloadInfo(kAllWorkloads[i]).loadShare);
        assigned += count[i];
    }
    for (std::size_t i = 0; assigned < rate; i = (i + 1) % kNumWorkloads) {
        ++count[i];
        ++assigned;
    }

    std::vector<Job> jobs;
    jobs.reserve(rate);
    if (shape == Shape::Runs) {
        for (std::size_t i = 0; i < kNumWorkloads; ++i)
            for (std::size_t j = 0; j < count[i]; ++j)
                jobs.push_back(Job{jobs.size(), kAllWorkloads[i], 0.0});
        return jobs;
    }
    std::array<std::ptrdiff_t, kNumWorkloads> credit{};
    for (std::size_t k = 0; k < rate; ++k) {
        std::size_t pick = 0;
        for (std::size_t i = 0; i < kNumWorkloads; ++i) {
            credit[i] += static_cast<std::ptrdiff_t>(count[i]);
            if (credit[i] > credit[pick])
                pick = i;
        }
        credit[pick] -= static_cast<std::ptrdiff_t>(rate);
        jobs.push_back(Job{k, kAllWorkloads[pick], 0.0});
    }
    return jobs;
}

/**
 * Time `reps` intervals of (beginInterval + placeJobs), un-placing
 * the batch between reps so every rep sees the identical steady
 * state. With `per_job` the policy's batches are replayed job by job;
 * `decisions`, when given, receives the first rep's placements.
 */
double
timeIntervals(const Policy &policy, Cluster &cluster,
              const std::vector<Job> &jobs, std::size_t reps,
              bool per_job = false,
              std::vector<std::size_t> *decisions = nullptr)
{
    std::unique_ptr<Scheduler> sched = policy.make();
    if (per_job)
        sched = std::make_unique<PerJobReplay>(std::move(sched));

    std::vector<std::size_t> out;
    std::chrono::steady_clock::duration elapsed{};
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        sched->beginInterval(cluster, 0.0);
        sched->placeJobs(cluster, jobs, out);
        elapsed += std::chrono::steady_clock::now() - start;
        if (rep == 0 && decisions)
            *decisions = out;
        // Untimed restore: the next rep starts from the same state.
        for (std::size_t k = 0; k < out.size(); ++k) {
            if (out[k] != kNoServer)
                cluster.removeJob(out[k], jobs[k].type);
        }
    }
    return std::chrono::duration<double>(elapsed).count();
}

/**
 * One leg of the CI gate: the policy places `jobs` on `cluster`
 * faster through placeJobs than through a per-job replay (best of
 * three, alternating), with identical decisions.
 */
bool
checkLeg(const Policy &policy, const char *label, Cluster &cluster,
         const std::vector<Job> &jobs)
{
    constexpr std::size_t kReps = 100;
    std::vector<std::size_t> batch_out;
    std::vector<std::size_t> replay_out;
    double batch = 1e300;
    double replay = 1e300;
    for (int round = 0; round < 3; ++round) {
        batch = std::min(batch, timeIntervals(policy, cluster, jobs,
                                              kReps, false, &batch_out));
        replay = std::min(replay, timeIntervals(policy, cluster, jobs,
                                                kReps, true,
                                                &replay_out));
    }
    const bool same = batch_out == replay_out;
    std::printf("[placement_check] %-3s %-16s batch %8.2f us/interval  "
                "per-job %8.2f us/interval  %.2fx  decisions %s\n",
                policy.name, label, 1e6 * batch / kReps,
                1e6 * replay / kReps, replay / batch,
                same ? "identical" : "DIFFER");
    return same && batch < replay;
}

/**
 * The CI gate, on 1000 servers and 2048-job batches: cf, ta and wa
 * with `runs` batches on the steady cluster (the batch runs), and wa
 * with `mixed` batches on the full-fleet cluster (the per-job path,
 * where a batch skips the step (3) scans it has already seen fail).
 */
bool
checkBatchGate()
{
    constexpr std::size_t kServers = 1000;
    constexpr std::size_t kRate = 2048;
    auto cluster = makeSteadyCluster(kServers);
    const std::vector<Job> runs = makeArrivals(kRate, Shape::Runs);
    bool ok = true;
    for (const Policy &policy : policies()) {
        const std::string name = policy.name;
        if (name == "cf" || name == "ta" || name == "wa")
            ok = checkLeg(policy, "runs", *cluster, runs) && ok;
        if (name == "wa") {
            auto full = makeFullFleetCluster(kServers);
            ok = checkLeg(policy, "mixed full-fleet", *full,
                          makeArrivals(kRate, Shape::Mixed)) &&
                 ok;
        }
    }
    std::printf("[placement_check] perf gate: %s\n",
                ok ? "PASS (batch faster, same decisions)"
                   : "FAIL (batch slower or decisions differ)");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    vmt::bench::configureThreadsFromArgs(argc, argv);
    const Flags flags(argc, argv);
    if (flags.getBool("check", false))
        return checkBatchGate() ? 0 : 1;

    for (const Policy &policy : policies()) {
        for (const std::size_t servers : {250, 1000, 10000}) {
            auto cluster = makeSteadyCluster(servers);
            for (const std::size_t rate : {32, 256, 2048}) {
                for (const Shape shape : {Shape::Runs, Shape::Mixed}) {
                    const std::vector<Job> jobs =
                        makeArrivals(rate, shape);
                    const std::size_t reps = std::max<std::size_t>(
                        20, 400000 / (servers + 4 * rate));
                    // Best of three: the minimum is the least
                    // noise-contaminated estimate of the true cost.
                    double seconds =
                        timeIntervals(policy, *cluster, jobs, reps);
                    for (int rep = 0; rep < 2; ++rep)
                        seconds = std::min(
                            seconds,
                            timeIntervals(policy, *cluster, jobs, reps));
                    std::printf("[placement_micro] %-8s servers=%-5zu "
                                "rate=%-4zu %-5s %9.2f us/interval\n",
                                policy.name, servers, rate,
                                shapeName(shape),
                                1e6 * seconds /
                                    static_cast<double>(reps));
                    std::fflush(stdout);
                }
            }
        }
    }
    return 0;
}
