#include "obs/observability.h"

#include <cstdlib>

#include "state/snapshot.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::obs {

ObsOptions
obsOptionsFromEnv()
{
    ObsOptions options;
    if (const char *path = std::getenv("VMT_METRICS_OUT"))
        options.metricsOut = path;
    if (const char *path = std::getenv("VMT_TRACE_EVENTS"))
        options.traceEvents = path;
    return options;
}

Observability::Observability() : profiler_(registry_)
{
    poolTasks_ = registry_.gauge(
        "profile.pool.tasks",
        "thread-pool tasks executed during the last run");
    poolBusySeconds_ = registry_.gauge(
        "profile.pool.busy_seconds",
        "wall seconds pool workers spent executing tasks during the "
        "last run");
}

void
Observability::beginRun(const std::string &scheduler,
                        std::size_t servers, std::size_t intervals,
                        Seconds interval)
{
    const ThreadPool::TaskStats stats = ThreadPool::taskStats();
    poolTasksBase_ = stats.tasks;
    poolBusyBase_ = stats.busySeconds;
    telemetry_.beginRun(scheduler, servers, intervals, interval);
}

void
Observability::endRun()
{
    const ThreadPool::TaskStats stats = ThreadPool::taskStats();
    registry_.set(poolTasks_, static_cast<double>(
                                  stats.tasks - poolTasksBase_));
    registry_.set(poolBusySeconds_,
                  stats.busySeconds - poolBusyBase_);
    telemetry_.endRun(registry_.snapshotValues(false));
}

void
Observability::saveState(Serializer &out) const
{
    registry_.saveState(out);
    telemetry_.saveState(out);
}

void
Observability::restoreState(const SnapshotReader &reader,
                            std::size_t completed)
{
    if (!reader.has("OBSV")) {
        warn("snapshot has no OBSV section; telemetry and metrics for "
             "the completed prefix are zero-filled");
        telemetry_.padMissing(completed);
        return;
    }
    Deserializer in = reader.section("OBSV");
    registry_.loadState(in);
    telemetry_.loadState(in, completed);
    in.expectEnd();
}

void
Observability::writeMetrics(const std::string &path) const
{
    registry_.writePrometheus(path);
    registry_.writeCsv(path + ".csv");
}

void
Observability::writeTraceEvents(const std::string &path) const
{
    telemetry_.writeJsonl(path);
}

Observability &
globalObservability()
{
    static Observability *bundle = new Observability();
    return *bundle;
}

} // namespace vmt::obs
