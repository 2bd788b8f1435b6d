/**
 * @file
 * Command-line code that vmtsim and vmtserve share: the export
 * destinations, checked count flags, the fault flags, the end-of-run
 * export and the unknown-flag report. Messages carry the calling
 * tool's name.
 */

#ifndef VMT_TOOLS_CLI_COMMON_H
#define VMT_TOOLS_CLI_COMMON_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "util/flags.h"
#include "util/logging.h"

namespace vmt::cli {

/** Export destinations: environment defaults, explicit flags win. */
inline obs::ObsOptions
obsOptionsFromFlags(const Flags &flags)
{
    obs::ObsOptions options = obs::obsOptionsFromEnv();
    if (flags.has("metrics-out"))
        options.metricsOut = flags.getString("metrics-out");
    if (flags.has("trace-events"))
        options.traceEvents = flags.getString("trace-events");
    return options;
}

/** Integer flag @p name (default @p fallback) as a count; a value
 *  below @p least is fatal: "<tool>: --<name> must be <rule>". */
inline std::size_t
countFlag(const Flags &flags, const std::string &tool, const char *name,
          long long fallback, long long least, const char *rule)
{
    const long long value = flags.getInt(name, fallback);
    if (value < least)
        fatal(tool + ": --" + name + " must be " + rule);
    return static_cast<std::size_t>(value);
}

/** --fault-plan, --fault-seed, --fault-mtbf, --fault-repair and
 *  --critical-temp into @p faults; a negative rate or temperature is
 *  fatal. */
inline void
readFaultFlags(const Flags &flags, const std::string &tool,
               FaultConfig &faults)
{
    if (flags.has("fault-plan"))
        faults.plan = FaultPlan::loadFile(flags.getString("fault-plan"));
    faults.seed = static_cast<std::uint64_t>(flags.getInt("fault-seed", 1));
    faults.mtbf = flags.getDouble("fault-mtbf", 0.0);
    if (faults.mtbf < 0.0)
        fatal(tool + ": --fault-mtbf must be >= 0 (0 = off)");
    faults.repairTime = flags.getDouble("fault-repair", 4.0);
    faults.criticalTemp = flags.getDouble("critical-temp", 0.0);
    if (faults.criticalTemp < 0.0)
        fatal(tool + ": --critical-temp must be >= 0 (0 = off)");
}

/** Write the metrics and trace events the flags ask for from the
 *  global observability bundle. */
inline void
exportObservability(const Flags &flags)
{
    const obs::ObsOptions options = obsOptionsFromFlags(flags);
    if (!options.metricsOut.empty()) {
        obs::globalObservability().writeMetrics(options.metricsOut);
        std::printf("metrics written   %s (+ .csv)\n",
                    options.metricsOut.c_str());
    }
    if (!options.traceEvents.empty()) {
        obs::globalObservability().writeTraceEvents(options.traceEvents);
        std::printf("events written    %s\n", options.traceEvents.c_str());
    }
}

/** Name on stderr every flag the tool did not read.
 *  @return True when there was one (the caller exits 2). */
inline bool
reportUnknownFlags(const Flags &flags, const std::string &tool)
{
    const auto unread = flags.unreadFlags();
    if (unread.empty())
        return false;
    std::fprintf(stderr, "%s: unknown flag(s):", tool.c_str());
    for (const std::string &name : unread)
        std::fprintf(stderr, " --%s", name.c_str());
    std::fprintf(stderr, "\n");
    return true;
}

} // namespace vmt::cli

#endif // VMT_TOOLS_CLI_COMMON_H
