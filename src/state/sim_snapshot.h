/**
 * @file
 * Checkpoint/restore for the simulation driver.
 *
 * saveSnapshot() captures the complete mutable state of an in-flight
 * run — RNG streams, per-server thermal state, the departure ring,
 * scheduler internals and the result series so far — into the
 * versioned snapshot container (state/snapshot.h).
 * loadSnapshot() rebuilds that state into a freshly set-up driver, and
 * the resumed run then produces a SimResult bitwise identical to an
 * uninterrupted one (pinned by the `ctest -L state` suite).
 *
 * attachCheckpointing() is the convenience wiring: it installs the
 * SimConfig hooks from a CheckpointOptions bundle, which in turn can
 * be filled from the CLI flags (--checkpoint-every, --checkpoint-path,
 * --resume-from) or the VMT_CHECKPOINT_* environment variables.
 */

#ifndef VMT_STATE_SIM_SNAPSHOT_H
#define VMT_STATE_SIM_SNAPSHOT_H

#include <cstddef>
#include <string>

#include "sim/simulation.h"

namespace vmt {

/** Where checkpoints go when no path is configured. */
inline constexpr const char *kDefaultCheckpointPath = "vmt.ckpt";

/** Checkpointing knobs for one run. */
struct CheckpointOptions
{
    /** Save a snapshot every N completed intervals (0 = off). */
    std::size_t every = 0;
    /** Snapshot file path; empty uses kDefaultCheckpointPath. */
    std::string path;
    /** Snapshot to resume from; empty starts fresh. */
    std::string resumeFrom;
};

/**
 * Read CheckpointOptions from the environment: VMT_CHECKPOINT_EVERY,
 * VMT_CHECKPOINT_PATH, VMT_CHECKPOINT_RESUME. Unset variables leave
 * the defaults; a non-numeric EVERY is fatal.
 */
CheckpointOptions checkpointOptionsFromEnv();

/**
 * Install the checkpoint/restore hooks described by @p options onto
 * @p config. A zero `every` installs no checkpoint hook; an empty
 * `resumeFrom` installs no restore hook. The final interval is never
 * checkpointed (the run is already done).
 */
void attachCheckpointing(SimConfig &config,
                         const CheckpointOptions &options);

/**
 * Write a snapshot of the driver state after @p completed intervals.
 * Atomic: the previous snapshot at @p path survives an interrupted
 * save. @throws FatalError when the file cannot be written.
 */
void saveSnapshot(const SimState &state, std::size_t completed,
                  const std::string &path);

/**
 * Restore driver state from a snapshot, returning the number of
 * completed intervals to skip. The driver must have been set up with
 * the same configuration (cluster size, seed, interval, scheduler,
 * PCM integrator, ...) that produced the snapshot; any mismatch, and
 * any corruption or truncation of the file, throws FatalError.
 */
std::size_t loadSnapshot(SimState &state, const std::string &path);

} // namespace vmt

#endif // VMT_STATE_SIM_SNAPSHOT_H
