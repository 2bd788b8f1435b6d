/**
 * @file
 * Crash-safe file replacement: write into a sibling temp file, then
 * rename it over the destination. POSIX rename() is atomic within a
 * filesystem, so readers observe either the old or the new complete
 * file — never a torn one. Used by the snapshot writer and the CSV
 * result writers.
 */

#ifndef VMT_UTIL_ATOMIC_FILE_H
#define VMT_UTIL_ATOMIC_FILE_H

#include <cstddef>
#include <string>

namespace vmt {

/** The sibling temp path writers stage into before atomicCommit(). */
std::string atomicTempPath(const std::string &path);

/**
 * Write a whole buffer to `temp_path` and close it. The stream is
 * checked after close(), so an error raised by the final flush counts
 * as a failed stage. Returns false on failure with the reason in
 * @p error (when non-null) and removes the partial file.
 */
bool stageFile(const std::string &temp_path, const void *data,
               std::size_t size, std::string *error);

/**
 * Atomically move the staged temp file over the destination.
 * @throws FatalError when the rename fails; the temp file is removed
 *         and the destination left untouched.
 */
void atomicCommit(const std::string &temp_path,
                  const std::string &path);

/**
 * Write a whole buffer to `path` atomically (stage + commit).
 * @throws FatalError when the directory is unwritable or a write
 *         fails; `path` is left untouched on any error.
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size);

/**
 * Non-throwing atomicWriteFile for callers that degrade instead of
 * dying (the serving-mode checkpoint path: a full disk must not kill
 * the service). Returns false on failure with the reason in @p error
 * (when non-null); `path` is left untouched on any error.
 */
bool tryAtomicWriteFile(const std::string &path, const void *data,
                        std::size_t size, std::string *error);

} // namespace vmt

#endif // VMT_UTIL_ATOMIC_FILE_H
