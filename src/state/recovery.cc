#include "state/recovery.h"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {

namespace {

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

} // namespace

std::string
previousSnapshotPath(const std::string &path)
{
    return path + ".prev";
}

RecoveryManager::RecoveryManager(std::string path)
    : path_(std::move(path))
{
    if (path_.empty())
        fatal("RecoveryManager requires a non-empty snapshot path");
}

bool
RecoveryManager::save(const SnapshotWriter &writer)
{
    const auto fail = [this](std::string why) {
        ++failures_;
        lastError_ = std::move(why);
        return false;
    };

    // Stage the new image first: if the disk is full the stage fails
    // and neither retained generation has been touched.
    const std::vector<std::uint8_t> image = writer.encode();
    const std::string temp = atomicTempPath(path_);
    std::string why;
    if (!stageFile(temp, image.data(), image.size(), &why))
        return fail("checkpoint: " + why);

    // Rotate the current last-good snapshot to the .prev generation.
    // A rotation failure is not fatal to the save — a fresh snapshot
    // beats a preserved old one — but is worth a warning because the
    // fallback generation is now stale.
    const std::string prev = previousSnapshotPath(path_);
    if (fileExists(path_) &&
        std::rename(path_.c_str(), prev.c_str()) != 0)
        warn("checkpoint: cannot rotate " + path_ + " to " + prev +
             "; previous generation is stale");

    if (std::rename(temp.c_str(), path_.c_str()) != 0) {
        std::remove(temp.c_str());
        return fail("checkpoint: cannot rename " + temp + " to " +
                    path_);
    }
    lastError_.clear();
    return true;
}

RecoveredSnapshot
recoverSnapshot(const std::string &path)
{
    const std::string candidates[] = {path,
                                      previousSnapshotPath(path)};
    std::string reasons;
    std::string first_error;
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string &candidate = candidates[i];
        if (!fileExists(candidate)) {
            reasons += "\n  " + candidate + ": missing";
            if (i == 0)
                first_error = "missing";
            continue;
        }
        try {
            SnapshotReader reader(candidate);
            RecoveredSnapshot recovered{std::move(reader), candidate,
                                        i > 0, first_error};
            if (recovered.fellBack)
                warn("snapshot recovery: " + path + " rejected (" +
                     first_error + "); falling back to " + candidate);
            return recovered;
        } catch (const FatalError &err) {
            reasons += "\n  " + candidate + ": " + err.what();
            if (i == 0)
                first_error = err.what();
        }
    }
    fatal("snapshot recovery: no valid snapshot for " + path +
          reasons);
}

} // namespace vmt
