#include "util/atomic_file.h"

#include <cstdio>
#include <fstream>

#include "util/logging.h"

namespace vmt {

std::string
atomicTempPath(const std::string &path)
{
    return path + ".tmp";
}

bool
stageFile(const std::string &temp_path, const void *data,
          std::size_t size, std::string *error)
{
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot open " + temp_path;
        return false;
    }
    out.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(size));
    out.close();
    if (!out) {
        std::remove(temp_path.c_str());
        if (error)
            *error = "write failed for " + temp_path;
        return false;
    }
    return true;
}

void
atomicCommit(const std::string &temp_path, const std::string &path)
{
    if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
        std::remove(temp_path.c_str());
        fatal("atomicCommit: cannot rename " + temp_path + " to " +
              path);
    }
}

void
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    std::string error;
    if (!tryAtomicWriteFile(path, data, size, &error))
        fatal(error);
}

bool
tryAtomicWriteFile(const std::string &path, const void *data,
                   std::size_t size, std::string *error)
{
    const std::string temp = atomicTempPath(path);
    std::string why;
    if (!stageFile(temp, data, size, &why)) {
        if (error)
            *error = "atomicWriteFile: " + why;
        return false;
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        if (error)
            *error = "atomicCommit: cannot rename " + temp + " to " +
                     path;
        return false;
    }
    return true;
}

} // namespace vmt
