#include "state/resume_check.h"

#include "util/logging.h"

namespace vmt {

void
ResumeCheck::fail(const std::string &what) const
{
    fatal(std::string(subject_) + " does not match the configured run (" +
          what + "); resume requires the exact configuration that "
                 "produced the checkpoint");
}

void
ResumeCheck::u64(const char *field, std::uint64_t snap,
                 std::uint64_t now) const
{
    if (snap != now)
        fail(std::string(field) + ": snapshot " + std::to_string(snap) +
             ", run " + std::to_string(now));
}

} // namespace vmt
