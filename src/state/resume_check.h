/**
 * @file
 * The check a resume makes of every configuration value a snapshot
 * echoes. A snapshot continues a run bitwise only under the exact
 * configuration that wrote it, so any difference is fatal and names
 * the field and both values.
 */

#ifndef VMT_STATE_RESUME_CHECK_H
#define VMT_STATE_RESUME_CHECK_H

#include <cstdint>
#include <string>

namespace vmt {

/**
 * Resume checks for one kind of snapshot. A failure throws FatalError
 * "<subject> does not match the configured run (<what>); resume
 * requires the exact configuration that produced the checkpoint",
 * where a value check's <what> is "<field>: snapshot <v>, run <v>".
 */
class ResumeCheck
{
  public:
    /** @param subject "snapshot", "serve snapshot", ... */
    explicit constexpr ResumeCheck(const char *subject)
        : subject_(subject)
    {}

    const char *subject() const { return subject_; }

    [[noreturn]] void fail(const std::string &what) const;

    void u64(const char *field, std::uint64_t snap,
             std::uint64_t now) const;

  private:
    const char *subject_;
};

} // namespace vmt

#endif // VMT_STATE_RESUME_CHECK_H
