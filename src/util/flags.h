/**
 * @file
 * Minimal command-line flag parsing for the vmtsim front-end:
 * `--name value` / `--name=value` pairs plus positional arguments,
 * with typed accessors and unknown-flag detection.
 */

#ifndef VMT_UTIL_FLAGS_H
#define VMT_UTIL_FLAGS_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vmt {

/** Parsed command line. */
class Flags
{
  public:
    /**
     * Parse argv. Flags start with "--" and take their value from
     * `--name=value`, or from the next token when that token is not
     * itself a flag; otherwise the flag is boolean true.
     *
     * @param boolean_names Flags known to take no value. These never
     *        consume the next token, so `--verbose trace.csv` leaves
     *        `trace.csv` positional instead of swallowing it as the
     *        value of --verbose (`--verbose=false` still works).
     *        Tokens like `-5` are values, not flags — only a leading
     *        "--" marks a flag, so `--offset -5` parses as expected.
     * @throws FatalError on malformed input (e.g. empty flag name).
     */
    Flags(int argc, const char *const *argv,
          const std::set<std::string> &boolean_names = {});

    /** True when the flag appeared at all. */
    bool has(const std::string &name) const;

    /** String value, or fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /**
     * Numeric value.
     * @throws FatalError when present but not a finite number (`nan`,
     *         `inf` and values that overflow a double included).
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Integer value, parsed as an integer (not via double, so values
     * above 2^53 are exact and scientific notation like `1e3` is
     * rejected).
     * @throws FatalError when present but not a decimal integer, or
     *         out of long long range.
     */
    long long getInt(const std::string &name,
                     long long fallback) const;

    /** Boolean: absent -> fallback; present without value or with
     *  true/1/yes -> true; false/0/no -> false. */
    bool getBool(const std::string &name, bool fallback) const;

    /** Arguments that were not flags, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * Flags never read by any accessor so far — call after all
     * getX() to reject typos.
     */
    std::vector<std::string> unreadFlags() const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::map<std::string, bool> read_;
    std::vector<std::string> positional_;
};

} // namespace vmt

#endif // VMT_UTIL_FLAGS_H
