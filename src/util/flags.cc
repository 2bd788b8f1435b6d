#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace vmt {

Flags::Flags(int argc, const char *const *argv,
             const std::set<std::string> &boolean_names)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (boolean_names.count(name) == 0 && i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            // Registered booleans never take a separate value token:
            // `--verbose trace.csv` must leave trace.csv positional.
            value = argv[++i];
        } else {
            value = "true"; // Bare boolean flag.
        }
        if (name.empty())
            fatal("Flags: empty flag name in '" + arg + "'");
        values_[name] = value;
        read_[name] = false;
    }
}

bool
Flags::has(const std::string &name) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return false;
    read_[name] = true;
    return true;
}

std::string
Flags::getString(const std::string &name,
                 const std::string &fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    return it->second;
}

double
Flags::getDouble(const std::string &name, double fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("Flags: --" + name + " expects a number, got '" +
              it->second + "'");
    // strtod takes "nan" and "inf", and overflows to inf ('1e999').
    if (!std::isfinite(value))
        fatal("Flags: --" + name + " is not a finite number: '" +
              it->second + "'");
    return value;
}

long long
Flags::getInt(const std::string &name, long long fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    // strtoll, not strtod: parsing through double would accept
    // scientific notation ('1e3') and silently round values above
    // 2^53.
    char *end = nullptr;
    errno = 0;
    const long long value =
        std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("Flags: --" + name + " expects an integer, got '" +
              it->second + "'");
    if (errno == ERANGE)
        fatal("Flags: --" + name + " is out of integer range: '" +
              it->second + "'");
    return value;
}

bool
Flags::getBool(const std::string &name, bool fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("Flags: --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::string>
Flags::unreadFlags() const
{
    std::vector<std::string> unread;
    for (const auto &[name, was_read] : read_) {
        if (!was_read)
            unread.push_back(name);
    }
    return unread;
}

} // namespace vmt
