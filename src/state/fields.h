/**
 * @file
 * One field list per snapshot section, walked in both directions.
 *
 * A section is a function template over its direction: saving runs it
 * against the section's Serializer, resuming against a Restore, which
 * reads every value back in the same order. A save and its load are
 * then one list and cannot drift apart.
 *
 *   field(io, v)          state: put v, or read it back into v
 *   echo(io, "name", v)   configuration: put v, or read the snapshot's
 *                         value and refuse one that differs, exactly
 *                         (a bitwise resume needs the same constants)
 *   nested(io, obj, ...)  the object's own saveState / loadState
 *
 * An Rng is one field: its four xoshiro256** words, then the
 * Box-Muller spare. Resuming refuses all-zero words by naming the
 * section: the generator never leaves that state, and in it every
 * uniform draw is 0 and an exponential draw never returns.
 */

#ifndef VMT_STATE_FIELDS_H
#define VMT_STATE_FIELDS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "state/resume_check.h"
#include "state/serializer.h"
#include "state/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {

/** The resume direction of a field list. */
struct Restore
{
    Deserializer &in;
    ResumeCheck check;
    /** Names the section in corruption fatals ("snapshot GENR"). */
    const char *section;

    /** For the loaders nested() reaches that take a plain reader. */
    operator Deserializer &() const { return in; }
};

/** Enums as their underlying type, bools as one byte, size_t widened
 *  to 64 bits. */
template <typename T>
void
field(Serializer &out, const T &value)
{
    if constexpr (std::is_enum_v<T>)
        field(out, static_cast<std::underlying_type_t<T>>(value));
    else if constexpr (std::is_same_v<T, bool>)
        out.putBool(value);
    else if constexpr (std::is_same_v<T, double>)
        out.putDouble(value);
    else if constexpr (std::is_same_v<T, std::string>)
        out.putString(value);
    else if constexpr (sizeof(T) == 1)
        out.putU8(value);
    else if constexpr (sizeof(T) == 4)
        out.putU32(value);
    else
        out.putU64(value);
}

/** One T as field(Serializer &, T) wrote it. */
template <typename T>
T
getField(Deserializer &in)
{
    if constexpr (std::is_enum_v<T>)
        return static_cast<T>(getField<std::underlying_type_t<T>>(in));
    else if constexpr (std::is_same_v<T, bool>)
        return in.getBool();
    else if constexpr (std::is_same_v<T, double>)
        return in.getDouble();
    else if constexpr (std::is_same_v<T, std::string>)
        return in.getString();
    else if constexpr (std::is_same_v<T, std::size_t>)
        return in.getSize();
    else if constexpr (sizeof(T) == 1)
        return in.getU8();
    else if constexpr (sizeof(T) == 4)
        return in.getU32();
    else
        return in.getU64();
}

template <typename T>
void
field(Restore &io, T &value)
{
    value = getField<T>(io.in);
}

inline void
field(Serializer &out, const Rng &rng)
{
    const RngState state = rng.state();
    for (const std::uint64_t word : state.s)
        out.putU64(word);
    out.putBool(state.hasSpare);
    out.putDouble(state.spare);
}

inline void
field(Restore &io, Rng &rng)
{
    RngState state;
    for (std::uint64_t &word : state.s)
        word = io.in.getU64();
    if ((state.s[0] | state.s[1] | state.s[2] | state.s[3]) == 0)
        fatal(std::string(io.section) +
              " section is corrupt: all-zero RNG state");
    state.hasSpare = io.in.getBool();
    state.spare = io.in.getDouble();
    rng.setState(state);
}

/** How echo() shows a value: strings quoted, everything else as
 *  std::to_string prints it. */
struct ShowValue
{
    template <typename T>
    std::string
    operator()(const T &value) const
    {
        if constexpr (std::is_same_v<T, std::string>)
            return "'" + value + "'";
        else if constexpr (std::is_enum_v<T>)
            return std::to_string(
                static_cast<std::underlying_type_t<T>>(value));
        else
            return std::to_string(value);
    }
};

/** On resume a mismatch fails as "<name>: snapshot <v>, run <v>", each
 *  value rendered by @p show (e.g. an enum's name function). */
template <typename IO, typename T, typename Show = ShowValue>
void
echo(IO &io, std::string_view name, const T &value, Show show = {})
{
    if constexpr (std::is_same_v<IO, Serializer>) {
        field(io, value);
    } else {
        const T snap = getField<T>(io.in);
        if (!(snap == value))
            io.check.fail(std::string(name) + ": snapshot " +
                          std::string(show(snap)) + ", run " +
                          std::string(show(value)));
    }
}

template <typename IO, typename T, typename... Args>
void
nested(IO &io, T &object, Args &&...args)
{
    if constexpr (std::is_same_v<IO, Serializer>)
        object.saveState(io, std::forward<Args>(args)...);
    else
        object.loadState(io, std::forward<Args>(args)...);
}

/**
 * Run @p fields, a callable taking Restore &, over section @p tag of
 * @p reader, which it must consume exactly. Corruption fatals name the
 * section "<check's subject> <tag>".
 */
template <typename Fields>
void
restoreSection(const SnapshotReader &reader, const ResumeCheck &check,
               const char *tag, Fields &&fields)
{
    Deserializer in = reader.section(tag);
    const std::string label = std::string(check.subject()) + ' ' + tag;
    Restore io{in, check, label.c_str()};
    fields(io);
    in.expectEnd();
}

} // namespace vmt

#endif // VMT_STATE_FIELDS_H
