/**
 * @file
 * Seeded snapshot mutations for the loader robustness tests: split a
 * snapshot image into its sections, damage one section's payload
 * (truncate, flip bytes, or splice in a donor's bytes), and rebuild
 * the image with every CRC recomputed, so the damaged payload gets
 * past the container checks and reaches the section's parser.
 */

#ifndef VMT_TESTS_REFERENCE_SNAPSHOT_MUTATOR_H
#define VMT_TESTS_REFERENCE_SNAPSHOT_MUTATOR_H

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "state/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt::reference {

inline std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

inline void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("cannot write " + path);
}

/** A snapshot image as (tag, payload) pairs in file order. */
class SnapshotSections
{
  public:
    /** Split a valid image (the header and frames of state/snapshot.h:
     *  8-byte magic, version, count, then tag, length, CRC, payload
     *  per section). */
    explicit SnapshotSections(const std::vector<std::uint8_t> &image)
    {
        Deserializer in(image);
        for (int i = 0; i < 8; ++i)
            in.getU8();
        version_ = in.getU32();
        const std::uint32_t count = in.getU32();
        for (std::uint32_t s = 0; s < count; ++s) {
            std::string tag;
            for (int i = 0; i < 4; ++i)
                tag += static_cast<char>(in.getU8());
            const std::uint64_t length = in.getU64();
            in.getU32(); // CRC: recomputed on encode().
            std::vector<std::uint8_t> payload;
            for (std::uint64_t i = 0; i < length; ++i)
                payload.push_back(in.getU8());
            sections_.emplace_back(tag, std::move(payload));
        }
    }

    std::uint32_t version() const { return version_; }

    std::vector<std::uint8_t> &
    payload(const std::string &tag)
    {
        for (auto &[name, bytes] : sections_)
            if (name == tag)
                return bytes;
        fatal("snapshot has no section " + tag);
    }

    /** The image again, in its own format version, with fresh
     *  CRCs. */
    std::vector<std::uint8_t>
    encode() const
    {
        SnapshotWriter writer;
        for (const auto &[tag, bytes] : sections_)
            writer.section(tag).putBytes(bytes.data(), bytes.size());
        std::vector<std::uint8_t> image = writer.encode();
        for (int b = 0; b < 4; ++b) // The version follows the magic.
            image[8 + b] = static_cast<std::uint8_t>(version_ >> (8 * b));
        return image;
    }

  private:
    std::uint32_t version_ = 0;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        sections_;
};

/** The three damage kinds. */
enum class Mutation
{
    Truncate,
    FlipBytes,
    Splice,
};

/**
 * Damage `payload`: cut it short, xor one to four random bytes with
 * random non-zero masks, or keep a random prefix and continue it with
 * a random suffix of `donor` (a payload of the same section from
 * another snapshot).
 */
inline std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &payload,
       const std::vector<std::uint8_t> &donor, Mutation kind, Rng &rng)
{
    std::vector<std::uint8_t> out = payload;
    switch (kind) {
    case Mutation::Truncate:
        out.resize(rng.below(payload.size()));
        break;
    case Mutation::FlipBytes:
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
            out[rng.below(out.size())] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    case Mutation::Splice: {
        out.resize(rng.below(payload.size() + 1));
        const std::size_t from = rng.below(donor.size() + 1);
        out.insert(out.end(),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.end());
        break;
    }
    }
    return out;
}

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SNAPSHOT_MUTATOR_H
