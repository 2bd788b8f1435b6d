#include "state/snapshot.h"

#include <fstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {

namespace {

constexpr char kMagic[8] = {'V', 'M', 'T', 'S', 'N', 'A', 'P', '\n'};

bool
validTag(const std::string &tag)
{
    if (tag.size() != 4)
        return false;
    for (char ch : tag) {
        if (ch < 0x20 || ch > 0x7E)
            return false;
    }
    return true;
}

} // namespace

Serializer &
SnapshotWriter::section(const std::string &tag)
{
    if (!validTag(tag))
        fatal("SnapshotWriter: section tag must be 4 printable "
              "ASCII characters, got '" + tag + "'");
    for (const auto &[existing, payload] : sections_) {
        if (existing == tag)
            fatal("SnapshotWriter: duplicate section '" + tag + "'");
    }
    sections_.emplace_back(tag, Serializer{});
    return sections_.back().second;
}

std::vector<std::uint8_t>
SnapshotWriter::encode() const
{
    // The header, then per section its 16-byte frame and payload:
    // one allocation of the final size, moved out.
    std::size_t size = sizeof(kMagic) + 8;
    for (const auto &[tag, payload] : sections_)
        size += 16 + payload.size();
    Serializer out;
    out.reserve(size);
    out.putBytes(kMagic, sizeof(kMagic));
    out.putU32(kSnapshotFormatVersion);
    out.putU32(static_cast<std::uint32_t>(sections_.size()));
    for (const auto &[tag, payload] : sections_) {
        out.putBytes(tag.data(), 4);
        out.putU64(payload.size());
        out.putU32(crc32(payload.bytes().data(), payload.size()));
        out.putBytes(payload.bytes().data(), payload.size());
    }
    return out.release();
}

void
SnapshotWriter::write(const std::string &path) const
{
    const std::vector<std::uint8_t> image = encode();
    atomicWriteFile(path, image.data(), image.size());
}

SnapshotReader::SnapshotReader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("snapshot: cannot open " + path);
    const std::streamsize size = in.tellg();
    in.seekg(0);
    image_.resize(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(image_.data()), size);
    if (!in)
        fatal("snapshot: cannot read " + path);
    parse(path);
}

SnapshotReader
SnapshotReader::fromBytes(std::vector<std::uint8_t> bytes)
{
    SnapshotReader reader;
    reader.image_ = std::move(bytes);
    reader.parse("<memory>");
    return reader;
}

void
SnapshotReader::parse(const std::string &origin)
{
    if (image_.size() < sizeof(kMagic) + 8)
        fatal("snapshot " + origin + ": truncated header");
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
        if (static_cast<char>(image_[i]) != kMagic[i])
            fatal("snapshot " + origin +
                  ": bad magic (not a vmt snapshot)");
    }
    Deserializer header(image_.data() + sizeof(kMagic), 8);
    version_ = header.getU32();
    if (version_ < kSnapshotMinReadVersion ||
        version_ > kSnapshotFormatVersion)
        fatal("snapshot " + origin + ": format version " +
              std::to_string(version_) + " unsupported (expected " +
              std::to_string(kSnapshotMinReadVersion) + ".." +
              std::to_string(kSnapshotFormatVersion) + ")");
    const std::uint32_t count = header.getU32();
    sections_.reserve(count);
    std::size_t offset = sizeof(kMagic) + 8;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (image_.size() - offset < 16)
            fatal("snapshot " + origin +
                  ": truncated section header");
        const std::string tag(
            reinterpret_cast<const char *>(image_.data() + offset),
            4);
        Deserializer frame(image_.data() + offset + 4, 12);
        const std::uint64_t length = frame.getU64();
        const std::uint32_t expected_crc = frame.getU32();
        offset += 16;
        if (image_.size() - offset < length)
            fatal("snapshot " + origin + ": section '" + tag +
                  "' truncated (" + std::to_string(length) +
                  " bytes declared, " +
                  std::to_string(image_.size() - offset) +
                  " remain)");
        const std::uint32_t actual_crc =
            crc32(image_.data() + offset,
                  static_cast<std::size_t>(length));
        if (actual_crc != expected_crc)
            fatal("snapshot " + origin + ": section '" + tag +
                  "' CRC mismatch (corrupt file)");
        for (const Section &existing : sections_) {
            if (existing.tag == tag)
                fatal("snapshot " + origin +
                      ": duplicate section '" + tag + "'");
        }
        sections_.push_back(Section{
            tag, offset, static_cast<std::size_t>(length)});
        offset += static_cast<std::size_t>(length);
    }
    if (offset != image_.size())
        fatal("snapshot " + origin + ": " +
              std::to_string(image_.size() - offset) +
              " trailing bytes after the last section");
}

bool
SnapshotReader::has(const std::string &tag) const
{
    for (const Section &section : sections_) {
        if (section.tag == tag)
            return true;
    }
    return false;
}

Deserializer
SnapshotReader::section(const std::string &tag) const
{
    for (const Section &section : sections_) {
        if (section.tag == tag)
            return Deserializer(image_.data() + section.offset,
                                section.size);
    }
    fatal("snapshot: missing section '" + tag + "'");
}

} // namespace vmt
