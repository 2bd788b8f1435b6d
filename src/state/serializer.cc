#include "state/serializer.h"

#include <array>
#include <bit>

#include "util/logging.h"

namespace vmt {

void
Serializer::putU32s(std::span<const std::uint32_t> values)
{
    if constexpr (std::endian::native == std::endian::little) {
        putBytes(values.data(), values.size_bytes());
    } else {
        for (const std::uint32_t value : values)
            putU32(value);
    }
}

void
Serializer::putString(const std::string &value)
{
    putU64(value.size());
    putBytes(value.data(), value.size());
}

void
Serializer::putBytes(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), bytes, bytes + size);
}

void
Deserializer::need(std::size_t n) const
{
    if (size_ - pos_ < n)
        fatal("snapshot payload truncated: need " +
              std::to_string(n) + " bytes, " +
              std::to_string(size_ - pos_) + " remain");
}

std::uint8_t
Deserializer::getU8()
{
    need(1);
    return data_[pos_++];
}

bool
Deserializer::getBool()
{
    const std::uint8_t byte = getU8();
    if (byte > 1)
        fatal("snapshot payload corrupt: bool byte is " +
              std::to_string(byte));
    return byte != 0;
}

std::uint32_t
Deserializer::getU32()
{
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8)
        value |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
    return value;
}

std::uint64_t
Deserializer::getU64()
{
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8)
        value |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
    return value;
}

std::size_t
Deserializer::getSize()
{
    const std::uint64_t value = getU64();
    if (value > static_cast<std::uint64_t>(SIZE_MAX))
        fatal("snapshot payload corrupt: size overflows size_t");
    return static_cast<std::size_t>(value);
}

double
Deserializer::getDouble()
{
    return std::bit_cast<double>(getU64());
}

std::string
Deserializer::getString()
{
    const std::size_t size = getSize();
    need(size);
    std::string value(reinterpret_cast<const char *>(data_ + pos_),
                      size);
    pos_ += size;
    return value;
}

void
Deserializer::expectEnd() const
{
    if (pos_ != size_)
        fatal("snapshot payload corrupt: " +
              std::to_string(size_ - pos_) + " trailing bytes");
}

namespace {

/**
 * Slicing-by-8 tables: table[0] is the byte-at-a-time table, and
 * table[k][i] is the CRC of byte i followed by k zero bytes, so one
 * step folds eight bytes with eight independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
        table[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][prev & 0xFFu];
        }
    }
    return table;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Four bytes as a little-endian word, on any host. */
inline std::uint32_t
loadLittle32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    std::size_t i = 0;
    for (; size - i >= 8; i += 8) {
        const std::uint32_t lo = loadLittle32(data + i) ^ crc;
        const std::uint32_t hi = loadLittle32(data + i + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; i < size; ++i)
        crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
    return crc ^ 0xFFFFFFFFu;
}

} // namespace vmt
