/**
 * @file
 * Byte-level encode/decode for the snapshot subsystem.
 *
 * Everything is little-endian and written field by field — no struct
 * memcpy — so the on-disk layout is independent of host padding and
 * stays stable across compilers. Doubles are stored as their IEEE-754
 * bit patterns, which is what makes bitwise-identical resume possible:
 * a value round-trips to the exact same double, including -0.0,
 * subnormals and NaN payloads.
 *
 * Deserializer bounds-checks every read and throws FatalError on
 * overrun, so a truncated or corrupt payload is rejected
 * deterministically instead of reading garbage.
 */

#ifndef VMT_STATE_SERIALIZER_H
#define VMT_STATE_SERIALIZER_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace vmt {

/**
 * Append-only little-endian byte-stream writer. The fixed-width puts
 * are inline and append each value's bytes in one step.
 */
class Serializer
{
  public:
    void putU8(std::uint8_t value) { buf_.push_back(value); }
    /** Bools are one byte, 0 or 1. */
    void putBool(bool value) { buf_.push_back(value ? 1 : 0); }
    void putU32(std::uint32_t value) { putLittle(value); }
    void putU64(std::uint64_t value) { putLittle(value); }
    /** size_t is always widened to 64 bits on disk. */
    void putSize(std::size_t value) { putU64(value); }
    /** IEEE-754 bit pattern, little-endian (exact round-trip). */
    void putDouble(double value)
    {
        putLittle(std::bit_cast<std::uint64_t>(value));
    }
    /** Each value as putU32 writes it, in one append on a
     *  little-endian host. */
    void putU32s(std::span<const std::uint32_t> values);
    /** 64-bit length prefix followed by the raw bytes. */
    void putString(const std::string &value);
    /** Raw bytes, no length prefix. */
    void putBytes(const void *data, std::size_t size);

    /** Make room for @p size more bytes. */
    void reserve(std::size_t size) { buf_.reserve(buf_.size() + size); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Move the bytes out, leaving the serializer empty. */
    std::vector<std::uint8_t> release() { return std::exchange(buf_, {}); }

  private:
    /** Append the little-endian bytes of an unsigned integer. */
    template <typename T>
    void putLittle(T value)
    {
        std::uint8_t bytes[sizeof(T)];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes, &value, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
        buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a byte buffer (not owned; the buffer
 * must outlive the reader).
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    /** @throws FatalError unless the stored byte is 0 or 1. */
    bool getBool();
    std::uint32_t getU32();
    std::uint64_t getU64();
    /** @throws FatalError when the stored value exceeds size_t. */
    std::size_t getSize();
    double getDouble();
    std::string getString();

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    /** @throws FatalError when trailing bytes remain (a length
     *  mismatch between writer and reader is corruption). */
    void expectEnd() const;

  private:
    /** @throws FatalError when fewer than n bytes remain. */
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

} // namespace vmt

#endif // VMT_STATE_SERIALIZER_H
