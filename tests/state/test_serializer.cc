/**
 * @file
 * Byte-level contract of Serializer/Deserializer: the on-disk
 * encoding is little-endian and field-exact, doubles round-trip
 * bitwise, and every malformed read path throws FatalError instead of
 * returning garbage. The slicing-by-8 CRC-32 must equal the
 * byte-at-a-time reference (tests/reference/crc32_bytewise.h).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "reference/crc32_bytewise.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {
namespace {

TEST(Serializer, EncodesLittleEndian)
{
    Serializer out;
    out.putU32(0x01020304u);
    const std::vector<std::uint8_t> expected = {0x04, 0x03, 0x02,
                                                0x01};
    EXPECT_EQ(out.bytes(), expected);
}

TEST(Serializer, EncodesU64LittleEndian)
{
    Serializer out;
    out.putU64(0x0102030405060708ull);
    const std::vector<std::uint8_t> expected = {
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
    EXPECT_EQ(out.bytes(), expected);
}

TEST(Serializer, EncodesDoubleAsIeeeBits)
{
    Serializer out;
    out.putDouble(1.0); // 0x3FF0000000000000
    const std::vector<std::uint8_t> expected = {
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F};
    EXPECT_EQ(out.bytes(), expected);
}

/** The bytes one put writes into an empty Serializer. */
template <typename Put>
std::vector<std::uint8_t>
bytesOf(Put put)
{
    Serializer out;
    put(out);
    return out.bytes();
}

TEST(Serializer, EncodesBoundaryIntegers)
{
    using Bytes = std::vector<std::uint8_t>;
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU8(0); }), Bytes{0});
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU8(0xFF); }),
              Bytes{0xFF});
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putBool(true); }),
              Bytes{1});
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU32(0); }),
              Bytes(4, 0x00));
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU32(UINT32_MAX); }),
              Bytes(4, 0xFF));
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU64(0); }),
              Bytes(8, 0x00));
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putU64(UINT64_MAX); }),
              Bytes(8, 0xFF));
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putSize(0); }),
              Bytes(8, 0x00));
    EXPECT_EQ(bytesOf([](Serializer &s) { s.putSize(SIZE_MAX); }),
              Bytes(8, 0xFF));
}

TEST(Serializer, EncodesBoundaryDoubles)
{
    using Bytes = std::vector<std::uint8_t>;
    const auto encoded = [](double value) {
        return bytesOf([value](Serializer &s) { s.putDouble(value); });
    };
    EXPECT_EQ(encoded(0.0), Bytes(8, 0x00));
    // Only the sign bit: the top byte.
    EXPECT_EQ(encoded(-0.0),
              (Bytes{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
    EXPECT_EQ(encoded(std::numeric_limits<double>::max()),
              (Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F}));
    // The smallest subnormal is the bit pattern 1.
    EXPECT_EQ(encoded(std::numeric_limits<double>::denorm_min()),
              (Bytes{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
    // A quiet NaN with payload 0x12345, bit for bit.
    const double nan =
        std::bit_cast<double>(std::uint64_t{0x7FF8000000012345ull});
    EXPECT_EQ(encoded(nan),
              (Bytes{0x45, 0x23, 0x01, 0x00, 0x00, 0x00, 0xF8, 0x7F}));
}

TEST(Serializer, PutU32sMatchesOnePutPerValue)
{
    const std::vector<std::uint32_t> values = {
        0u, 1u, 0x01020304u, 0x80000000u, UINT32_MAX, 0xDEADBEEFu};
    for (std::size_t n = 0; n <= values.size(); ++n) {
        SCOPED_TRACE(n);
        const std::span<const std::uint32_t> head(values.data(), n);
        Serializer each;
        each.putU8(0xA5); // an odd offset, as inside a payload
        for (const std::uint32_t value : head)
            each.putU32(value);
        Serializer bulk;
        bulk.putU8(0xA5);
        bulk.putU32s(head);
        EXPECT_EQ(bulk.bytes(), each.bytes());
    }
}

TEST(Serializer, SizeWidensTo64Bits)
{
    Serializer out;
    out.putSize(7);
    EXPECT_EQ(out.size(), 8u);
}

TEST(Serializer, RoundTripsEveryFieldType)
{
    Serializer out;
    out.putU8(0xAB);
    out.putBool(true);
    out.putBool(false);
    out.putU32(0xDEADBEEFu);
    out.putU64(0x1122334455667788ull);
    out.putSize(12345);
    out.putDouble(-0.0);
    out.putDouble(std::numeric_limits<double>::denorm_min());
    out.putDouble(std::numeric_limits<double>::infinity());
    out.putString("hello, \"csv\"\nworld");
    out.putString("");

    Deserializer in(out.bytes());
    EXPECT_EQ(in.getU8(), 0xAB);
    EXPECT_TRUE(in.getBool());
    EXPECT_FALSE(in.getBool());
    EXPECT_EQ(in.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.getU64(), 0x1122334455667788ull);
    EXPECT_EQ(in.getSize(), 12345u);
    const double neg_zero = in.getDouble();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(in.getDouble(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(in.getDouble(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(in.getString(), "hello, \"csv\"\nworld");
    EXPECT_EQ(in.getString(), "");
    EXPECT_TRUE(in.atEnd());
    EXPECT_NO_THROW(in.expectEnd());
}

TEST(Serializer, NanPayloadRoundTripsBitwise)
{
    const double nan = std::nan("0x12345");
    Serializer out;
    out.putDouble(nan);
    Deserializer in(out.bytes());
    const double back = in.getDouble();
    EXPECT_TRUE(std::isnan(back));
    // Bit pattern, not value, is what must survive.
    EXPECT_EQ(out.bytes(), [&] {
        Serializer again;
        again.putDouble(back);
        return again.bytes();
    }());
}

TEST(Deserializer, OverrunThrows)
{
    Serializer out;
    out.putU32(1);
    Deserializer in(out.bytes());
    in.getU32();
    EXPECT_THROW(in.getU8(), FatalError);
}

TEST(Deserializer, TruncatedDoubleThrows)
{
    const std::uint8_t bytes[4] = {1, 2, 3, 4};
    Deserializer in(bytes, sizeof(bytes));
    EXPECT_THROW(in.getDouble(), FatalError);
}

TEST(Deserializer, NonCanonicalBoolThrows)
{
    Serializer out;
    out.putU8(2);
    Deserializer in(out.bytes());
    EXPECT_THROW(in.getBool(), FatalError);
}

TEST(Deserializer, StringLengthBeyondBufferThrows)
{
    Serializer out;
    out.putU64(1u << 20); // Claims a 1 MiB string with no bytes.
    Deserializer in(out.bytes());
    EXPECT_THROW(in.getString(), FatalError);
}

TEST(Deserializer, TrailingBytesFailExpectEnd)
{
    Serializer out;
    out.putU32(1);
    out.putU8(0);
    Deserializer in(out.bytes());
    in.getU32();
    EXPECT_THROW(in.expectEnd(), FatalError);
}

TEST(Crc32, MatchesKnownAnswer)
{
    // The canonical CRC-32 check value (IEEE 802.3, reflected,
    // init/xorout 0xFFFFFFFF).
    const char *data = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(data), 9),
              0xCBF43926u);
}

TEST(Crc32, MatchesTheBytewiseReferenceOnEveryShortLength)
{
    std::vector<std::uint8_t> data(64);
    Rng rng(0xC3C32ull);
    for (std::uint8_t &byte : data)
        byte = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t size = 0; size <= data.size(); ++size) {
        SCOPED_TRACE(size);
        EXPECT_EQ(crc32(data.data(), size),
                  reference::crc32Bytewise(data.data(), size));
    }
}

TEST(Crc32, MatchesTheBytewiseReferenceOnLargeUnalignedBuffers)
{
    // Seeded buffers up to 1 MiB (plus the offset), read from every
    // offset in an 8-byte word.
    Rng rng(0x5EED32ull);
    for (const std::size_t size :
         {std::size_t{65}, std::size_t{1000}, std::size_t{4099},
          std::size_t{65536}, std::size_t{1} << 20}) {
        std::vector<std::uint8_t> data(size + 8);
        for (std::uint8_t &byte : data)
            byte = static_cast<std::uint8_t>(rng.below(256));
        for (std::size_t offset = 0; offset < 8; ++offset) {
            SCOPED_TRACE(std::to_string(size) + " bytes at offset " +
                         std::to_string(offset));
            const std::size_t length = size - (offset % 3);
            EXPECT_EQ(
                crc32(data.data() + offset, length),
                reference::crc32Bytewise(data.data() + offset, length));
        }
    }
}

TEST(Crc32, EmptyBufferIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::vector<std::uint8_t> data(64, 0x5A);
    const std::uint32_t clean = crc32(data.data(), data.size());
    data[17] ^= 0x01;
    EXPECT_NE(crc32(data.data(), data.size()), clean);
}

} // namespace
} // namespace vmt
