/**
 * @file
 * The snapshot container's retired byte-at-a-time CRC-32 (IEEE 802.3,
 * polynomial 0xEDB88320, reflected, init/xorout 0xFFFFFFFF): one
 * table lookup per byte. state/serializer.cc computes the same value
 * eight bytes per step; the state suite checks the two against each
 * other.
 */

#ifndef VMT_TESTS_REFERENCE_CRC32_BYTEWISE_H
#define VMT_TESTS_REFERENCE_CRC32_BYTEWISE_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace vmt::reference {

inline std::uint32_t
crc32Bytewise(const std::uint8_t *data, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
            t[i] = crc;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
    return crc ^ 0xFFFFFFFFu;
}

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_CRC32_BYTEWISE_H
