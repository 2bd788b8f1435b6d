/**
 * @file
 * Contract of the snapshot container: versioned + checksummed framing
 * that round-trips exactly, rejects every corruption mode with
 * FatalError, writes atomically, and stays byte-stable against the
 * checked-in golden fixture (format v1 files written by older builds
 * must keep loading).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "reference/scratch_path.h"
#include "state/snapshot.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {
namespace {

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    return bytes;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** The fixture's content; also used to regenerate it (see
 *  GoldenFixture below). */
SnapshotWriter
goldenWriter()
{
    SnapshotWriter writer;
    Serializer &conf = writer.section("CONF");
    conf.putU32(42);
    conf.putDouble(35.7);
    conf.putString("golden");
    Serializer &data = writer.section("DATA");
    for (std::uint8_t b = 0; b < 16; ++b)
        data.putU8(b);
    return writer;
}

TEST(Snapshot, RoundTripsSections)
{
    SnapshotWriter writer;
    writer.section("AAAA").putU64(7);
    writer.section("BBBB").putString("payload");
    const SnapshotReader reader =
        SnapshotReader::fromBytes(writer.encode());

    EXPECT_EQ(reader.version(), kSnapshotFormatVersion);
    EXPECT_TRUE(reader.has("AAAA"));
    EXPECT_TRUE(reader.has("BBBB"));
    EXPECT_FALSE(reader.has("CCCC"));

    Deserializer a = reader.section("AAAA");
    EXPECT_EQ(a.getU64(), 7u);
    a.expectEnd();
    Deserializer b = reader.section("BBBB");
    EXPECT_EQ(b.getString(), "payload");
    b.expectEnd();
}

TEST(Snapshot, EmptySectionRoundTrips)
{
    SnapshotWriter writer;
    writer.section("NULL");
    const SnapshotReader reader =
        SnapshotReader::fromBytes(writer.encode());
    EXPECT_TRUE(reader.section("NULL").atEnd());
}

TEST(Snapshot, RejectsBadTagAndDuplicates)
{
    SnapshotWriter writer;
    EXPECT_THROW(writer.section("toolong"), FatalError);
    EXPECT_THROW(writer.section("ab"), FatalError);
    EXPECT_THROW(writer.section(std::string("A\x01"
                                            "BC")),
                 FatalError);
    writer.section("GOOD");
    EXPECT_THROW(writer.section("GOOD"), FatalError);
}

TEST(Snapshot, MissingSectionThrows)
{
    SnapshotWriter writer;
    writer.section("AAAA");
    const SnapshotReader reader =
        SnapshotReader::fromBytes(writer.encode());
    EXPECT_THROW(reader.section("ZZZZ"), FatalError);
}

TEST(Snapshot, RejectsBadMagic)
{
    std::vector<std::uint8_t> image = goldenWriter().encode();
    image[0] = 'X';
    EXPECT_THROW(SnapshotReader::fromBytes(image), FatalError);
}

TEST(Snapshot, RejectsUnsupportedVersion)
{
    std::vector<std::uint8_t> image = goldenWriter().encode();
    image[8] = 99; // Version field follows the 8-byte magic.
    EXPECT_THROW(SnapshotReader::fromBytes(image), FatalError);
}

TEST(Snapshot, RejectsEveryTruncationPoint)
{
    const std::vector<std::uint8_t> image = goldenWriter().encode();
    // Dropping any tail — inside the header, a section frame or a
    // payload — must be caught, never half-loaded.
    for (std::size_t keep = 0; keep < image.size(); ++keep) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() +
                                          static_cast<long>(keep));
        EXPECT_THROW(SnapshotReader::fromBytes(cut), FatalError)
            << "truncation to " << keep << " bytes was accepted";
    }
}

TEST(Snapshot, RejectsEverySingleBitFlipInPayloadsAndFrames)
{
    const std::vector<std::uint8_t> image = goldenWriter().encode();
    ASSERT_NO_THROW(SnapshotReader::fromBytes(image));

    // Walk the container frame to collect the bytes a flip must be
    // caught in: the version/count header and, per section, the
    // length, CRC and payload. Tag bytes are deliberately excluded —
    // a flipped tag yields a validly-framed file with a renamed
    // section, which the *consumer* rejects as a missing section.
    std::vector<std::size_t> protected_bytes;
    for (std::size_t i = 8; i < 16; ++i)
        protected_bytes.push_back(i); // version + section count
    std::size_t offset = 16;
    while (offset < image.size()) {
        std::uint64_t length = 0;
        for (std::size_t b = 0; b < 8; ++b)
            length |= static_cast<std::uint64_t>(image[offset + 4 + b])
                      << (8 * b);
        for (std::size_t i = offset + 4; i < offset + 16 + length; ++i)
            protected_bytes.push_back(i); // length + crc + payload
        offset += 16 + static_cast<std::size_t>(length);
    }
    ASSERT_EQ(offset, image.size());

    for (const std::size_t i : protected_bytes) {
        std::vector<std::uint8_t> flipped = image;
        flipped[i] ^= 0x10;
        EXPECT_THROW(SnapshotReader::fromBytes(flipped), FatalError)
            << "bit flip at byte " << i << " was accepted";
    }
}

TEST(Snapshot, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> image = goldenWriter().encode();
    image.push_back(0xEE);
    EXPECT_THROW(SnapshotReader::fromBytes(image), FatalError);
}

TEST(Snapshot, WriteIsAtomicAndLeavesNoTempFile)
{
    const std::string path =
        reference::scratchPath("snapshot_atomic.snap");
    std::remove(path.c_str());
    goldenWriter().write(path);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(atomicTempPath(path)));
    EXPECT_EQ(readFile(path), goldenWriter().encode());

    // Overwrite keeps the file valid and still leaves no temp.
    goldenWriter().write(path);
    EXPECT_FALSE(fileExists(atomicTempPath(path)));
    const SnapshotReader reader(path);
    EXPECT_TRUE(reader.has("CONF"));
    std::remove(path.c_str());
}

TEST(Snapshot, UnwritableDirectoryThrowsAndWritesNothing)
{
    const std::string path =
        "/nonexistent-vmt-dir/sub/snapshot.snap";
    EXPECT_THROW(goldenWriter().write(path), FatalError);
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(atomicTempPath(path)));
}

TEST(Snapshot, MissingFileThrows)
{
    EXPECT_THROW(SnapshotReader("/nonexistent-vmt.snap"), FatalError);
}

/** Shared checks on the golden payloads (identical in v1, v2 and v3
 *  — the container layout did not change across the bumps). */
void
expectGoldenPayloads(const SnapshotReader &reader)
{
    Deserializer conf = reader.section("CONF");
    EXPECT_EQ(conf.getU32(), 42u);
    EXPECT_EQ(conf.getDouble(), 35.7);
    EXPECT_EQ(conf.getString(), "golden");
    conf.expectEnd();
    Deserializer data = reader.section("DATA");
    for (std::uint8_t b = 0; b < 16; ++b)
        EXPECT_EQ(data.getU8(), b);
    data.expectEnd();
}

/**
 * The checked-in golden fixture pins the on-disk format: today's
 * writer must produce its exact bytes, and today's reader must parse
 * it. If this test fails because the format deliberately changed,
 * bump kSnapshotFormatVersion and regenerate the fixture by writing
 * goldenWriter().encode() to tests/state/data/golden_v<N>.snap,
 * keeping the older fixtures byte for byte.
 */
TEST(Snapshot, GoldenFixtureIsByteStable)
{
    const std::string path =
        std::string(VMT_TEST_DATA_DIR) + "/golden_v3.snap";
    ASSERT_TRUE(fileExists(path))
        << "golden fixture missing: " << path;
    EXPECT_EQ(readFile(path), goldenWriter().encode());
}

TEST(Snapshot, GoldenFixtureParses)
{
    const SnapshotReader reader(std::string(VMT_TEST_DATA_DIR) +
                                "/golden_v3.snap");
    EXPECT_EQ(reader.version(), 3u);
    expectGoldenPayloads(reader);
}

/**
 * Backward compatibility: files written by v2 builds (job slot
 * ledgers in QUEU/SHRD, which the driver loaders convert) and by v1
 * builds (before the fault layer's FALT section) must keep parsing —
 * the version gate accepts [kSnapshotMinReadVersion,
 * kSnapshotFormatVersion].
 */
TEST(Snapshot, V2FixtureStillParses)
{
    const SnapshotReader reader(std::string(VMT_TEST_DATA_DIR) +
                                "/golden_v2.snap");
    EXPECT_EQ(reader.version(), 2u);
    expectGoldenPayloads(reader);
}

TEST(Snapshot, V1FixtureStillParses)
{
    const SnapshotReader reader(std::string(VMT_TEST_DATA_DIR) +
                                "/golden_v1.snap");
    EXPECT_EQ(reader.version(), 1u);
    expectGoldenPayloads(reader);
}

} // namespace
} // namespace vmt
