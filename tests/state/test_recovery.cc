/**
 * @file
 * Crash-recovery layer tests: retained-generation rotation on save,
 * non-fatal failure counting when the path is unwritable, and the
 * multi-candidate recovery scan — newest-first, CRC-validated, with
 * fallback to the previous generation and a fatal only when nothing
 * on disk validates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "reference/scratch_path.h"
#include "state/recovery.h"
#include "state/snapshot.h"
#include "util/logging.h"

namespace vmt {
namespace {

/** A one-section snapshot whose payload is @p generation, so tests
 *  can tell which image a reader came from. */
SnapshotWriter
stampedSnapshot(std::uint64_t generation)
{
    SnapshotWriter writer;
    writer.section("TEST").putU64(generation);
    return writer;
}

std::uint64_t
stampOf(const SnapshotReader &reader)
{
    Deserializer in = reader.section("TEST");
    const std::uint64_t generation = in.getU64();
    in.expectEnd();
    return generation;
}

void
removeAll(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(previousSnapshotPath(path).c_str());
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

TEST(Recovery, PreviousPathIsASibling)
{
    EXPECT_EQ(previousSnapshotPath("run/ck.snap"),
              "run/ck.snap.prev");
}

TEST(Recovery, SaveRotatesTwoGenerations)
{
    const std::string path = reference::scratchPath("rot.snap");
    removeAll(path);
    RecoveryManager manager(path);

    // First save: only the primary exists (nothing to retain yet).
    EXPECT_TRUE(manager.save(stampedSnapshot(1)));
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(previousSnapshotPath(path)));

    // Second save: generation 1 rotates to .prev, 2 becomes primary.
    EXPECT_TRUE(manager.save(stampedSnapshot(2)));
    EXPECT_EQ(stampOf(SnapshotReader(path)), 2u);
    EXPECT_EQ(stampOf(SnapshotReader(previousSnapshotPath(path))),
              1u);

    // Third save: only the two newest generations are retained.
    EXPECT_TRUE(manager.save(stampedSnapshot(3)));
    EXPECT_EQ(stampOf(SnapshotReader(path)), 3u);
    EXPECT_EQ(stampOf(SnapshotReader(previousSnapshotPath(path))),
              2u);
    EXPECT_EQ(manager.failures(), 0u);
    EXPECT_TRUE(manager.lastError().empty());
    removeAll(path);
}

TEST(Recovery, FailedSaveIsCountedAndKeepsTheLastGood)
{
    const std::string dir = reference::scratchPath("gone_dir");
    const std::string path = dir + "/ck.snap";
    RecoveryManager manager(path);

    // The parent directory does not exist, so staging must fail —
    // without throwing, and with the reason retained.
    EXPECT_FALSE(manager.save(stampedSnapshot(1)));
    EXPECT_EQ(manager.failures(), 1u);
    EXPECT_FALSE(manager.lastError().empty());
    EXPECT_FALSE(fileExists(path));

    // A writable path keeps working after failures elsewhere.
    const std::string good = reference::scratchPath("good.snap");
    removeAll(good);
    RecoveryManager working(good);
    EXPECT_TRUE(working.save(stampedSnapshot(7)));
    EXPECT_FALSE(manager.save(stampedSnapshot(2)));
    EXPECT_EQ(manager.failures(), 2u);
    EXPECT_EQ(stampOf(SnapshotReader(good)), 7u);
    removeAll(good);
}

TEST(Recovery, RecoverPicksTheNewestValidCandidate)
{
    const std::string path = reference::scratchPath("rec.snap");
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(manager.save(stampedSnapshot(1)));
    ASSERT_TRUE(manager.save(stampedSnapshot(2)));

    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_EQ(recovered.path, path);
    EXPECT_FALSE(recovered.fellBack);
    EXPECT_TRUE(recovered.error.empty());
    EXPECT_EQ(stampOf(recovered.reader), 2u);
    removeAll(path);
}

TEST(Recovery, CorruptNewestFallsBackToThePreviousGeneration)
{
    const std::string path = reference::scratchPath("fb.snap");
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(manager.save(stampedSnapshot(1)));
    ASSERT_TRUE(manager.save(stampedSnapshot(2)));

    // Flip a payload byte in the newest image: CRC validation must
    // reject it and recovery must land on generation 1.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        ASSERT_TRUE(file.good());
        file.seekp(-1, std::ios::end);
        file.put('\xFF');
    }
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(recovered.path, previousSnapshotPath(path));
    EXPECT_FALSE(recovered.error.empty());
    EXPECT_EQ(stampOf(recovered.reader), 1u);
    removeAll(path);
}

TEST(Recovery, TruncatedNewestFallsBackToo)
{
    const std::string path = reference::scratchPath("tr.snap");
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(manager.save(stampedSnapshot(1)));
    ASSERT_TRUE(manager.save(stampedSnapshot(2)));

    // Truncate the newest image mid-file (a crash straddling the
    // write on a filesystem without atomic rename semantics).
    {
        std::ofstream file(path,
                           std::ios::binary | std::ios::trunc);
        file << "VMTSNAP\n";
    }
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(stampOf(recovered.reader), 1u);
    removeAll(path);
}

TEST(Recovery, FatalOnlyWhenNoCandidateValidates)
{
    const std::string path = reference::scratchPath("none.snap");
    removeAll(path);

    // Nothing on disk at all.
    EXPECT_THROW(recoverSnapshot(path), FatalError);

    // Both generations present but invalid.
    {
        std::ofstream(path, std::ios::binary) << "garbage";
        std::ofstream(previousSnapshotPath(path), std::ios::binary)
            << "more garbage";
    }
    EXPECT_THROW(recoverSnapshot(path), FatalError);
    removeAll(path);
}

TEST(Recovery, MissingPrimaryRecoversFromPreviousAlone)
{
    // A crash between the rotate and the commit leaves only .prev.
    const std::string path = reference::scratchPath("prev.snap");
    removeAll(path);
    stampedSnapshot(4).write(previousSnapshotPath(path));
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(recovered.path, previousSnapshotPath(path));
    EXPECT_EQ(stampOf(recovered.reader), 4u);
    removeAll(path);
}

} // namespace
} // namespace vmt
