/**
 * @file
 * Versioned, checksummed snapshot container (see DESIGN.md,
 * "Checkpoint/restore subsystem" for the byte-level specification).
 *
 * A snapshot file is:
 *
 *   magic   8 bytes  "VMTSNAP\n"
 *   version u32      format version (kSnapshotFormatVersion)
 *   count   u32      number of sections
 *   then per section:
 *     tag     4 bytes  ASCII section tag ("CONF", "CLUS", ...)
 *     length  u64      payload length in bytes
 *     crc     u32      CRC-32 of the payload
 *     payload length bytes
 *
 * Everything is little-endian. Files are written atomically
 * (temp-file + rename), so an interrupted save never clobbers the
 * previous snapshot. Readers validate magic, version, section framing
 * and every CRC up front and throw FatalError on any mismatch —
 * truncated or bit-flipped snapshots are rejected, never silently
 * half-loaded.
 */

#ifndef VMT_STATE_SNAPSHOT_H
#define VMT_STATE_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "state/serializer.h"

namespace vmt {

/**
 * Version written by SnapshotWriter. Bumped whenever the container
 * layout or any section payload changes incompatibly. v2 added the
 * FALT section (fault-engine state + fault telemetry). v3 replaced
 * the job slot ledger in QUEU (vmtsim) and SHRD (vmtserve) with the
 * departure ring's (server, type) records; the loaders convert a
 * v1/v2 ledger, so older files remain loadable (see
 * kSnapshotMinReadVersion).
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/** Oldest format version readers still accept. */
inline constexpr std::uint32_t kSnapshotMinReadVersion = 1;

/** Builds a snapshot file section by section. */
class SnapshotWriter
{
  public:
    /**
     * Start a new section and return the serializer for its payload.
     * @param tag Exactly four ASCII characters, unique per snapshot.
     */
    Serializer &section(const std::string &tag);

    /** The complete container image (for tests and in-memory use). */
    std::vector<std::uint8_t> encode() const;

    /** Encode and write atomically (temp-file + rename).
     *  @throws FatalError when the file cannot be written. */
    void write(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, Serializer>> sections_;
};

/**
 * Parses and validates a snapshot image; section payloads are handed
 * out as bounds-checked Deserializers viewing the reader's buffer, so
 * the reader must outlive them.
 */
class SnapshotReader
{
  public:
    /** Load from disk. @throws FatalError when the file is missing,
     *  unreadable or fails validation. */
    explicit SnapshotReader(const std::string &path);

    /** Parse an in-memory image (tests). */
    static SnapshotReader fromBytes(std::vector<std::uint8_t> bytes);

    std::uint32_t version() const { return version_; }

    bool has(const std::string &tag) const;

    /** @throws FatalError when the section is absent. */
    Deserializer section(const std::string &tag) const;

  private:
    SnapshotReader() = default;
    void parse(const std::string &origin);

    struct Section
    {
        std::string tag;
        std::size_t offset;
        std::size_t size;
    };

    std::vector<std::uint8_t> image_;
    std::vector<Section> sections_;
    std::uint32_t version_ = 0;
};

} // namespace vmt

#endif // VMT_STATE_SNAPSHOT_H
