#include "sim/departure_ring.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

namespace {

/** Bytes one record takes on disk. */
constexpr std::size_t kRecordBytes = 4;
/** Least bytes a v3 bucket takes: its index and its count. */
constexpr std::size_t kBucketHeaderBytes = 16;
/** A v1/v2 slot: server id (8), type (1), residency position (4). */
constexpr std::size_t kLegacySlotBytes = 13;
/** A v1/v2 departure: time (8) and slot id (4). */
constexpr std::size_t kLegacyDepartureBytes = 12;
/** A v1/v2 slot's server id once its job was lost (a tombstone). */
constexpr std::size_t kLegacyTombstone =
    std::numeric_limits<std::size_t>::max();

std::string
str(std::uint64_t value)
{
    return std::to_string(value);
}

/** A snapshot count is at most the entries the bytes left can hold;
 *  checked before anything is reserved or filed. */
std::size_t
boundedCount(Deserializer &in, std::size_t entry_bytes, const char *what)
{
    const std::size_t count = in.getSize();
    if (count > in.remaining() / entry_bytes)
        fatal("snapshot departure ledger: " + std::string(what) +
              " count " + str(count) + " exceeds the " +
              str(in.remaining()) + " bytes left");
    return count;
}

} // namespace

DepartureRing::DepartureRing(Seconds interval, std::size_t servers)
    : dt_(interval), invDt_(1.0 / interval),
      maxTime_(std::min(static_cast<double>(kMaxBucket) * interval,
                        std::numeric_limits<double>::max())),
      servers_(servers), slots_(kMinSlots), mask_(kMinSlots - 1)
{
    if (!(interval > 0.0 && std::isfinite(interval)))
        fatal("DepartureRing requires a positive interval");
    constexpr std::size_t max_servers =
        (std::size_t{std::numeric_limits<Record>::max()} + 1) /
        kNumWorkloads;
    if (servers > max_servers)
        fatal("DepartureRing: a pod of " + str(servers) +
              " servers is too large to pack (server, type) records "
              "into 32 bits (at most " +
              str(max_servers) + " servers)");
}

void
DepartureRing::badTime(Seconds time)
{
    char text[32];
    char *end = std::to_chars(text, text + sizeof(text), time).ptr;
    const char *why = std::isnan(time) ? "is not a number"
                      : time < 0.0     ? "is negative"
                                       : "is beyond the last bucket "
                                         "(index 2^53)";
    fatal("DepartureRing: due time " + std::string(text, end) + " s " +
          why);
}

std::int64_t
DepartureRing::exactBucket(Seconds time, std::int64_t b) const
{
    while (at(b - 1) >= time)
        --b;
    while (at(b) < time)
        ++b;
    return b;
}

void
DepartureRing::restart(Seconds resume)
{
    slots_.assign(kMinSlots, {});
    mask_ = kMinSlots - 1;
    overflow_.clear();
    size_ = 0;
    inRing_ = 0;
    base_ = bucketOf(resume);
    end_ = base_;
}

void
DepartureRing::fileFar(std::uint64_t b, Record record)
{
    if (slots_.empty())
        fatal("DepartureRing: a record is filed after the drain "
              "passed the last bucket (index 2^53 - 1), so it would "
              "never drain");
    if (b - base_ >= kWindow) {
        overflow_[b].push_back(record);
        return;
    }
    grow(b - base_);
    fileInRing(b, record);
}

void
DepartureRing::grow(std::uint64_t ahead)
{
    std::size_t n = slots_.size();
    while (n <= ahead)
        n *= 2;
    std::vector<std::vector<Record>> wider(n);
    for (std::uint64_t b = base_; b < end_; ++b)
        wider[b & (n - 1)] = std::move(slots_[b & mask_]);
    slots_.swap(wider);
    mask_ = n - 1;
}

void
DepartureRing::handOff()
{
    while (!overflow_.empty() &&
           overflow_.begin()->first - base_ < kWindow) {
        auto node = overflow_.extract(overflow_.begin());
        const std::uint64_t b = node.key();
        if (b - base_ >= slots_.size())
            grow(b - base_);
        std::vector<Record> &slot = slots_[b & mask_];
        slot.swap(node.mapped());
        inRing_ += slot.size();
        end_ = std::max(end_, b + 1);
        if (node.mapped().capacity() != 0)
            recycle(node.mapped());
    }
}

std::vector<std::uint32_t>
DepartureRing::countsByRecord() const
{
    std::vector<std::uint32_t> counts(servers_ * kNumWorkloads, 0);
    forEachBucket([&](std::uint64_t, const std::vector<Record> &bucket) {
        for (const Record record : bucket)
            ++counts[record];
    });
    return counts;
}

void
DepartureRing::saveState(Serializer &out) const
{
    std::size_t buckets = 0;
    forEachBucket(
        [&](std::uint64_t, const std::vector<Record> &) { ++buckets; });
    out.putSize(buckets);
    forEachBucket([&](std::uint64_t b, const std::vector<Record> &bucket) {
        out.putU64(b);
        out.putSize(bucket.size());
        out.putU32s(bucket);
    });
}

void
DepartureRing::loadState(Deserializer &in, Seconds resume)
{
    restart(resume);
    const std::size_t buckets =
        boundedCount(in, kBucketHeaderBytes, "bucket");
    const std::uint64_t records = servers_ * kNumWorkloads;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
        const std::uint64_t b = in.getU64();
        if (b < base_ || b > static_cast<std::uint64_t>(kMaxBucket) ||
            (i > 0 && b <= prev))
            fatal("snapshot departure ledger: bucket " + str(b) +
                  " is out of drain order (resume bucket " +
                  str(base_) + ", previous " + str(prev) + ")");
        prev = b;
        const std::size_t count =
            boundedCount(in, kRecordBytes, "record");
        for (std::size_t j = 0; j < count; ++j) {
            const Record record = in.getU32();
            if (record >= records)
                fatal("snapshot departure ledger: record " +
                      str(record) + " names server " +
                      str(serverOf(record)) + " of a " +
                      str(servers_) + "-server pod");
            file(b, record);
        }
    }
}

void
DepartureRing::loadLegacy(Deserializer &in, Seconds resume)
{
    restart(resume);
    struct Slot
    {
        std::size_t server;
        WorkloadType type;
        std::uint32_t pos;
    };
    const std::size_t slot_count =
        boundedCount(in, kLegacySlotBytes, "job slot");
    std::vector<Slot> slots;
    slots.reserve(slot_count);
    for (std::size_t i = 0; i < slot_count; ++i) {
        Slot slot;
        slot.server = in.getSize();
        const std::uint8_t type = in.getU8();
        slot.pos = in.getU32();
        if (type >= kNumWorkloads)
            fatal("snapshot job slot " + str(i) +
                  " has invalid workload type " + str(type));
        if (slot.server >= servers_ && slot.server != kLegacyTombstone)
            fatal("snapshot job slot " + str(i) + " names server " +
                  str(slot.server) + " of a " + str(servers_) +
                  "-server pod");
        slot.type = static_cast<WorkloadType>(type);
        slots.push_back(slot);
    }
    const auto slotId = [&](const char *what) {
        const std::uint32_t id = in.getU32();
        if (id >= slot_count)
            fatal("snapshot " + std::string(what) +
                  " references job slot " + str(id) + " of " +
                  str(slot_count));
        return id;
    };

    const std::size_t free_count =
        boundedCount(in, kRecordBytes, "free slot");
    for (std::size_t i = 0; i < free_count; ++i)
        slotId("freelist");

    // Residency lists: every entry must be the slot the table places
    // at that server, type and list position.
    for (std::size_t server = 0; server < servers_; ++server) {
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t count =
                boundedCount(in, kRecordBytes, "resident job");
            for (std::size_t pos = 0; pos < count; ++pos) {
                const Slot &slot = slots[slotId("residency list")];
                if (slot.server != server || slot.type != type ||
                    slot.pos != pos)
                    fatal("snapshot residency list of server " +
                          str(server) + " type " +
                          str(workloadIndex(type)) + " position " +
                          str(pos) +
                          " disagrees with the job slot table");
            }
        }
    }

    const std::size_t pending =
        boundedCount(in, kLegacyDepartureBytes, "departure");
    for (std::size_t i = 0; i < pending; ++i) {
        const Seconds time = in.getDouble();
        const Slot &slot = slots[slotId("departure")];
        if (slot.server != kLegacyTombstone) // Tombstones leave no record.
            schedule(time, pack(slot.server, slot.type));
    }
}

} // namespace vmt
