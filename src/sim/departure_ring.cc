#include "sim/departure_ring.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "sched/scheduler.h"
#include "server/cluster.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "workload/job.h"

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
        if (slot.server >= servers_ && slot.server != kNoServer)
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
        if (slot.server != kNoServer) // Tombstones leave no record.
            schedule(time, pack(slot.server, slot.type));
    }
}

void
evacuateServers(DepartureRing &ring, Cluster &cluster,
                const std::vector<std::size_t> &servers,
                std::vector<Job> &refugees, std::vector<Seconds> &dues)
{
    refugees.clear();
    dues.clear();
    if (servers.empty())
        return;
    // Pair p = (position of the server in `servers`) * K + type. A
    // pair holds one record per running job, so the cluster's counts
    // lay out each pair's slice of `grouped`; the pass over the ring
    // fills the slices in drain order and counts what each pair
    // holds, past the end of its slice too.
    const Cluster &view = cluster;
    const std::size_t pairs = servers.size() * kNumWorkloads;
    std::vector<std::size_t> start(pairs + 1, 0);
    constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> position(ring.servers(), kNone);
    for (std::size_t i = 0; i < servers.size(); ++i) {
        position[servers[i]] = static_cast<std::uint32_t>(i);
        const CoreCounts &counts = view.server(servers[i]).coreCounts();
        for (std::size_t t = 0; t < kNumWorkloads; ++t)
            start[i * kNumWorkloads + t + 1] = counts[t];
    }
    for (std::size_t p = 1; p <= pairs; ++p)
        start[p] += start[p - 1];
    std::vector<std::uint64_t> grouped(start.back());
    std::vector<std::size_t> held(pairs, 0);
    ring.removeIf([&](std::uint64_t b, DepartureRing::Record record) {
        const std::uint32_t i =
            position[DepartureRing::serverOf(record)];
        if (i == kNone)
            return false;
        const std::size_t p = i * kNumWorkloads + record % kNumWorkloads;
        if (start[p] + held[p] < start[p + 1])
            grouped[start[p] + held[p]] = b;
        ++held[p];
        return true;
    });

    refugees.reserve(grouped.size());
    dues.reserve(grouped.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const std::size_t from = servers[i];
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t p = i * kNumWorkloads + workloadIndex(type);
            const std::size_t count = start[p + 1] - start[p];
            if (count != held[p])
                panic("evacuation: server " + str(from) + " runs " +
                      str(count) + " type-" + str(workloadIndex(type)) +
                      " jobs but the departure ring holds " +
                      str(held[p]));
            for (std::size_t k = start[p]; k < start[p + 1]; ++k) {
                cluster.removeJob(from, type);
                refugees.push_back(Job{0, type, 0.0});
                dues.push_back(ring.boundary(grouped[k]));
            }
        }
    }
}

void
migrateRecords(DepartureRing &ring,
               const std::vector<MigrationRequest> &moves)
{
    using Record = DepartureRing::Record;
    if (moves.empty())
        return;
    // Per source (server, type): how many records it gives up — no
    // more of its own records than that can be taken — and its
    // candidates as (drain position, record), earliest first.
    struct Source
    {
        std::size_t gives = 0;
        std::vector<std::pair<std::uint64_t, Record *>> candidates;
    };
    std::map<Record, Source> sources;
    for (const MigrationRequest &move : moves)
        ++sources[DepartureRing::pack(move.fromServer, move.type)].gives;

    // One pass collects each source's earliest-draining records.
    std::size_t wanted = moves.size();
    std::uint64_t position = 0;
    ring.forEachBucket([&](std::uint64_t, std::vector<Record> &bucket) {
        for (Record &record : bucket) {
            if (wanted == 0)
                return;
            const auto it = sources.find(record);
            if (it != sources.end() &&
                it->second.candidates.size() < it->second.gives) {
                it->second.candidates.emplace_back(position, &record);
                --wanted;
            }
            ++position;
        }
    });

    // Serve the moves in request order; a moved record is a
    // candidate at its destination from then on.
    for (const MigrationRequest &move : moves) {
        auto &from =
            sources[DepartureRing::pack(move.fromServer, move.type)]
                .candidates;
        if (from.empty())
            panic("migration: server " + str(move.fromServer) +
                  " has no pending type-" +
                  str(workloadIndex(move.type)) + " record to move");
        const auto taken = from.front();
        from.erase(from.begin());
        const Record to = DepartureRing::pack(move.toServer, move.type);
        *taken.second = to;
        const auto dest = sources.find(to);
        if (dest != sources.end()) {
            auto &into = dest->second.candidates;
            into.insert(std::upper_bound(into.begin(), into.end(),
                                         taken),
                        taken);
        }
    }
}

void
checkLedger(const DepartureRing &ring, const Cluster &cluster)
{
    if (cluster.numServers() != ring.servers())
        fatal("snapshot departure ledger covers " +
              str(ring.servers()) + " servers, the cluster " +
              str(cluster.numServers()));
    const std::vector<std::uint32_t> counts = ring.countsByRecord();
    for (std::size_t server = 0; server < ring.servers(); ++server) {
        const CoreCounts &running = cluster.server(server).coreCounts();
        for (const WorkloadType type : kAllWorkloads) {
            const std::uint32_t pending =
                counts[DepartureRing::pack(server, type)];
            if (pending != running[workloadIndex(type)])
                fatal("snapshot departure ledger holds " +
                      str(pending) + " departures of server " +
                      str(server) + " type " +
                      str(workloadIndex(type)) +
                      ", but the cluster runs " +
                      str(running[workloadIndex(type)]) +
                      " such jobs");
        }
    }
}

} // namespace vmt
