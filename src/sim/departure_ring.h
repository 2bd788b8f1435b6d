/**
 * @file
 * The drivers' departure ledger: one interval-bucketed ring of packed
 * (server, type) records.
 *
 * A job is one core of one workload type, and a server's power
 * depends only on its per-type core counts, so a departure needs no
 * job identity: at the boundary it falls due, it is one
 * Cluster::removeJob(server, type). The ring files each departure as
 * a 4-byte record, server * kNumWorkloads + type, into the bucket of
 * the first interval boundary at or after its due time:
 *
 *  - bucket b holds due times t with double(b)*dt >= t and, for
 *    b > 0, double(b-1)*dt < t — the drivers' own boundary
 *    expression, so a record drains exactly at the boundary that
 *    a time-ordered event queue would pop it at;
 *  - a record due at or before the last drained boundary is late and
 *    joins the next bucket to drain;
 *  - drain(now) hands over every bucket whose boundary is at or
 *    before `now`, in bucket order and, within a bucket, in append
 *    order. Removals within an interval commute, so nothing is
 *    sorted.
 *
 * Memory scales with the number of pending records, whatever their
 * due times. In-window buckets live in a flat power-of-two array of
 * slots, bucket b in slot b & mask: it starts at kMinSlots and
 * doubles, up to kWindow, when a record is filed further ahead than
 * it reaches. Records kWindow or more buckets past the drain position
 * wait in an overflow ordered by bucket until the window reaches
 * them. A due time that is not finite, negative, or in a bucket whose
 * index reaches 2^53 is a fatal, and so is any filing once a drain
 * has passed the last bucket. A drained bucket hands its storage
 * to a spare pool and an empty slot takes a spare on its first
 * filing, so the steady state performs no allocation. (DESIGN.md
 * §8b.)
 *
 * Which job an evacuation or a migration moves is a rule over this
 * ring (evacuateServers, migrateRecords); DESIGN.md §11 and §16
 * state it.
 */

#ifndef VMT_SIM_DEPARTURE_RING_H
#define VMT_SIM_DEPARTURE_RING_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

class Cluster;
class Deserializer;
class Serializer;
struct Job;
struct MigrationRequest;

class DepartureRing
{
  public:
    /** server * kNumWorkloads + type. */
    using Record = std::uint32_t;

    /**
     * @param interval The driver's step length dt (> 0).
     * @param servers Pod size; every record names a server below it.
     * @throws FatalError on a non-positive interval or a pod too
     *         large for 32-bit records.
     */
    DepartureRing(Seconds interval, std::size_t servers);

    static Record
    pack(std::size_t server, WorkloadType type)
    {
        return static_cast<Record>(server * kNumWorkloads +
                                   workloadIndex(type));
    }

    static std::size_t serverOf(Record r) { return r / kNumWorkloads; }

    static WorkloadType
    typeOf(Record r)
    {
        return static_cast<WorkloadType>(r % kNumWorkloads);
    }

    std::size_t servers() const { return servers_; }

    /**
     * File a record due at an absolute time: into its bucket, or the
     * next bucket to drain when it is late.
     * @throws FatalError when the time is NaN, negative, or beyond
     *         the last representable bucket (infinite included), or
     *         when a drain has passed that bucket.
     */
    void
    schedule(Seconds due, Record record)
    {
        file(std::max(bucketOf(due), base_), record);
    }

    /**
     * Hand fn(record) every record in a bucket whose boundary lies
     * at or before `now`, in bucket order, then append order. fn must
     * not schedule into the ring.
     */
    template <typename Fn>
    void
    drain(Seconds now, Fn &&fn)
    {
        const std::uint64_t limit = bucketAfter(now);
        while (base_ < limit) {
            if (inRing_ == 0) {
                // Jump over the empty stretch to the first overflow
                // bucket or to `limit`, whichever comes first.
                std::uint64_t next = limit;
                if (!overflow_.empty())
                    next = std::min(next, overflow_.begin()->first);
                advanceTo(next);
                continue;
            }
            std::vector<Record> &slot = slots_[base_ & mask_];
            for (const Record record : slot)
                fn(record);
            inRing_ -= slot.size();
            size_ -= slot.size();
            if (slot.capacity() != 0)
                recycle(slot);
            advanceTo(base_ + 1);
        }
        if (base_ > static_cast<std::uint64_t>(kMaxBucket)) [[unlikely]]
            slots_.clear(); // Every later filing takes fileFar's fatal.
    }

    /** True when no records are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending records (jobs in flight). */
    std::size_t size() const { return size_; }

    /** Boundary time of bucket b: double(b) * dt. */
    Seconds
    boundary(std::uint64_t b) const
    {
        return at(static_cast<std::int64_t>(b));
    }

    /**
     * Visit every non-empty pending bucket in drain order as
     * fn(index, records), then every overflow bucket (one a removeIf
     * emptied included). fn may rewrite records in place but not add,
     * remove or schedule.
     */
    template <typename Fn>
    void
    forEachBucket(Fn &&fn)
    {
        for (std::uint64_t b = base_; b < end_; ++b)
            if (!slots_[b & mask_].empty())
                fn(b, slots_[b & mask_]);
        for (auto &[b, bucket] : overflow_)
            fn(b, bucket);
    }

    template <typename Fn>
    void
    forEachBucket(Fn &&fn) const
    {
        for (std::uint64_t b = base_; b < end_; ++b)
            if (!slots_[b & mask_].empty())
                fn(b, std::as_const(slots_[b & mask_]));
        for (const auto &[b, bucket] : overflow_)
            fn(b, bucket);
    }

    /**
     * Remove every pending record for which pred(index, record) is
     * true, in drain order; the others keep their buckets and order.
     */
    template <typename Pred>
    void
    removeIf(Pred &&pred)
    {
        forEachBucket([&](std::uint64_t b, std::vector<Record> &bucket) {
            std::size_t kept = 0;
            for (const Record record : bucket)
                if (!pred(b, record))
                    bucket[kept++] = record;
            const std::size_t removed = bucket.size() - kept;
            size_ -= removed;
            // Slot buckets lie within kWindow of the drain position,
            // overflow buckets beyond it.
            if (b - base_ < kWindow)
                inRing_ -= removed;
            bucket.resize(kept);
        });
    }

    /** Records pending per (server, type), indexed by record. */
    std::vector<std::uint32_t> countsByRecord() const;

    /**
     * Checkpoint: each non-empty pending bucket in drain order — its
     * index, its record count and its records (4 B each).
     */
    void saveState(Serializer &out) const;

    /**
     * Rebuild a fresh ring from saveState() bytes for a run resuming
     * at boundary `resume` (the next bucket to drain).
     * @throws FatalError on a count larger than the bytes left, a
     *         record naming a server or type out of range, or a
     *         bucket out of drain order or before `resume`'s.
     */
    void loadState(Deserializer &in, Seconds resume);

    /**
     * Convert a format v1/v2 job ledger (slot table, freelist,
     * per-(server, type) residency lists, departures in pop order)
     * into records, for a run resuming at `resume`. Each live
     * departure becomes a record in its time's bucket (a late one
     * drains at the resume boundary); tombstones are dropped;
     * residency lists are checked, then discarded.
     * @throws FatalError on any count, slot id, server id, type or
     *         residency position the ledger cannot hold.
     */
    void loadLegacy(Deserializer &in, Seconds resume);

    /**
     * Smallest b with double(b) * dt >= time. The cast-then-multiply
     * form matches the drivers' boundary expression bit for bit. The
     * multiply-by-1/dt guess, moved up one bucket when its boundary
     * lies below `time`, is exact unless the product rounded across a
     * boundary; the check sends that case to the correction loops.
     * Indices stay below 2^53 + 2, so the signed conversions give the
     * unsigned ones' values.
     * @throws FatalError as schedule() does.
     */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (!(time >= 0.0 && time <= maxTime_)) [[unlikely]]
            badTime(time);
        std::int64_t b =
            std::min(static_cast<std::int64_t>(time * invDt_), kMaxBucket);
        b += at(b) < time;
        // at(-1) < 0 <= time, so b = 0 needs no test of its own.
        if (at(b) < time || at(b - 1) >= time) [[unlikely]]
            b = exactBucket(time, b);
        return static_cast<std::uint64_t>(b);
    }

  private:
    /** Largest bucket index: every index up to it is an exact
     *  double, so the boundary expression stays strictly monotone. */
    static constexpr std::int64_t kMaxBucket =
        (std::int64_t{1} << 53) - 1;
    /** Slots of a new ring. */
    static constexpr std::size_t kMinSlots = 16;
    /** Dense buckets from the drain position on (the most slots);
     *  later ones wait in the overflow. */
    static constexpr std::uint64_t kWindow = 4096;
    /** Spare vectors kept beyond this are freed. */
    static constexpr std::size_t kMaxSpare = 64;

    /** Names why `time` has no bucket. */
    [[noreturn]] static void badTime(Seconds time);

    /** double(b) * dt, converted through a signed integer. */
    Seconds
    at(std::int64_t b) const
    {
        return static_cast<double>(b) * dt_;
    }

    /** bucketOf()'s correction loops, from any start in
     *  [0, kMaxBucket]. */
    std::int64_t exactBucket(Seconds time, std::int64_t b) const;

    /** Reset to an empty ring whose next drained bucket is the one of
     *  `resume` (checkpoint restore). */
    void restart(Seconds resume);

    void
    file(std::uint64_t b, Record record)
    {
        if (b - base_ < slots_.size()) [[likely]]
            fileInRing(b, record);
        else
            fileFar(b, record);
        ++size_;
    }

    /** File into bucket b, which the slots reach. */
    void
    fileInRing(std::uint64_t b, Record record)
    {
        std::vector<Record> &slot = slots_[b & mask_];
        if (slot.capacity() == 0) [[unlikely]]
            takeSpare(slot);
        slot.push_back(record);
        ++inRing_;
        end_ = std::max(end_, b + 1);
    }

    /** File into bucket b, which the slots do not reach: double them
     *  until they do, or, kWindow or more buckets out, file into the
     *  overflow. @throws FatalError once a drain has passed the last
     *  bucket (no slots are left then). */
    void fileFar(std::uint64_t b, Record record);

    /** Widen the slots to the next power of two past `ahead` buckets
     *  from the drain position; every in-window bucket moves to its
     *  slot under the new mask. */
    void grow(std::uint64_t ahead);

    /** Smallest bucket whose boundary lies after `now`: every bucket
     *  before it can only hold records due by `now`. */
    std::uint64_t
    bucketAfter(Seconds now) const
    {
        if (!(now >= 0.0))
            return 0;
        if (!(now < maxTime_))
            return static_cast<std::uint64_t>(kMaxBucket) + 1;
        const std::uint64_t b = bucketOf(now);
        return b + (boundary(b) <= now);
    }

    /** Make bucket b the front and hand over the overflow buckets the
     *  window now covers. */
    void
    advanceTo(std::uint64_t b)
    {
        base_ = b;
        end_ = std::max(end_, b);
        if (!overflow_.empty() &&
            overflow_.begin()->first - base_ < kWindow) [[unlikely]]
            handOff();
    }

    /** Move every overflow bucket the window covers into its slot.
     *  Overflow records were all filed before their bucket entered
     *  the window, so they keep going first. */
    void handOff();

    void
    recycle(std::vector<Record> &bucket)
    {
        bucket.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(bucket));
        else
            std::vector<Record>().swap(bucket);
    }

    void
    takeSpare(std::vector<Record> &slot)
    {
        if (spare_.empty())
            return;
        slot.swap(spare_.back());
        spare_.pop_back();
    }

    Seconds dt_;
    double invDt_;
    /** Boundary of bucket kMaxBucket (finite): the latest
     *  schedulable time. */
    Seconds maxTime_;
    std::size_t servers_;
    /** In-window bucket b lives in slots_[b & mask_]; a power of two
     *  from kMinSlots to kWindow slots, none once a drain has passed
     *  the last bucket. */
    std::vector<std::vector<Record>> slots_;
    std::size_t mask_;
    /** Buckets at base_ + kWindow and beyond, by index. */
    std::map<std::uint64_t, std::vector<Record>> overflow_;
    /** The next bucket to drain. */
    std::uint64_t base_ = 0;
    /** One past the last in-window bucket that can be non-empty. */
    std::uint64_t end_ = 0;
    std::vector<std::vector<Record>> spare_;
    /** Records pending in all, and in the slots. */
    std::size_t size_ = 0;
    std::size_t inRing_ = 0;
};

/**
 * The evacuation rule (both drivers). One pass over the pending
 * records, in drain order, removes every record of a server in
 * `servers` and keeps its bucket per (server, type). The refugee
 * batch is then built server by server and type by type from the
 * cluster's counts, each job removed from the cluster, so the type
 * sequence placement sees does not depend on the ring. The i-th
 * refugee of a (server, type)
 * keeps the bucket of that pair's i-th record: dues[k] is that
 * bucket's boundary time, which schedule() maps back to the bucket.
 * Panics when a pair's record count differs from the cluster's.
 */
void evacuateServers(DepartureRing &ring, Cluster &cluster,
                     const std::vector<std::size_t> &servers,
                     std::vector<Job> &refugees,
                     std::vector<Seconds> &dues);

/**
 * The migration rule (runSimulation with a migration budget). For
 * moves already applied to the cluster's counts, in request order,
 * one pass over the pending records gives each move the source's
 * earliest-draining record of that type at its turn (records moved
 * in by an earlier move count), rewriting it in place to name the
 * destination. Panics when a source has too few records.
 */
void migrateRecords(DepartureRing &ring,
                    const std::vector<MigrationRequest> &moves);

/**
 * Snapshot check: the ring holds exactly the cluster's per-(server,
 * type) core counts. @throws FatalError naming the first pair that
 * differs.
 */
void checkLedger(const DepartureRing &ring, const Cluster &cluster);

} // namespace vmt

#endif // VMT_SIM_DEPARTURE_RING_H
