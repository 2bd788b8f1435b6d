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
 * due times: the ring stays anchored at its drain position, the
 * kWindow buckets from there on are dense, and records further out
 * wait in an overflow ordered by bucket until the window reaches
 * them. A due time that is not finite, negative, or in a bucket whose
 * index reaches 2^53 is a fatal. Drained bucket storage is recycled
 * through a spare pool, so the steady state performs no allocation.
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
#include <deque>
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
     *         the last representable bucket (infinite included).
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
            if (window_.empty()) {
                // Jump over the empty stretch to the first overflow
                // bucket or to `limit`, whichever comes first.
                std::uint64_t next = limit;
                if (!overflow_.empty())
                    next = std::min(next, overflow_.begin()->first);
                advanceTo(next);
                continue;
            }
            std::vector<Record> &front = window_.front();
            for (const Record record : front)
                fn(record);
            size_ -= front.size();
            recycle(std::move(front));
            window_.pop_front();
            advanceTo(base_ + 1);
        }
    }

    /** True when no records are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending records (jobs in flight). */
    std::size_t size() const { return size_; }

    /** Boundary time of bucket b: double(b) * dt. */
    Seconds
    boundary(std::uint64_t b) const
    {
        return static_cast<double>(b) * dt_;
    }

    /**
     * Visit every non-empty pending bucket in drain order as
     * fn(index, records). fn may rewrite records in place but not
     * schedule.
     */
    template <typename Fn>
    void
    forEachBucket(Fn &&fn)
    {
        for (std::size_t i = 0; i < window_.size(); ++i)
            if (!window_[i].empty())
                fn(base_ + i, window_[i]);
        for (auto &[b, bucket] : overflow_)
            fn(b, bucket);
    }

    template <typename Fn>
    void
    forEachBucket(Fn &&fn) const
    {
        for (std::size_t i = 0; i < window_.size(); ++i)
            if (!window_[i].empty())
                fn(base_ + i, std::as_const(window_[i]));
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
            size_ -= bucket.size() - kept;
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
     * form matches the drivers' boundary expression bit for bit; the
     * multiply-by-1/dt guess is only a guess — the correction loops
     * (one iteration in practice) make the result exact.
     * @throws FatalError as schedule() does.
     */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (!(time >= 0.0 && time <= maxTime_))
            badTime(time);
        auto b = std::min(static_cast<std::uint64_t>(time * invDt_),
                          kMaxBucket);
        while (b > 0 && boundary(b - 1) >= time)
            --b;
        while (boundary(b) < time)
            ++b;
        return b;
    }

  private:
    /** Largest bucket index: every index up to it is an exact
     *  double, so the boundary expression stays strictly monotone. */
    static constexpr std::uint64_t kMaxBucket =
        (std::uint64_t{1} << 53) - 1;
    /** Dense buckets from the drain position on; later ones wait in
     *  the overflow. */
    static constexpr std::uint64_t kWindow = 4096;
    /** Spare vectors kept beyond this are freed. */
    static constexpr std::size_t kMaxSpare = 64;

    /** Names why `time` has no bucket. */
    [[noreturn]] static void badTime(Seconds time);

    /** Reset to an empty ring whose next drained bucket is the one of
     *  `resume` (checkpoint restore). */
    void restart(Seconds resume);

    void
    file(std::uint64_t b, Record record)
    {
        if (b - base_ < kWindow)
            bucketAt(b).push_back(record);
        else
            overflow_[b].push_back(record);
        ++size_;
    }

    /** Smallest bucket whose boundary lies after `now`: every bucket
     *  before it can only hold records due by `now`. */
    std::uint64_t
    bucketAfter(Seconds now) const
    {
        if (!(now >= 0.0))
            return 0;
        if (!(now < maxTime_))
            return kMaxBucket + 1;
        const std::uint64_t b = bucketOf(now);
        return boundary(b) > now ? b : b + 1;
    }

    /** The storage for in-window bucket b, growing the window as
     *  needed. */
    std::vector<Record> &
    bucketAt(std::uint64_t b)
    {
        const auto i = static_cast<std::size_t>(b - base_);
        while (window_.size() <= i)
            window_.push_back(takeSpare());
        return window_[i];
    }

    /** Make bucket b the front and move the overflow buckets the
     *  window now covers into it. Overflow records were all filed
     *  before their bucket entered the window, so they keep going
     *  first. */
    void
    advanceTo(std::uint64_t b)
    {
        base_ = b;
        while (!overflow_.empty() &&
               overflow_.begin()->first - base_ < kWindow) {
            auto node = overflow_.extract(overflow_.begin());
            bucketAt(node.key()).swap(node.mapped());
            recycle(std::move(node.mapped()));
        }
    }

    void
    recycle(std::vector<Record> &&bucket)
    {
        bucket.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(bucket));
    }

    std::vector<Record>
    takeSpare()
    {
        if (spare_.empty())
            return {};
        std::vector<Record> v = std::move(spare_.back());
        spare_.pop_back();
        return v;
    }

    Seconds dt_;
    double invDt_;
    /** Boundary of bucket kMaxBucket (finite): the latest
     *  schedulable time. */
    Seconds maxTime_;
    std::size_t servers_;
    /** Buckets base_ .. base_ + window_.size() - 1 (< kWindow). */
    std::deque<std::vector<Record>> window_;
    /** Buckets at base_ + kWindow and beyond, by index. */
    std::map<std::uint64_t, std::vector<Record>> overflow_;
    /** The next bucket to drain. */
    std::uint64_t base_ = 0;
    std::vector<std::vector<Record>> spare_;
    std::size_t size_ = 0;
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
