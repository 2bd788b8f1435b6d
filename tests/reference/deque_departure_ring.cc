#include "reference/deque_departure_ring.h"

#include <cmath>
#include <limits>
#include <string>

#include "state/serializer.h"
#include "util/logging.h"
#include "workload/workload.h"

namespace vmt::reference {

DequeDepartureRing::DequeDepartureRing(Seconds interval,
                                       std::size_t servers)
    : dt_(interval), invDt_(1.0 / interval),
      maxTime_(std::min(static_cast<double>(kMaxBucket) * interval,
                        std::numeric_limits<double>::max())),
      servers_(servers)
{
    if (!(interval > 0.0 && std::isfinite(interval)))
        fatal("DequeDepartureRing requires a positive interval");
}

void
DequeDepartureRing::badTime(Seconds time)
{
    fatal("DequeDepartureRing: due time " + std::to_string(time) +
          " s has no bucket");
}

void
DequeDepartureRing::restart(Seconds resume)
{
    window_.clear();
    overflow_.clear();
    size_ = 0;
    base_ = bucketOf(resume);
}

void
DequeDepartureRing::saveState(Serializer &out) const
{
    std::size_t buckets = 0;
    forEachBucket(
        [&](std::uint64_t, const std::vector<Record> &) { ++buckets; });
    out.putSize(buckets);
    forEachBucket([&](std::uint64_t b, const std::vector<Record> &bucket) {
        out.putU64(b);
        out.putSize(bucket.size());
        for (const Record record : bucket)
            out.putU32(record);
    });
}

void
DequeDepartureRing::loadState(Deserializer &in, Seconds resume)
{
    restart(resume);
    const std::size_t buckets = in.getSize();
    const std::uint64_t records = servers_ * kNumWorkloads;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
        const std::uint64_t b = in.getU64();
        if (b < base_ || b > kMaxBucket || (i > 0 && b <= prev))
            fatal("DequeDepartureRing: bucket out of drain order");
        prev = b;
        const std::size_t count = in.getSize();
        for (std::size_t j = 0; j < count; ++j) {
            const Record record = in.getU32();
            if (record >= records)
                fatal("DequeDepartureRing: record out of range");
            file(b, record);
        }
    }
}

} // namespace vmt::reference
