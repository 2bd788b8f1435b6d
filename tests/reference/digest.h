/**
 * @file
 * 64-bit FNV-1a digests of simulation outputs, for tests that pin the
 * single production path to outputs recorded from the retired
 * reference implementations (see DESIGN.md §13/§14). Doubles are
 * hashed by bit pattern, so a digest match is a bitwise match.
 */

#ifndef VMT_TESTS_REFERENCE_DIGEST_H
#define VMT_TESTS_REFERENCE_DIGEST_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "util/heatmap.h"
#include "util/time_series.h"

namespace vmt::reference {

/** Running FNV-1a digest. */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= p[i];
            state_ *= 0x100000001b3ull;
        }
    }

    void addU64(std::uint64_t value) { addBytes(&value, sizeof value); }

    void addDouble(double value)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        addU64(bits);
    }

    void addString(const std::string &text)
    {
        addU64(text.size());
        addBytes(text.data(), text.size());
    }

    void addSeries(const TimeSeries &series)
    {
        addU64(series.size());
        for (std::size_t i = 0; i < series.size(); ++i)
            addDouble(series.at(i));
    }

    void addHeatmap(const std::optional<Heatmap> &map)
    {
        addU64(map.has_value());
        if (!map)
            return;
        addU64(map->rows());
        addU64(map->cols());
        for (std::size_t r = 0; r < map->rows(); ++r)
            for (std::size_t c = 0; c < map->cols(); ++c)
                addDouble(map->at(r, c));
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/** Digest of a byte buffer (serialized snapshots). */
inline std::uint64_t
digestBytes(const std::vector<std::uint8_t> &bytes)
{
    Digest d;
    d.addBytes(bytes.data(), bytes.size());
    return d.value();
}

/** Digest of every series, heatmap and aggregate of a SimResult. */
inline std::uint64_t
digestResult(const SimResult &r)
{
    Digest d;
    d.addString(r.schedulerName);
    for (const TimeSeries *series :
         {&r.coolingLoad, &r.totalPower, &r.waxHeatFlow, &r.meanAirTemp,
          &r.hotGroupTemp, &r.hotGroupSizeSeries, &r.meanMeltFraction,
          &r.utilization, &r.inletTemp, &r.aliveServers})
        d.addSeries(*series);
    d.addHeatmap(r.airTempMap);
    d.addHeatmap(r.meltMap);
    for (const double value : {r.peakCoolingLoad, r.peakPower,
                               r.maxMeltFraction, r.maxAirTemp})
        d.addDouble(value);
    for (const std::uint64_t count :
         {r.overheatedServerIntervals, r.throttledServerIntervals,
          r.droppedJobs, r.migrations, r.placedJobs, r.evacuatedJobs,
          r.lostJobs, r.criticalServerIntervals})
        d.addU64(count);
    return d.value();
}

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_DIGEST_H
