#include "server/cluster.h"

#include "state/serializer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {

namespace {

/**
 * Chunk size for the parallel thermal path. Fixed (never derived from
 * the thread count) so chunk boundaries — and therefore every
 * per-chunk computation — are reproducible across pool sizes.
 */
constexpr std::size_t kThermalGrain = 64;

/**
 * Fleet size from which stepThermal fans the batched chunks out on the
 * global pool. The 100-server sweep configurations stay on the serial
 * loop, which is faster at that scale; the 1,000-server headline runs
 * fan out. Scheduling only: values never depend on it.
 */
constexpr std::size_t kThermalParallelThreshold = 256;

/** Parallelize per-server work for this many servers? */
bool
useParallelPath(std::size_t num_servers)
{
    return num_servers >= kThermalParallelThreshold &&
           globalPool().size() > 1;
}

} // namespace

Cluster::Cluster(std::size_t num_servers, const ServerSpec &spec,
                 const ServerThermalParams &thermal,
                 const PowerModel &power,
                 const std::vector<Kelvin> &inlet_offsets)
    : spec_(spec),
      thermal_(thermal),
      power_(power)
{
    if (num_servers == 0)
        fatal("Cluster requires at least one server");
    if (!inlet_offsets.empty() && inlet_offsets.size() != num_servers)
        fatal("Cluster inlet_offsets must be empty or one per server");

    soa_ = std::make_unique<ThermalSoA>(thermal, num_servers,
                                        inlet_offsets);
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i)
        servers_.emplace_back(i, spec, *soa_);
    totalCores_ = num_servers * spec.cores();
    aliveServers_ = num_servers;
    powerDirty_.assign((num_servers + 63) / 64, 0);
    markAllPowerDirty();
}

void
Cluster::markAllPowerDirty()
{
    for (std::uint64_t &word : powerDirty_)
        word = ~std::uint64_t{0};
}

void
Cluster::refreshPowerArray()
{
    // Walk set bits only: between steps, only servers whose draw
    // could have changed (job churn, health, throttle, mutable
    // access) are re-read. Failed servers get 0 W written directly —
    // the same value Server::refreshPowerCache produces.
    for (std::size_t w = 0; w < powerDirty_.size(); ++w) {
        std::uint64_t word = powerDirty_[w];
        powerDirty_[w] = 0;
        while (word != 0) {
            const auto bit = static_cast<std::size_t>(
                __builtin_ctzll(word));
            word &= word - 1;
            const std::size_t id = (w << 6) + bit;
            if (id >= servers_.size())
                break;
            soa_->setPower(id, soa_->failed(id)
                                   ? 0.0
                                   : servers_[id].power(power_));
        }
    }
}

void
Cluster::setHealth(std::size_t server_id, ServerHealth health)
{
    if (server_id >= servers_.size())
        panic("Cluster::setHealth out of range");
    Server &srv = servers_[server_id];
    const bool was_alive = srv.alive();
    srv.setHealth(health);
    const bool is_alive = srv.alive();
    if (was_alive && !is_alive)
        --aliveServers_;
    else if (!was_alive && is_alive)
        ++aliveServers_;
    // A health flip changes the server's power draw (Failed = 0 W) —
    // and only that server's, so only its gather entry goes stale.
    markPowerDirty(server_id);
}

Server &
Cluster::server(std::size_t id)
{
    if (id >= servers_.size())
        panic("Cluster::server out of range");
    // Mutable access can change a server's job mix behind the
    // cluster's back; conservatively drop the gathered power for this
    // one server. (Read-only scans should use the const overload
    // precisely to avoid this.)
    markPowerDirty(id);
    return servers_[id];
}

Watts
Cluster::totalPower() const
{
    Watts total = 0.0;
    for (const Server &srv : servers_)
        total += srv.power(power_);
    return total;
}

ClusterSample
Cluster::stepThermal(Seconds dt, Celsius hot_threshold)
{
    const std::size_t n = servers_.size();

    // Gather stale power entries, then batch-step. Per-server values
    // are independent of the chunk boundaries.
    refreshPowerArray();
    soa_->beginStep(dt);
    if (useParallelPath(n)) {
        parallelFor(globalPool(), 0, n, kThermalGrain,
                    [&](std::size_t begin, std::size_t end) {
                        soa_->stepChunk(begin, end);
                    });
    } else {
        soa_->stepChunk(0, n);
    }

    // Serial index-order reduction: the expression shapes (and order)
    // of the per-object reference step (tests/reference/), so the
    // sample is bitwise the same.
    ClusterSample agg;
    const ThermalSoA &soa = *soa_;
    // Pure reduction first, throttle scan second: the reduction body
    // is then call-free straight-line code, so the accumulators live
    // in registers for the whole sweep (applyThrottle in the same
    // loop would clobber memory every iteration as far as the
    // compiler knows). n >= 1 (ThermalSoA enforces it), so seeding
    // the running max with server 0 matches a first-iteration seed
    // exactly.
    agg.maxAirTemp = soa.airTemp(0);
    for (std::size_t i = 0; i < n; ++i) {
        const Watts wax_flow = soa.waxFlow(i);
        const Watts rejected = soa.power(i) - wax_flow;
        const Celsius air = soa.airTemp(i);
        agg.totalPower += rejected + wax_flow;
        agg.coolingLoad += rejected;
        agg.waxHeatFlow += wax_flow;
        agg.meanAirTemp += air;
        agg.meanMeltFraction += soa.meltFraction(i);
        if (air > agg.maxAirTemp)
            agg.maxAirTemp = air;
        if (air >= hot_threshold)
            ++agg.serversAboveThreshold;
    }

    // Hysteresis scan over the contiguous CPU-temperature and
    // throttle-latch arrays; only actual flips (rare) touch the
    // scattered Server objects. Skipped outright when no flip is
    // possible: nobody is throttled (so no releases) and either
    // throttling is disabled or no CPU reached the limit (so no
    // onsets) — max is exact, so the gate is, too.
    const Celsius cpu_limit = thermal_.cpuLimit;
    const Celsius cpu_release =
        thermal_.cpuLimit - thermal_.throttleHysteresis;
    const bool can_throttle = thermal_.throttleFactor < 1.0;
    if (soa.anyThrottled() ||
        (can_throttle && soa.maxCpuTemp() >= cpu_limit)) {
        for (std::size_t i = 0; i < n; ++i) {
            const bool was_throttled = soa.throttled(i);
            const Celsius cpu = soa.cpuTemp(i);
            const bool may_flip =
                was_throttled ? cpu < cpu_release
                              : (cpu >= cpu_limit && can_throttle);
            bool now_throttled = was_throttled;
            if (may_flip && servers_[i].applyThrottle(cpu)) {
                now_throttled = !was_throttled;
                markPowerDirty(i);
            }
            if (now_throttled)
                ++agg.throttledServers;
        }
    }
    const auto count = static_cast<double>(n);
    agg.meanAirTemp /= count;
    agg.meanMeltFraction /= count;
    return agg;
}

void
Cluster::setBaseInlet(Celsius inlet)
{
    thermal_.inletTemp = inlet;
    for (std::size_t i = 0; i < servers_.size(); ++i)
        soa_->setBaseInlet(i, inlet);
}

void
Cluster::setBaseInlet(std::size_t server_id, Celsius inlet)
{
    if (server_id >= servers_.size())
        panic("Cluster::setBaseInlet out of range");
    // An inlet change affects thermal state only, so neither the
    // total-power cache nor the gathered power entry needs
    // invalidating.
    soa_->setBaseInlet(server_id, inlet);
}

void
Cluster::saveState(Serializer &out) const
{
    out.putSize(servers_.size());
    out.putSize(busyCores_);
    for (std::size_t count : active_)
        out.putSize(count);
    out.putDouble(thermal_.inletTemp);
    for (const Server &srv : servers_)
        srv.saveState(out);
}

void
Cluster::loadState(Deserializer &in)
{
    const std::size_t num_servers = in.getSize();
    if (num_servers != servers_.size())
        fatal("Cluster::loadState: snapshot has " +
              std::to_string(num_servers) + " servers, cluster has " +
              std::to_string(servers_.size()));
    busyCores_ = in.getSize();
    for (std::size_t &count : active_)
        count = in.getSize();
    thermal_.inletTemp = in.getDouble();
    CoreCounts active{};
    std::size_t busy = 0;
    for (Server &srv : servers_) {
        srv.loadState(in);
        const auto reject = [&srv] {
            fatal("Cluster::loadState: snapshot server " +
                  std::to_string(srv.id()) +
                  "'s job counts do not fit its " +
                  std::to_string(srv.cores()) + " cores and " +
                  std::to_string(srv.busyCores()) + " busy cores");
        };
        // Each count is checked against the cores still free before
        // it is added, so no sum can wrap.
        std::size_t jobs = 0;
        for (std::size_t t = 0; t < kNumWorkloads; ++t) {
            const std::size_t count = srv.coreCounts()[t];
            if (count > srv.cores() - jobs)
                reject();
            jobs += count;
            active[t] += count;
        }
        if (jobs != srv.busyCores())
            reject();
        busy += jobs;
    }
    if (busy != busyCores_ || active != active_)
        fatal("Cluster::loadState: snapshot totals disagree with its "
              "servers' job counts");
    markAllPowerDirty();
}

Celsius
Cluster::meanAirTemp(std::size_t count) const
{
    if (count == 0 || count > servers_.size())
        fatal("Cluster::meanAirTemp requires 0 < count <= numServers");
    Celsius sum = 0.0;
    for (std::size_t i = 0; i < count; ++i)
        sum += servers_[i].airTemp();
    return sum / static_cast<double>(count);
}

} // namespace vmt
