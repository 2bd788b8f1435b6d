#include "reference/reference_fleet.h"

#include "state/serializer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::reference {

ReferenceServer::ReferenceServer(const ServerSpec &spec,
                                 const ServerThermalParams &params,
                                 Kelvin inlet_offset)
    : spec_(spec),
      thermal_(params, inlet_offset),
      estimator_(params.pcm)
{}

void
ReferenceServer::setHealth(ServerHealth health)
{
    health_ = health;
    powerCacheModel_ = nullptr;
}

void
ReferenceServer::addJob(WorkloadType type)
{
    if (!hasCapacity())
        panic("ReferenceServer::addJob on a full server");
    ++counts_[workloadIndex(type)];
    ++busyCores_;
    powerCacheModel_ = nullptr;
}

void
ReferenceServer::removeJob(WorkloadType type)
{
    auto &count = counts_[workloadIndex(type)];
    if (count == 0)
        panic("ReferenceServer::removeJob with no such job running");
    --count;
    --busyCores_;
    powerCacheModel_ = nullptr;
}

Watts
ReferenceServer::power(const PowerModel &model) const
{
    if (&model == powerCacheModel_)
        return powerCache_;
    if (health_ == ServerHealth::Failed) {
        powerCache_ = 0.0;
    } else {
        const Watts nominal = model.serverPower(counts_);
        if (!throttled_) {
            powerCache_ = nominal;
        } else {
            // DVFS trims the dynamic part only.
            const Watts idle = model.spec().idlePower;
            powerCache_ = idle + (nominal - idle) *
                                     thermal_.params().throttleFactor;
        }
    }
    powerCacheModel_ = &model;
    return powerCache_;
}

ThermalSample
ReferenceServer::stepThermal(const PowerModel &model, Seconds dt)
{
    const ThermalSample sample = thermal_.step(power(model), dt);
    // The on-board model reads the container-exterior sensor once per
    // update (Section III-B, "Tracking Wax State").
    estimator_.update(sample.containerTemp, dt);
    applyThrottle(sample.cpuTemp);
    return sample;
}

void
ReferenceServer::applyThrottle(Celsius cpu_temp)
{
    const ServerThermalParams &tp = thermal_.params();
    if (!throttled_ && cpu_temp >= tp.cpuLimit &&
        tp.throttleFactor < 1.0) {
        throttled_ = true;
        powerCacheModel_ = nullptr;
    } else if (throttled_ &&
               cpu_temp < tp.cpuLimit - tp.throttleHysteresis) {
        throttled_ = false;
        powerCacheModel_ = nullptr;
    }
}

void
ReferenceServer::saveState(Serializer &out) const
{
    for (std::size_t count : counts_)
        out.putSize(count);
    out.putSize(busyCores_);
    out.putBool(throttled_);
    out.putDouble(thermal_.params().inletTemp);
    out.putDouble(airTemp());
    out.putDouble(waxEnthalpy());
    out.putDouble(estimatedWaxEnthalpy());
}

ReferenceFleet::ReferenceFleet(std::size_t num_servers,
                               const ServerSpec &spec,
                               const ServerThermalParams &thermal,
                               const PowerModel &power,
                               const std::vector<Kelvin> &inlet_offsets)
    : thermal_(thermal), power_(power)
{
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i)
        servers_.emplace_back(spec, thermal,
                              inlet_offsets.empty() ? 0.0
                                                    : inlet_offsets[i]);
}

void
ReferenceFleet::addJob(std::size_t id, WorkloadType type)
{
    servers_.at(id).addJob(type);
    ++active_[workloadIndex(type)];
    ++busyCores_;
}

void
ReferenceFleet::removeJob(std::size_t id, WorkloadType type)
{
    servers_.at(id).removeJob(type);
    --active_[workloadIndex(type)];
    --busyCores_;
}

void
ReferenceFleet::setBaseInlet(Celsius inlet)
{
    thermal_.inletTemp = inlet;
    for (ReferenceServer &srv : servers_)
        srv.setBaseInlet(inlet);
}

Watts
ReferenceFleet::totalPower() const
{
    Watts total = 0.0;
    for (const ReferenceServer &srv : servers_)
        total += srv.power(power_);
    return total;
}

ClusterSample
ReferenceFleet::stepThermal(Seconds dt, Celsius hot_threshold)
{
    const std::size_t n = servers_.size();
    samples_.resize(n);
    const auto step = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            samples_[i] = servers_[i].stepThermal(power_, dt);
    };
    if (n >= 256 && globalPool().size() > 1)
        parallelFor(globalPool(), 0, n, 64, step);
    else
        step(0, n);

    ClusterSample agg;
    for (std::size_t i = 0; i < n; ++i) {
        const ThermalSample &s = samples_[i];
        const ReferenceServer &srv = servers_[i];
        agg.totalPower += s.rejectedPower + s.waxHeatFlow;
        agg.coolingLoad += s.rejectedPower;
        agg.waxHeatFlow += s.waxHeatFlow;
        agg.meanAirTemp += s.airTemp;
        agg.meanMeltFraction += srv.waxMeltFraction();
        if (i == 0 || s.airTemp > agg.maxAirTemp)
            agg.maxAirTemp = s.airTemp;
        if (s.airTemp >= hot_threshold)
            ++agg.serversAboveThreshold;
        if (srv.throttled())
            ++agg.throttledServers;
    }
    agg.meanAirTemp /= static_cast<double>(n);
    agg.meanMeltFraction /= static_cast<double>(n);
    return agg;
}

void
ReferenceFleet::saveState(Serializer &out) const
{
    out.putSize(servers_.size());
    out.putSize(busyCores_);
    for (std::size_t count : active_)
        out.putSize(count);
    out.putDouble(thermal_.inletTemp);
    for (const ReferenceServer &srv : servers_)
        srv.saveState(out);
}

} // namespace vmt::reference
