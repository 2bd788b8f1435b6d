#include "server/server.h"

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

Server::Server(std::size_t id, const ServerSpec &spec, ThermalSoA &soa)
    : id_(id), spec_(spec), soa_(&soa)
{}

Watts
Server::power(const PowerModel &model) const
{
    if (&model != powerCacheModel_)
        refreshPowerCache(model);
    return powerCache_;
}

void
Server::refreshPowerCache(const PowerModel &model) const
{
    if (health_ == ServerHealth::Failed) {
        // Powered off: no idle draw, no dynamic draw. The thermal
        // step then lets air decay toward inlet and wax refreeze.
        powerCache_ = 0.0;
        powerCacheModel_ = &model;
        return;
    }
    const Watts nominal = model.serverPower(counts_);
    if (!throttled()) {
        powerCache_ = nominal;
    } else {
        // DVFS trims the dynamic part only; idle power is unaffected.
        const Watts idle = model.spec().idlePower;
        powerCache_ =
            idle + (nominal - idle) * soa_->params().throttleFactor;
    }
    powerCacheModel_ = &model;
}

Celsius
Server::cpuTemp(const PowerModel &model) const
{
    return airTemp() + soa_->params().cpuRisePerWatt * power(model);
}

bool
Server::applyThrottle(Celsius cpu_temp)
{
    const ServerThermalParams &tp = soa_->params();
    const bool throttled_now = throttled();
    if (!throttled_now && cpu_temp >= tp.cpuLimit &&
        tp.throttleFactor < 1.0) {
        soa_->setThrottled(id_, true);
        powerCacheModel_ = nullptr;
        return true;
    }
    if (throttled_now &&
        cpu_temp < tp.cpuLimit - tp.throttleHysteresis) {
        soa_->setThrottled(id_, false);
        powerCacheModel_ = nullptr;
        return true;
    }
    return false;
}

void
Server::saveState(Serializer &out) const
{
    for (std::size_t count : counts_)
        out.putSize(count);
    out.putSize(busyCores_);
    out.putBool(throttled());
    out.putDouble(soa_->baseInlet(id_));
    out.putDouble(airTemp());
    out.putDouble(waxEnthalpy());
    out.putDouble(estimatedWaxEnthalpy());
}

void
Server::loadState(Deserializer &in)
{
    for (std::size_t &count : counts_)
        count = in.getSize();
    busyCores_ = in.getSize();
    soa_->setThrottled(id_, in.getBool());
    soa_->setBaseInlet(id_, in.getDouble());
    soa_->setAirTemp(id_, in.getDouble());
    soa_->setEnthalpy(id_, in.getDouble());
    soa_->setEstimatedEnthalpy(id_, in.getDouble());
    powerCacheModel_ = nullptr;
}

} // namespace vmt
