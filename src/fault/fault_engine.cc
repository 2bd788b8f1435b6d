#include "fault/fault_engine.h"

#include <algorithm>
#include <utility>

#include "server/cluster.h"
#include "util/logging.h"

namespace vmt {

FaultEngine::FaultEngine(const FaultConfig &config,
                         std::size_t num_servers)
    : config_(config),
      numServers_(num_servers),
      rng_(config.seed),
      failureModel_(config.mtbf > 0.0 ? config.mtbf : 70000.0,
                    config.mtbfRefTemp, config.mtbfDoublingDelta)
{
    for (std::size_t i = 0; i < config_.plan.size(); ++i) {
        const FaultEvent &event = config_.plan.events()[i];
        if ((event.type == FaultEventType::ServerDown ||
             event.type == FaultEventType::ServerUp) &&
            event.serverId >= num_servers)
            fatal("fault plan event " + std::to_string(i) + " (" +
                  faultEventTypeName(event.type) + " " +
                  std::to_string(event.serverId) +
                  ") targets a server outside the " +
                  std::to_string(num_servers) + "-server cluster");
    }
    if (config_.criticalTemp > 0.0 && config_.criticalRelease < 0.0)
        fatal("FaultConfig::criticalRelease must be non-negative");
    if (config_.repairTime <= 0.0 && config_.mtbf > 0.0)
        fatal("FaultConfig::repairTime must be positive when "
              "stochastic failures are enabled");
}

std::vector<std::size_t>
FaultEngine::beginInterval(Cluster &cluster, Seconds now, Seconds dt)
{
    std::vector<std::size_t> evacuate;

    const auto fail = [&](std::size_t id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.health() == ServerHealth::Failed)
            return; // Already down; nothing new to evacuate.
        if (srv.health() == ServerHealth::Quarantined)
            --quarantined_;
        cluster.setHealth(id, ServerHealth::Failed);
        evacuate.push_back(id);
    };
    const auto repair = [&](std::size_t id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.health() == ServerHealth::Quarantined)
            --quarantined_;
        cluster.setHealth(id, ServerHealth::Up);
    };

    // (a) Scripted events due at or before this boundary.
    const std::vector<FaultEvent> &events = config_.plan.events();
    while (cursor_ < events.size() && events[cursor_].time <= now) {
        const FaultEvent &event = events[cursor_];
        switch (event.type) {
          case FaultEventType::ServerDown:
            fail(event.serverId);
            break;
          case FaultEventType::ServerUp:
            repair(event.serverId);
            break;
          case FaultEventType::CoolingDerate:
            supplyRise_ = event.supplyRise;
            break;
          case FaultEventType::CoolingRestore:
            supplyRise_ = 0.0;
            break;
        }
        ++cursor_;
    }

    // (b) Stochastic repairs that have come due (FIFO; due times are
    // non-decreasing because repairTime is constant).
    while (!repairs_.empty() && repairs_.front().due <= now) {
        repair(repairs_.front().serverId);
        repairs_.pop_front();
    }

    // (c) Release quarantined servers that have cooled below the
    // hysteresis band.
    if (quarantined_ > 0) {
        const Celsius release =
            config_.criticalTemp - config_.criticalRelease;
        for (std::size_t id = 0;
             id < numServers_ && quarantined_ > 0; ++id) {
            const Server &srv = std::as_const(cluster).server(id);
            if (srv.health() == ServerHealth::Quarantined &&
                srv.airTemp() < release) {
                --quarantined_;
                cluster.setHealth(id, ServerHealth::Up);
            }
        }
    }

    // (d) Stochastic failure draws: one uniform per non-failed
    // server, in server-id order, against the temperature-dependent
    // hazard over this interval. Draw order and count depend only on
    // deterministic health state, so the stream reproduces exactly.
    if (config_.mtbf > 0.0) {
        const Hours dt_hours = secondsToHours(dt);
        for (std::size_t id = 0; id < numServers_; ++id) {
            const Server &srv = std::as_const(cluster).server(id);
            if (srv.health() == ServerHealth::Failed)
                continue;
            const double p =
                failureModel_.failureRate(srv.airTemp()) * dt_hours;
            const double draw = rng_.uniform();
            if (draw < p) {
                fail(id);
                repairs_.push_back(
                    {now + hoursToSeconds(config_.repairTime), id});
            }
        }
    }

    // (e) Thermal emergency: quarantine servers at or above the
    // critical temperature (they shed new load; resident jobs keep
    // draining on the hot server).
    if (config_.criticalTemp > 0.0) {
        for (std::size_t id = 0; id < numServers_; ++id) {
            const Server &srv = std::as_const(cluster).server(id);
            if (srv.health() == ServerHealth::Up &&
                srv.airTemp() >= config_.criticalTemp) {
                cluster.setHealth(id, ServerHealth::Quarantined);
                ++quarantined_;
            }
        }
    }

    std::sort(evacuate.begin(), evacuate.end());
    return evacuate;
}

void
FaultEngine::saveState(Serializer &out, const Cluster &cluster) const
{
    out.putSize(cursor_);
    out.putDouble(supplyRise_);
    field(out, rng_);
    out.putSize(repairs_.size());
    for (const Repair &repair : repairs_) {
        out.putDouble(repair.due);
        out.putSize(repair.serverId);
    }
    out.putSize(numServers_);
    for (std::size_t id = 0; id < numServers_; ++id)
        out.putU8(static_cast<std::uint8_t>(
            cluster.server(id).health()));
}

void
FaultEngine::loadState(Restore &io, Cluster &cluster)
{
    Deserializer &in = io.in;
    cursor_ = in.getSize();
    if (cursor_ > config_.plan.size())
        fatal("fault snapshot: plan cursor out of range");
    supplyRise_ = in.getDouble();
    field(io, rng_);
    repairs_.clear();
    const std::size_t num_repairs = in.getSize();
    for (std::size_t i = 0; i < num_repairs; ++i) {
        Repair repair{};
        repair.due = in.getDouble();
        repair.serverId = in.getSize();
        if (repair.serverId >= numServers_)
            fatal("fault snapshot: repair targets server out of "
                  "range");
        repairs_.push_back(repair);
    }
    const std::size_t saved_servers = in.getSize();
    if (saved_servers != numServers_)
        fatal("fault snapshot: health table has " +
              std::to_string(saved_servers) + " servers, cluster has " +
              std::to_string(numServers_));
    quarantined_ = 0;
    for (std::size_t id = 0; id < numServers_; ++id) {
        const std::uint8_t raw = in.getU8();
        if (raw > static_cast<std::uint8_t>(ServerHealth::Quarantined))
            fatal("fault snapshot: invalid server health byte");
        const auto health = static_cast<ServerHealth>(raw);
        cluster.setHealth(id, health);
        if (health == ServerHealth::Quarantined)
            ++quarantined_;
    }
}

} // namespace vmt
