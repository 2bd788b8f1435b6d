#include "sim/pod.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "util/logging.h"

namespace vmt {

using std::to_string;

Pod::Pod(Cluster cluster, Scheduler &scheduler, Seconds interval)
    : cluster(std::move(cluster)), scheduler(scheduler),
      departures(interval, this->cluster.numServers())
{}

std::size_t
Pod::drain(Seconds now)
{
    const std::size_t before = departures.size();
    departures.drain(now, [this](DepartureRing::Record record) {
        cluster.removeJob(DepartureRing::serverOf(record),
                          DepartureRing::typeOf(record));
    });
    return before - departures.size();
}

void
Pod::evacuate(const std::vector<std::size_t> &failed)
{
    refugees.clear();
    dues.clear();
    if (failed.empty())
        return;
    // Pair p = (position of the server in `failed`) * K + type. A
    // pair holds one record per running job, so the cluster's counts
    // lay out each pair's slice of `grouped`; one pass over the ring,
    // in drain order, removes the failed servers' records, fills the
    // slices and counts what each pair holds, past its slice too.
    const Cluster &view = cluster;
    const std::size_t pairs = failed.size() * kNumWorkloads;
    std::vector<std::size_t> start(pairs + 1, 0);
    constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> position(departures.servers(), kNone);
    for (std::size_t i = 0; i < failed.size(); ++i) {
        position[failed[i]] = static_cast<std::uint32_t>(i);
        const CoreCounts &counts = view.server(failed[i]).coreCounts();
        for (std::size_t t = 0; t < kNumWorkloads; ++t)
            start[i * kNumWorkloads + t + 1] = counts[t];
    }
    for (std::size_t p = 1; p <= pairs; ++p)
        start[p] += start[p - 1];
    std::vector<std::uint64_t> grouped(start.back());
    std::vector<std::size_t> held(pairs, 0);
    departures.removeIf([&](std::uint64_t b, DepartureRing::Record record) {
        const std::uint32_t i = position[DepartureRing::serverOf(record)];
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
    for (std::size_t i = 0; i < failed.size(); ++i) {
        const std::size_t from = failed[i];
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t p = i * kNumWorkloads + workloadIndex(type);
            const std::size_t count = start[p + 1] - start[p];
            if (count != held[p])
                panic("evacuation: server " + to_string(from) + " runs " +
                      to_string(count) + " type-" +
                      to_string(workloadIndex(type)) +
                      " jobs but the departure ring holds " +
                      to_string(held[p]));
            for (std::size_t k = start[p]; k < start[p + 1]; ++k) {
                cluster.removeJob(from, type);
                refugees.push_back(Job{0, type, 0.0});
                dues.push_back(departures.boundary(grouped[k]));
            }
        }
    }
}

void
Pod::place(std::span<const Job> jobs)
{
    scheduler.placeJobs(cluster, jobs, placements);
    checkPlacements(scheduler, jobs.size(), placements,
                    cluster.numServers());
}

void
Pod::migrate(const std::vector<MigrationRequest> &moves)
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
    departures.forEachBucket(
        [&](std::uint64_t, std::vector<Record> &bucket) {
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
            panic("migration: server " + to_string(move.fromServer) +
                  " has no pending type-" +
                  to_string(workloadIndex(move.type)) +
                  " record to move");
        const auto taken = from.front();
        from.erase(from.begin());
        const Record to = DepartureRing::pack(move.toServer, move.type);
        *taken.second = to;
        const auto dest = sources.find(to);
        if (dest != sources.end()) {
            auto &into = dest->second.candidates;
            into.insert(std::upper_bound(into.begin(), into.end(), taken),
                        taken);
        }
    }
}

void
Pod::pushSupplyRise(Celsius setpoint)
{
    if (!faults || faults->supplyRise() == appliedRise)
        return;
    appliedRise = faults->supplyRise();
    cluster.setBaseInlet(setpoint + appliedRise);
}

void
Pod::loadLedger(Deserializer &in, std::uint32_t version, Seconds resume)
{
    if (version >= 3)
        departures.loadState(in, resume);
    else
        departures.loadLegacy(in, resume);
}

void
Pod::checkLedger() const
{
    // The ring was sized from the cluster, so both cover the same
    // servers.
    const std::vector<std::uint32_t> counts = departures.countsByRecord();
    for (std::size_t server = 0; server < departures.servers(); ++server) {
        const CoreCounts &running = cluster.server(server).coreCounts();
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t t = workloadIndex(type);
            const std::uint32_t pending =
                counts[DepartureRing::pack(server, type)];
            if (pending != running[t])
                fatal("snapshot departure ledger holds " +
                      to_string(pending) + " departures of server " +
                      to_string(server) + " type " + to_string(t) +
                      ", but the cluster runs " + to_string(running[t]) +
                      " such jobs");
        }
    }
}

} // namespace vmt
