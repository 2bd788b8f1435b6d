#include "server/power_model.h"

#include <cmath>

#include "util/logging.h"

namespace vmt {

PowerModel::PowerModel(const ServerSpec &spec, double dynamic_scale)
    : spec_(spec)
{
    if (dynamic_scale <= 0.0)
        fatal("PowerModel requires a positive dynamic scale");
    for (WorkloadType type : kAllWorkloads)
        corePower_[workloadIndex(type)] =
            perCorePower(type) * dynamic_scale;
}

Watts
PowerModel::serverPower(const CoreCounts &counts) const
{
    Watts power = spec_.idlePower;
    for (std::size_t i = 0; i < kNumWorkloads; ++i)
        power += static_cast<double>(counts[i]) * corePower_[i];
    return power;
}

Watts
PowerModel::corePower(WorkloadType type) const
{
    return corePower_[workloadIndex(type)];
}

Watts
PowerModel::singleWorkloadPower(WorkloadType type,
                                double utilization) const
{
    if (utilization < 0.0 || utilization > 1.0)
        fatal("singleWorkloadPower requires utilization in [0, 1]");
    return spec_.idlePower + utilization *
                                 static_cast<double>(spec_.cores()) *
                                 corePower(type);
}

} // namespace vmt
