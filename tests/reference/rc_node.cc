#include "reference/rc_node.h"

#include "util/logging.h"

namespace vmt {

RcNode::RcNode(Seconds time_constant, Celsius initial)
    : tau_(time_constant), temp_(initial)
{
    if (time_constant <= 0.0)
        fatal("RcNode requires a positive time constant");
}

Celsius
RcNode::step(Celsius target, Seconds dt)
{
    if (dt <= 0.0)
        fatal("RcNode::step requires dt > 0");
    if (dt != gainForDt_) {
        gainForDt_ = dt;
        gain_ = rcStepGain(tau_, dt);
    }
    temp_ += (target - temp_) * gain_;
    return temp_;
}

} // namespace vmt
