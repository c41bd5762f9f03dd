#include "predict/criticality_predictor.hh"

namespace csim {

CriticalityPredictor::CriticalityPredictor()
    : table_(std::size_t{1} << tableBits,
             SatCounter(counterBits, up, down, 0))
{
}

std::size_t
CriticalityPredictor::index(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << tableBits) - 1);
}

bool
CriticalityPredictor::predict(Addr pc) const
{
    return table_[index(pc)].atLeast(threshold);
}

void
CriticalityPredictor::train(Addr pc, bool critical)
{
    table_[index(pc)].train(critical);
    if (statTrains_) {
        ++*statTrains_;
        if (critical)
            ++*statTrainCritical_;
    }
}

void
CriticalityPredictor::attachStats(StatsRegistry &registry)
{
    statTrains_ = &registry.addCounter("predict.crit.trains");
    statTrainCritical_ = &registry.addCounter("predict.crit.trainsCritical");
}

unsigned
CriticalityPredictor::counterValue(Addr pc) const
{
    return table_[index(pc)].value();
}

void
CriticalityPredictor::reset()
{
    for (SatCounter &c : table_)
        c.reset();
}

} // namespace csim
