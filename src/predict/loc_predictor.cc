#include "predict/loc_predictor.hh"

namespace csim {

LocPredictor::LocPredictor()
    : LocPredictor(Params{})
{
}

LocPredictor::LocPredictor(const Params &params)
    : params_(params),
      table_(std::size_t{1} << tableBits, ProbCounter(params.levels, 0)),
      rng_(seed)
{
}

std::size_t
LocPredictor::index(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << tableBits) - 1);
}

unsigned
LocPredictor::level(Addr pc) const
{
    return table_[index(pc)].level();
}

double
LocPredictor::estimate(Addr pc) const
{
    return table_[index(pc)].estimate();
}

void
LocPredictor::train(Addr pc, bool critical)
{
    table_[index(pc)].train(critical, rng_);
    if (statTrains_) {
        ++*statTrains_;
        if (critical)
            ++*statTrainCritical_;
    }
}

void
LocPredictor::attachStats(StatsRegistry &registry)
{
    statTrains_ = &registry.addCounter("predict.loc.trains");
    statTrainCritical_ = &registry.addCounter("predict.loc.trainsCritical");
}

void
LocPredictor::reset()
{
    for (ProbCounter &c : table_)
        c.reset();
}

} // namespace csim
