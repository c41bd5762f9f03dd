#include "predict/loc_predictor.hh"

namespace csim {

LocPredictor::LocPredictor()
    : LocPredictor(Params{})
{
}

LocPredictor::LocPredictor(const Params &params)
    : params_(params),
      mask_((std::size_t{1} << params.tableBits) - 1),
      table_(std::size_t{1} << params.tableBits,
             ProbCounter(params.levels, 0)),
      rng_(params.seed)
{
}

std::size_t
LocPredictor::index(Addr pc) const
{
    return (pc >> 2) & mask_;
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
    statTrains_ = &registry.addCounter(
        "predict.loc.trains", "LoC predictor training events");
    statTrainCritical_ = &registry.addCounter(
        "predict.loc.trainsCritical",
        "LoC training events with a critical outcome");
}

void
LocPredictor::reset()
{
    for (ProbCounter &c : table_)
        c.reset();
}

} // namespace csim
