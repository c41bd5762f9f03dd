/**
 * @file
 * Fields et al.'s binary criticality predictor: a PC-indexed table of
 * 6-bit saturating counters that increment by 8 when an instruction
 * trains critical and decrement by 1 otherwise; an instruction is
 * predicted critical when its counter reaches the threshold (8). Thus 1
 * in 8 instances being critical suffices for a "critical" prediction
 * (paper Sec. 4, footnote 6).
 */

#ifndef CSIM_PREDICT_CRITICALITY_PREDICTOR_HH
#define CSIM_PREDICT_CRITICALITY_PREDICTOR_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"

namespace csim {

class CriticalityPredictor
{
  public:
    /** log2 of the table's entry count. */
    static constexpr unsigned tableBits = 12;
    static constexpr unsigned counterBits = 6;
    /** Counter step on a critical / a non-critical training. */
    static constexpr unsigned up = 8;
    static constexpr unsigned down = 1;
    /** Counter value at and above which pc predicts critical. */
    static constexpr unsigned threshold = 8;

    CriticalityPredictor();

    /** Predict whether the static instruction at pc is critical. */
    bool predict(Addr pc) const;

    /** Train with one dynamic instance's detected criticality. */
    void train(Addr pc, bool critical);

    /** Register training counters with a run's registry (rebindable;
     *  the predictor counts nothing until attached). */
    void attachStats(StatsRegistry &registry);

    /** Raw counter value (tests and diagnostics). */
    unsigned counterValue(Addr pc) const;

    void reset();

  private:
    std::size_t index(Addr pc) const;

    std::vector<SatCounter> table_;

    Counter *statTrains_ = nullptr;
    Counter *statTrainCritical_ = nullptr;
};

} // namespace csim

#endif // CSIM_PREDICT_CRITICALITY_PREDICTOR_HH
