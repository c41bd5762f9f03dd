/**
 * @file
 * gshare conditional branch predictor (16 bits of global history), as in
 * the paper's front end (Table 1).
 */

#ifndef CSIM_FRONTEND_GSHARE_HH
#define CSIM_FRONTEND_GSHARE_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace csim {

/** The paper's global history length, used by every trace build. */
inline constexpr unsigned gshareHistoryBits = 16;

class GsharePredictor
{
  public:
    /** @param history_bits Global history length; table has 2^bits PHT
     *  entries of 2-bit counters. */
    explicit GsharePredictor(unsigned history_bits = gshareHistoryBits);

    /** Predict the direction of the conditional branch at pc. */
    bool predict(Addr pc) const;

    /**
     * Update the PHT and global history with the resolved outcome.
     * Because traces contain only correct-path instructions, history is
     * updated with the actual outcome, which models a machine with
     * perfect history repair on mispredictions.
     */
    void update(Addr pc, bool taken);

    /** Predict, update, and report whether the prediction was wrong. */
    bool
    mispredicts(Addr pc, bool taken)
    {
        bool pred = predict(pc);
        update(pc, taken);
        return pred != taken;
    }

    std::uint32_t history() const { return history_; }

  private:
    std::size_t index(Addr pc) const;

    unsigned historyBits_;
    std::uint32_t historyMask_;
    std::uint32_t history_ = 0;
    std::vector<SatCounter> pht_;
};

} // namespace csim

#endif // CSIM_FRONTEND_GSHARE_HH
