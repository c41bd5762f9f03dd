/**
 * @file
 * Branch annotation pass: runs the gshare predictor over a trace in
 * program order and marks each conditional branch mispredicted or not.
 * Unconditional direct jumps are always predicted correctly (perfect
 * BTB, as implied by the paper's perfect instruction cache front end).
 */

#ifndef CSIM_FRONTEND_BRANCH_ANNOTATOR_HH
#define CSIM_FRONTEND_BRANCH_ANNOTATOR_HH

#include "trace/trace.hh"

namespace csim {

class GsharePredictor;

struct BranchAnnotateResult
{
    std::uint64_t condBranches = 0;
    std::uint64_t mispredictions = 0;
};

/** Annotate rec.mispredicted for every conditional branch in the trace,
 *  through a fresh gshare predictor of gshareHistoryBits. */
BranchAnnotateResult annotateBranches(Trace &trace);

/**
 * Same pass against a caller-owned predictor whose tables and history
 * persist across calls — the streaming-build form: annotating a trace
 * chunk by chunk through one predictor yields exactly the monolithic
 * pass's outcomes.
 */
BranchAnnotateResult annotateBranches(Trace &trace,
                                      GsharePredictor &pred);

} // namespace csim

#endif // CSIM_FRONTEND_BRANCH_ANNOTATOR_HH
