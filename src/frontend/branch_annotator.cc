#include "frontend/branch_annotator.hh"

#include "frontend/gshare.hh"

namespace csim {

BranchAnnotateResult
annotateBranches(Trace &trace)
{
    GsharePredictor pred;
    return annotateBranches(trace, pred);
}

BranchAnnotateResult
annotateBranches(Trace &trace, GsharePredictor &pred)
{
    BranchAnnotateResult res;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord rec = trace[i];
        if (!rec.isCondBranch) {
            trace.setMispredicted(i, false);
            continue;
        }
        ++res.condBranches;
        const bool miss = pred.mispredicts(rec.pc, rec.taken);
        trace.setMispredicted(i, miss);
        if (miss)
            ++res.mispredictions;
    }
    return res;
}

} // namespace csim
