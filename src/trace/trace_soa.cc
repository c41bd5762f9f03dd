#include "trace/trace_soa.hh"

namespace csim {

TraceStats
TraceSoA::stats() const
{
    TraceStats s;
    s.instructions = size();
    for (std::size_t i = 0; i < size(); ++i) {
        if (isBranch(i)) {
            ++s.branches;
            if (isCondBranch(i)) {
                ++s.condBranches;
                if (mispredicted(i))
                    ++s.mispredicted;
            }
        }
        if (isLoad(i)) {
            ++s.loads;
            if (l1Miss(i))
                ++s.l1Misses;
        }
        if (isStore(i))
            ++s.stores;
        if (isFpClass(cols_.cls[i]))
            ++s.fpOps;
    }
    return s;
}

bool
TraceSoA::wellFormed() const
{
    for (std::size_t i = 0; i < size(); ++i) {
        const Opcode op = cols_.op[i];
        if (op >= Opcode::NumOpcodes)
            return false;
        if (cols_.cls[i] != opClass(op))
            return false;
        if (cols_.execLat[i] == 0)
            return false;
        if (isBranch(i) != csim::isBranch(op) ||
            isCondBranch(i) != csim::isCondBranch(op))
            return false;
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = cols_.prod[slot][i];
            if (p != invalidInstId && p >= i)
                return false;
        }
    }
    return true;
}

} // namespace csim
