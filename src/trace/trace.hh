/**
 * @file
 * Dynamic instruction traces.
 *
 * A Trace is the interchange format between the functional emulator, the
 * annotation passes (branch prediction, cache latency), the clustered
 * timing simulator and the idealized list scheduler. Each record carries
 * the dataflow producers of its source operands so the timing models
 * never have to re-derive register renaming. A trace is held as columns
 * only (the `.trc2` layout); TraceRecord is the by-value row form.
 */

#ifndef CSIM_TRACE_TRACE_HH
#define CSIM_TRACE_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace csim {

class TraceSoA;

/** Source operand slots: two register sources plus a memory dependence. */
enum SrcSlot { srcSlot1 = 0, srcSlot2 = 1, srcSlotMem = 2, numSrcSlots = 3 };

/**
 * One dynamic instruction. Producers refer to older trace records by
 * index; invalidInstId means the operand was ready at dispatch (produced
 * before the trace window or by an immediate).
 */
struct TraceRecord
{
    Addr pc = 0;
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::IntAlu;
    RegIndex dest = zeroReg;
    RegIndex src1 = zeroReg;
    RegIndex src2 = zeroReg;
    /** Effective byte address for Ld/St. */
    Addr memAddr = 0;

    /** Dataflow producers (dynamic indices), one per SrcSlot. */
    std::array<InstId, numSrcSlots> prod =
        {invalidInstId, invalidInstId, invalidInstId};

    /** Execution latency in cycles (loads updated by the cache pass). */
    std::uint8_t execLat = 1;

    bool isBranch = false;
    bool isCondBranch = false;
    /** Branch outcome (conditional branches only). */
    bool taken = false;
    /** Set by the branch annotation pass. */
    bool mispredicted = false;
    /** Set by the cache annotation pass. */
    bool l1Miss = false;

    bool hasDest() const { return writesDest(op) && dest != zeroReg; }
    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
};

/** Aggregate statistics over a trace (reported by examples/tests). */
struct TraceStats
{
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t fpOps = 0;

    double
    mispredictRate() const
    {
        return condBranches ?
            static_cast<double>(mispredicted) /
            static_cast<double>(condBranches) : 0.0;
    }

    double
    l1MissRate() const
    {
        return loads ? static_cast<double>(l1Misses) /
            static_cast<double>(loads) : 0.0;
    }
};

/** Packed per-instruction boolean annotations (the flags column). */
enum TraceFlag : std::uint8_t
{
    flagIsBranch = 1u << 0,
    flagIsCondBranch = 1u << 1,
    flagTaken = 1u << 2,
    flagMispredicted = 1u << 3,
    flagL1Miss = 1u << 4,
    /** writesDest(op) && dest != zeroReg, precomputed. */
    flagHasDest = 1u << 5,
};

/**
 * Read-only pointers to the twelve columns of a trace, in `.trc2`
 * order: five 8-byte columns (pc, memAddr, three producer slots),
 * then seven byte columns (op, cls, execLat, flags, dest, src1, src2).
 */
struct TraceColumns
{
    std::size_t size = 0;
    /** Valid producer links over all slots. */
    std::uint64_t producerLinks = 0;
    const Addr *pc = nullptr;
    const Addr *memAddr = nullptr;
    const InstId *prod[numSrcSlots] = {nullptr, nullptr, nullptr};
    const Opcode *op = nullptr;
    const OpClass *cls = nullptr;
    const std::uint8_t *execLat = nullptr;
    const std::uint8_t *flags = nullptr;
    const RegIndex *dest = nullptr;
    const RegIndex *src1 = nullptr;
    const RegIndex *src2 = nullptr;

    /** Row i reassembled as a record. Inline, so reading one field
     *  of the result compiles to one column load. */
    TraceRecord
    record(std::size_t i) const
    {
        TraceRecord rec;
        rec.pc = pc[i];
        rec.op = op[i];
        rec.cls = cls[i];
        rec.dest = dest[i];
        rec.src1 = src1[i];
        rec.src2 = src2[i];
        rec.memAddr = memAddr[i];
        for (int slot = 0; slot < numSrcSlots; ++slot)
            rec.prod[slot] = prod[slot][i];
        rec.execLat = execLat[i];
        const std::uint8_t f = flags[i];
        rec.isBranch = f & flagIsBranch;
        rec.isCondBranch = f & flagIsCondBranch;
        rec.taken = f & flagTaken;
        rec.mispredicted = f & flagMispredicted;
        rec.l1Miss = f & flagL1Miss;
        return rec;
    }
};

/**
 * A dynamic trace, stored as the twelve columns of TraceColumns (one
 * vector each), plus the producer-linkage pass.
 *
 * Records go in by value (append) and come out by value (operator[]);
 * the passes that annotate a built trace write single columns through
 * the narrow setters. soa() is the read-only column view the timing
 * core and the trace store consume; it points at this trace's own
 * columns and is valid until the trace is next mutated or destroyed.
 */
class Trace
{
  public:
    /** Host bytes per instruction: five 8-byte and seven 1-byte
     *  columns. */
    static constexpr std::size_t rowBytes =
        (2 + numSrcSlots) * sizeof(std::uint64_t) + 7;

    /** Preallocate every column for n rows. */
    void reserve(std::size_t n);

    /** Scatter one record into the columns. */
    void append(const TraceRecord &rec);

    /** Append rows [begin, end) of a column view, links unchanged. */
    void appendRows(const TraceSoA &src, std::size_t begin,
                    std::size_t end);

    /** Overwrite row i with rec (every column). */
    void set(std::size_t i, const TraceRecord &rec);

    std::size_t size() const { return pc_.size(); }
    bool empty() const { return pc_.empty(); }

    TraceRecord
    operator[](std::size_t i) const
    {
        return columns().record(i);
    }

    // Narrow column setters for the linkage and annotation passes.
    void
    setProd(std::size_t i, int slot, InstId p)
    {
        producerLinks_ -= prod_[slot][i] != invalidInstId;
        producerLinks_ += p != invalidInstId;
        prod_[slot][i] = p;
    }
    void
    setMispredicted(std::size_t i, bool v)
    {
        setFlag(i, flagMispredicted, v);
    }
    void setL1Miss(std::size_t i, bool v) { setFlag(i, flagL1Miss, v); }
    void setExecLat(std::size_t i, std::uint8_t lat) { execLat_[i] = lat; }

    /** The read-only column view of this trace (no copy). */
    TraceSoA soa() const;

    /** Host bytes held by the columns: rowBytes per instruction. This
     *  is what TraceCache reports as bytesHeld. */
    std::size_t footprintBytes() const { return size() * rowBytes; }

    /**
     * Fill in the producer links: for each register source, the most
     * recent older record writing that register; for each load, the most
     * recent older store to the same 8-byte word (store-to-load
     * forwarding under perfect memory disambiguation).
     */
    void linkProducers();

    /** Compute aggregate statistics (TraceSoA::stats). */
    TraceStats stats() const;

    /** Structural sanity of links and annotations
     *  (TraceSoA::wellFormed). */
    bool wellFormed() const;

  private:
    TraceColumns columns() const;

    void
    setFlag(std::size_t i, std::uint8_t bit, bool v)
    {
        flags_[i] = v ? (flags_[i] | bit) : (flags_[i] & ~bit);
    }

    std::vector<Addr> pc_;
    std::vector<Addr> memAddr_;
    std::array<std::vector<InstId>, numSrcSlots> prod_;
    std::vector<Opcode> op_;
    std::vector<OpClass> cls_;
    std::vector<std::uint8_t> execLat_;
    std::vector<std::uint8_t> flags_;
    std::vector<RegIndex> dest_;
    std::vector<RegIndex> src1_;
    std::vector<RegIndex> src2_;
    std::uint64_t producerLinks_ = 0;
};

inline TraceColumns
Trace::columns() const
{
    TraceColumns c;
    c.size = size();
    c.producerLinks = producerLinks_;
    c.pc = pc_.data();
    c.memAddr = memAddr_.data();
    for (int slot = 0; slot < numSrcSlots; ++slot)
        c.prod[slot] = prod_[slot].data();
    c.op = op_.data();
    c.cls = cls_.data();
    c.execLat = execLat_.data();
    c.flags = flags_.data();
    c.dest = dest_.data();
    c.src1 = src1_.data();
    c.src2 = src2_.data();
    return c;
}

/**
 * The producer-linkage pass with state that persists across chunks:
 * linking a trace chunk by chunk through one linker (passing each
 * chunk's global base id) writes exactly the links
 * Trace::linkProducers() would over the concatenated trace — the
 * streaming-build form. Links are *global* ids, so a chunk linked
 * with base > 0 is not wellFormed() on its own; it becomes so again
 * when the ids are region-remapped (extractRegion) or the chunks are
 * stored and reloaded as one trace.
 */
class StreamingProducerLinker
{
  public:
    StreamingProducerLinker() { lastWriter_.fill(invalidInstId); }

    /** Link chunk's producers; `base` is chunk[0]'s global id. */
    void link(Trace &chunk, InstId base);

  private:
    /** Last dynamic writer of each architectural register. */
    std::array<InstId, numArchRegs> lastWriter_;
    /** Last store to each 8-byte word. */
    std::unordered_map<Addr, InstId> lastStore_;
};

} // namespace csim

#endif // CSIM_TRACE_TRACE_HH
