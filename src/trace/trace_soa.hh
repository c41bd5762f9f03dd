/**
 * @file
 * Read-only column view of an annotated trace.
 *
 * The timing core walks a handful of per-instruction fields (op class,
 * latency, producers, branch flags, pc) millions of times per run;
 * dense per-field columns let each hot loop stream exactly the bytes
 * it needs. A TraceSoA owns no columns: it points either at a Trace's
 * own columns (Trace::soa(), valid until that trace is mutated or
 * destroyed) or at an mmap-ed trace store, whose mapping it keeps
 * alive. Copies are cheap and share the same columns.
 */

#ifndef CSIM_TRACE_TRACE_SOA_HH
#define CSIM_TRACE_TRACE_SOA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/types.hh"
#include "isa/opcode.hh"
#include "trace/trace.hh"

namespace csim {

class TraceSoA
{
  public:
    /** Empty view (no columns). */
    TraceSoA() = default;

    /**
     * View the given columns. `keepalive` (e.g. an mmap of a trace
     * store) is retained for the lifetime of this view and of every
     * copy; the columns must stay valid that long.
     */
    explicit TraceSoA(const TraceColumns &cols,
                      std::shared_ptr<const void> keepalive = {})
        : cols_(cols), keepalive_(std::move(keepalive))
    {}

    std::size_t size() const { return cols_.size; }
    bool empty() const { return cols_.size == 0; }

    /** Producer links with a valid (non-sentinel) producer, over all
     *  slots — the exact upper bound on waiter-list nodes a timing run
     *  can ever enqueue. */
    std::uint64_t producerLinks() const { return cols_.producerLinks; }

    /** The raw column pointers. */
    const TraceColumns &columns() const { return cols_; }

    // Hot columns, one entry per dynamic instruction.
    std::span<const Addr> pc() const { return {cols_.pc, size()}; }
    std::span<const Addr>
    memAddr() const
    {
        return {cols_.memAddr, size()};
    }
    /** Producer column for one SrcSlot. */
    std::span<const InstId>
    prod(int slot) const
    {
        return {cols_.prod[slot], size()};
    }
    std::span<const Opcode> op() const { return {cols_.op, size()}; }
    std::span<const OpClass> cls() const { return {cols_.cls, size()}; }
    std::span<const std::uint8_t>
    execLat() const
    {
        return {cols_.execLat, size()};
    }
    std::span<const std::uint8_t>
    flags() const
    {
        return {cols_.flags, size()};
    }
    std::span<const RegIndex> dest() const { return {cols_.dest, size()}; }
    std::span<const RegIndex> src1() const { return {cols_.src1, size()}; }
    std::span<const RegIndex> src2() const { return {cols_.src2, size()}; }

    bool
    isBranch(std::size_t i) const
    {
        return cols_.flags[i] & flagIsBranch;
    }
    bool
    isCondBranch(std::size_t i) const
    {
        return cols_.flags[i] & flagIsCondBranch;
    }
    bool taken(std::size_t i) const { return cols_.flags[i] & flagTaken; }
    bool
    mispredicted(std::size_t i) const
    {
        return cols_.flags[i] & flagMispredicted;
    }
    bool
    l1Miss(std::size_t i) const
    {
        return cols_.flags[i] & flagL1Miss;
    }
    bool
    hasDest(std::size_t i) const
    {
        return cols_.flags[i] & flagHasDest;
    }
    bool
    isLoad(std::size_t i) const
    {
        return cols_.cls[i] == OpClass::Load;
    }
    bool
    isStore(std::size_t i) const
    {
        return cols_.cls[i] == OpClass::Store;
    }

    /** Row i reassembled as a record. */
    TraceRecord record(std::size_t i) const { return cols_.record(i); }

    /** Aggregate statistics over the columns. */
    TraceStats stats() const;

    /**
     * Structural sanity of the producer links and annotations: every
     * producer index strictly precedes its consumer, op classes and
     * branch flags match opcodes, and latencies are nonzero. Used to
     * vet rows read from disk before feeding them to the timing
     * models.
     */
    bool wellFormed() const;

  private:
    TraceColumns cols_;
    /** External backing storage (mmap keepalive); null for a view of
     *  a Trace. */
    std::shared_ptr<const void> keepalive_;
};

} // namespace csim

#endif // CSIM_TRACE_TRACE_SOA_HH
