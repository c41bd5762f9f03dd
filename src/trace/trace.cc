#include "trace/trace.hh"

#include <unordered_map>

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

namespace {

std::uint8_t
packFlags(const TraceRecord &rec)
{
    std::uint8_t f = 0;
    if (rec.isBranch)
        f |= flagIsBranch;
    if (rec.isCondBranch)
        f |= flagIsCondBranch;
    if (rec.taken)
        f |= flagTaken;
    if (rec.mispredicted)
        f |= flagMispredicted;
    if (rec.l1Miss)
        f |= flagL1Miss;
    if (rec.hasDest())
        f |= flagHasDest;
    return f;
}

} // anonymous namespace

void
Trace::reserve(std::size_t n)
{
    pc_.reserve(n);
    memAddr_.reserve(n);
    for (auto &col : prod_)
        col.reserve(n);
    op_.reserve(n);
    cls_.reserve(n);
    execLat_.reserve(n);
    flags_.reserve(n);
    dest_.reserve(n);
    src1_.reserve(n);
    src2_.reserve(n);
}

void
Trace::append(const TraceRecord &rec)
{
    pc_.push_back(rec.pc);
    memAddr_.push_back(rec.memAddr);
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        prod_[slot].push_back(rec.prod[slot]);
        producerLinks_ += rec.prod[slot] != invalidInstId;
    }
    op_.push_back(rec.op);
    cls_.push_back(rec.cls);
    execLat_.push_back(rec.execLat);
    flags_.push_back(packFlags(rec));
    dest_.push_back(rec.dest);
    src1_.push_back(rec.src1);
    src2_.push_back(rec.src2);
}

void
Trace::appendRows(const TraceSoA &src, std::size_t begin,
                  std::size_t end)
{
    CSIM_ASSERT(begin <= end && end <= src.size());
    auto copy = [&](auto &dst, auto col) {
        dst.insert(dst.end(), col.begin() + begin, col.begin() + end);
    };
    copy(pc_, src.pc());
    copy(memAddr_, src.memAddr());
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        copy(prod_[slot], src.prod(slot));
        for (std::size_t i = begin; i < end; ++i)
            producerLinks_ += src.prod(slot)[i] != invalidInstId;
    }
    copy(op_, src.op());
    copy(cls_, src.cls());
    copy(execLat_, src.execLat());
    copy(flags_, src.flags());
    copy(dest_, src.dest());
    copy(src1_, src.src1());
    copy(src2_, src.src2());
}

void
Trace::set(std::size_t i, const TraceRecord &rec)
{
    CSIM_ASSERT(i < size());
    pc_[i] = rec.pc;
    memAddr_[i] = rec.memAddr;
    for (int slot = 0; slot < numSrcSlots; ++slot)
        setProd(i, slot, rec.prod[slot]);
    op_[i] = rec.op;
    cls_[i] = rec.cls;
    execLat_[i] = rec.execLat;
    flags_[i] = packFlags(rec);
    dest_[i] = rec.dest;
    src1_[i] = rec.src1;
    src2_[i] = rec.src2;
}

TraceSoA
Trace::soa() const
{
    return TraceSoA(columns());
}

TraceStats
Trace::stats() const
{
    return soa().stats();
}

bool
Trace::wellFormed() const
{
    return soa().wellFormed();
}

namespace {

struct SrcRegs
{
    int n;
    RegIndex s1;
    RegIndex s2;
};

// Mirror Instruction::numSrcs() without materialising an Instruction.
SrcRegs
srcsOf(const TraceRecord &rec)
{
    switch (rec.op) {
      case Opcode::Lui:
      case Opcode::Jmp:
      case Opcode::Nop:
      case Opcode::Halt:
        return {0, zeroReg, zeroReg};
      case Opcode::Addi:
      case Opcode::Ld:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Itof:
        return {1, rec.src1, zeroReg};
      default:
        return {2, rec.src1, rec.src2};
    }
}

} // anonymous namespace

void
Trace::linkProducers()
{
    StreamingProducerLinker linker;
    linker.link(*this, 0);
}

void
StreamingProducerLinker::link(Trace &chunk, InstId base)
{
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const TraceRecord rec = chunk[i];
        const InstId id = base + i;
        std::array<InstId, numSrcSlots> prod =
            {invalidInstId, invalidInstId, invalidInstId};

        const SrcRegs srcs = srcsOf(rec);
        if (srcs.n >= 1 && srcs.s1 != zeroReg)
            prod[srcSlot1] = lastWriter_[srcs.s1];
        if (srcs.n >= 2 && srcs.s2 != zeroReg)
            prod[srcSlot2] = lastWriter_[srcs.s2];

        if (rec.isLoad()) {
            auto it = lastStore_.find(rec.memAddr >> 3);
            if (it != lastStore_.end())
                prod[srcSlotMem] = it->second;
        } else if (rec.isStore()) {
            lastStore_[rec.memAddr >> 3] = id;
        }

        if (rec.hasDest())
            lastWriter_[rec.dest] = id;
        for (int slot = 0; slot < numSrcSlots; ++slot)
            chunk.setProd(i, slot, prod[slot]);
    }
}

} // namespace csim
