/**
 * @file
 * gzip proxy (LZ77 compression).
 *
 * Dominated by hash-chain following in longest_match(): a long serial
 * chain of dependent loads with comparisons, i.e. an execute-critical,
 * low-ILP region — the shape for which the paper's stall-over-steer
 * policy buys its 20% speedup (Sec. 5, Sec. 7). The proxy follows a
 * pre-built chain table, comparing window bytes, with an early-exit
 * branch, then a short bookkeeping tail.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareGzip(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x677a6970ull + 13);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion chain{0x100000, 2048};  // next-pointer table
    const ArrayRegion window{0x120000, 2048}; // "window" bytes

    // r1: cursor (address)  r2: window base  r3: match target
    // r4: mask  r5: depth counter  r6: depth limit
    Label outer = p.newLabel();
    Label follow = p.newLabel();
    Label matched = p.newLabel();

    p.bind(outer);
    // restart the chase from a data-dependent head
    p.and_(r(10), r(7), r(4));
    p.sll(r(10), r(10), r(8));              // r8 = 3
    p.add(r(1), r(10), r(9));               // r9 = chain base
    p.addi(r(5), r(31), 0);                 // depth = 0

    p.bind(follow);
    // the serial spine: pointer-chase through the hash chain
    p.ld(r(1), r(1), 0);                    // cursor = chain[cursor]
    // compare window byte at this position against the target
    p.and_(r(11), r(1), r(4));
    p.sll(r(12), r(11), r(8));
    p.add(r(12), r(12), r(2));
    p.ld(r(13), r(12), 0);
    p.cmpeq(r(14), r(13), r(3));
    p.bne(r(14), matched);                  // early exit, rare
    p.addi(r(5), r(5), 1);
    p.cmplt(r(15), r(5), r(6));
    p.bne(r(15), follow);                   // mostly taken (chase on)

    p.bind(matched);
    // bookkeeping tail; evolve the head for the next chase
    p.add(r(7), r(7), r(13));
    p.addi(r(7), r(7), 17);
    p.jmp(outer);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(window.base));
    emu.setReg(r(3), 3);                    // match value (rare in data)
    emu.setReg(r(4), static_cast<std::int64_t>(chain.words - 1));
    emu.setReg(r(6), 24);                   // max chase depth
    emu.setReg(r(7), 1);
    emu.setReg(r(8), 3);
    emu.setReg(r(9), static_cast<std::int64_t>(chain.base));

    fillPointerCycle(emu, chain, rng);
    fillRandomIndices(emu, window, rng, 64); // value 3 hits ~1.6%

    return w;
}

} // namespace csim
