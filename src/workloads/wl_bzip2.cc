/**
 * @file
 * bzip2 proxy (Burrows-Wheeler compression).
 *
 * The paper singles bzip2 out for *convergent dataflow* (Fig. 3): two
 * independent chains of dependent loads whose values reconverge at a
 * dyadic op (xor) feeding a mispredicted branch. The proxy's inner loop
 * is exactly that shape — two 2-deep load chains through permutation
 * tables, xor-compared, branching on the (random) result — plus a
 * Huffman-style bit-packing tail of shifts and ors.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareBzip2(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x627a6970ull + 11);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion tblA{0x100000, 1024};  // index tables
    const ArrayRegion tblB{0x110000, 1024};
    const ArrayRegion tblC{0x120000, 1024};
    const ArrayRegion tblD{0x130000, 1024};
    const ArrayRegion out{0x140000, 4096};

    // r1: i   r2..r5: table bases   r6: mask   r7: shift(3)
    // r8: out base   r9: bit accumulator
    Label loop = p.newLabel();
    Label noswap = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(6));
    p.sll(r(10), r(10), r(7));

    // chain 1: A[i] then B[A[i]]            (1, 3, 5 of Fig. 3)
    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);
    p.sll(r(13), r(12), r(7));
    p.add(r(13), r(13), r(3));
    p.ld(r(14), r(13), 0);                  // dependent load

    // chain 2: C[i] then D[C[i]]            (2, 4, 6 of Fig. 3)
    p.add(r(15), r(10), r(4));
    p.ld(r(16), r(15), 0);
    p.sll(r(17), r(16), r(7));
    p.add(r(17), r(17), r(5));
    p.ld(r(18), r(17), 0);                  // dependent load

    // convergence at a dyadic op feeding a mispredicting branch
    p.xor_(r(19), r(14), r(18));            // 7 (xor) of Fig. 3
    p.beq(r(19), noswap);                   // 8 (br*): data random

    // taken path: Huffman-ish bit packing (short serial chain)
    p.sll(r(9), r(9), r(20));               // r20 = 2
    p.or_(r(9), r(9), r(12));
    p.add(r(21), r(10), r(8));
    p.st(r(9), r(21), 0);

    p.bind(noswap);
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(1), 0);
    emu.setReg(r(2), static_cast<std::int64_t>(tblA.base));
    emu.setReg(r(3), static_cast<std::int64_t>(tblB.base));
    emu.setReg(r(4), static_cast<std::int64_t>(tblC.base));
    emu.setReg(r(5), static_cast<std::int64_t>(tblD.base));
    emu.setReg(r(6), static_cast<std::int64_t>(tblA.words - 1));
    emu.setReg(r(7), 3);
    emu.setReg(r(8), static_cast<std::int64_t>(out.base));
    emu.setReg(r(20), 2);

    fillRandomIndices(emu, tblA, rng, tblB.words);
    // B and D hold small values; the two chains collide (xor == 0)
    // about 1 time in 8, giving the convergence branch a SPEC-like
    // ~10% misprediction rate rather than a pure coin flip.
    fillRandomIndices(emu, tblB, rng, 8);
    fillRandomIndices(emu, tblC, rng, tblD.words);
    fillRandomIndices(emu, tblD, rng, 8);

    return w;
}

} // namespace csim
