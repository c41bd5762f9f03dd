/**
 * @file
 * crafty proxy (chess).
 *
 * Bitboard manipulation: wide logical operations (and/or/xor/shift)
 * over 64-bit boards with convergent dataflow — move generation
 * combines several independently computed attack masks into one board
 * that a data-dependent branch tests. The paper groups crafty with
 * bzip2 as convergence-limited (Sec. 2.2).
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareCrafty(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x63726166ull + 19);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion boards{0x100000, 1024};
    const ArrayRegion attacks{0x110000, 1024};

    // r1: ply index  r2: boards base  r3: attacks base  r4: mask
    Label loop = p.newLabel();
    Label quiet = p.newLabel();
    Label nocap = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(4));
    p.sll(r(10), r(10), r(5));              // r5 = 3

    // two independent mask computations (convergent chains)
    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);                  // own pieces
    p.srl(r(13), r(12), r(6));              // r6 = 1
    p.xor_(r(14), r(13), r(12));            // file fill

    p.add(r(15), r(10), r(3));
    p.ld(r(16), r(15), 0);                  // enemy attacks
    p.sll(r(17), r(16), r(6));
    p.or_(r(18), r(17), r(16));

    p.and_(r(19), r(14), r(18));            // convergence: capture set
    p.and_(r(25), r(19), r(26));            // low bits of the board
    p.beq(r(25), quiet);                    // taken ~1/8: ~10% mispred

    // capture path: update both boards
    p.xor_(r(12), r(12), r(19));
    p.st(r(12), r(11), 0);
    p.and_(r(20), r(19), r(16));
    p.beq(r(20), nocap);
    p.xor_(r(16), r(16), r(20));
    p.st(r(16), r(15), 0);
    p.bind(nocap);

    p.bind(quiet);
    // evaluation tail: popcount-ish fold of the capture set
    p.srl(r(21), r(19), r(7));              // r7 = 2
    p.add(r(22), r(21), r(19));
    p.and_(r(23), r(22), r(8));             // r8 = 0x3333...
    p.add(r(24), r(24), r(23));             // running eval
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(boards.base));
    emu.setReg(r(3), static_cast<std::int64_t>(attacks.base));
    emu.setReg(r(4), static_cast<std::int64_t>(boards.words - 1));
    emu.setReg(r(5), 3);
    emu.setReg(r(6), 1);
    emu.setReg(r(7), 2);
    emu.setReg(r(8), 0x3333333333333333ll);
    emu.setReg(r(26), 7);

    fillRandom(emu, boards, rng, 0, (1ll << 31));
    fillRandom(emu, attacks, rng, 0, (1ll << 31));

    return w;
}

} // namespace csim
