/**
 * @file
 * vortex proxy (object-oriented database).
 *
 * High-ILP, predictably-branched record manipulation: fetch an object
 * header, touch several independent fields (wide parallel loads),
 * update and write them back. Vortex clusters well in the paper —
 * plenty of independent work to spread — so the proxy emphasises
 * breadth over chain depth.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareVortex(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x766f7274ull + 47);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    // Objects of 8 fields; 256 objects = 16KB (mostly L1 resident).
    const ArrayRegion objects{0x100000, 2048};

    // r1: object index  r2: base  r4: mask(255)  r5: shift(6: 64B obj)
    Label loop = p.newLabel();
    Label nomark = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(4));
    p.sll(r(10), r(10), r(5));
    p.add(r(11), r(10), r(2));              // object base address

    // wide independent field reads
    p.ld(r(12), r(11), 0);
    p.ld(r(13), r(11), 8);
    p.ld(r(14), r(11), 16);
    p.ld(r(15), r(11), 24);

    // independent field updates (parallel chains)
    p.addi(r(16), r(12), 1);
    p.xor_(r(17), r(13), r(12));
    p.add(r(18), r(14), r(13));
    p.srl(r(19), r(15), r(6));              // r6 = 1

    p.st(r(16), r(11), 0);
    p.st(r(17), r(11), 8);
    p.st(r(18), r(11), 16);
    p.st(r(19), r(11), 24);

    // a rare data-dependent consistency check (~1.6% of objects),
    // keeping vortex branchy-but-predictable
    p.and_(r(21), r(12), r(7));             // r7 = 63
    p.bne(r(21), nomark);
    p.add(r(20), r(20), r(16));
    p.bind(nomark);
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(objects.base));
    emu.setReg(r(4), 255);
    emu.setReg(r(5), 6);
    emu.setReg(r(6), 1);
    emu.setReg(r(7), 63);

    fillRandom(emu, objects, rng, 1, 1 << 16);

    return w;
}

} // namespace csim
