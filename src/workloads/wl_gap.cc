/**
 * @file
 * gap proxy (computational group theory).
 *
 * Arbitrary-precision-style arithmetic over word vectors: a serial
 * carry chain (the spine) with parallel per-limb work diverging off it,
 * and a predictable inner loop. One of the programs stall-over-steer
 * helps most (Sec. 7), so the spine must be clearly identifiable.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareGap(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x67617021ull + 29);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion vecA{0x100000, 2048};
    const ArrayRegion vecB{0x110000, 2048};
    const ArrayRegion vecC{0x120000, 2048};

    // r1: limb index  r2..r4: vector bases  r5: mask  r9: carry (spine)
    Label loop = p.newLabel();
    Label nocarry = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(5));
    p.sll(r(10), r(10), r(6));              // r6 = 3

    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);                  // a limb
    p.add(r(13), r(10), r(3));
    p.ld(r(14), r(13), 0);                  // b limb

    // spine: Horner-style accumulation — a serial multiply chain
    // across iterations, the clearly identifiable execute-critical
    // chain gap needs for stall-over-steer to matter (Sec. 7)
    p.mul(r(9), r(9), r(23));               // acc *= x   (critical)
    p.add(r(9), r(9), r(12));               // acc += limb (critical)

    // divergent per-limb work (parallel, off the spine)
    p.add(r(15), r(12), r(14));
    p.srl(r(16), r(15), r(7));              // r7 = 32
    p.and_(r(16), r(15), r(8));             // r8 = low mask
    p.mul(r(17), r(12), r(14));             // multiply tail
    p.xor_(r(18), r(17), r(16));
    p.add(r(19), r(10), r(4));
    p.st(r(16), r(19), 0);
    p.st(r(18), r(19), 8192);

    // rare data-dependent overflow guard (~0.4% of limbs): keeps the
    // trace seed-sensitive while staying predictable
    p.and_(r(21), r(15), r(22));            // r22 = 255
    p.beq(r(21), nocarry);
    p.addi(r(20), r(20), 1);
    p.bind(nocarry);
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(vecA.base));
    emu.setReg(r(3), static_cast<std::int64_t>(vecB.base));
    emu.setReg(r(4), static_cast<std::int64_t>(vecC.base));
    emu.setReg(r(5), static_cast<std::int64_t>(vecA.words - 1));
    emu.setReg(r(6), 3);
    emu.setReg(r(7), 32);
    emu.setReg(r(8), 0xffffffffll);
    emu.setReg(r(9), 1);
    emu.setReg(r(22), 255);
    emu.setReg(r(23), 3);                   // Horner x

    // Limbs below 2^31 so the carry is always zero: the carry *chain*
    // still serialises the dataflow, but the carry branch stays
    // predictable (gap's control flow is regular).
    fillRandom(emu, vecA, rng, 0, (1ll << 31) - 1);
    fillRandom(emu, vecB, rng, 0, (1ll << 31) - 1);

    return w;
}

} // namespace csim
