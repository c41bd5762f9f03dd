/**
 * @file
 * eon proxy (probabilistic ray tracer, the only C++ SPECint program).
 *
 * Floating-point flavoured integer benchmark: dot products and shading
 * accumulations with predictable control flow and decent ILP. Exercises
 * the per-cluster FP ports (eon is the reason each 1-wide cluster still
 * rounds up to one FP ALU, Table 1 footnote).
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareEon(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x656f6e21ull + 23);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;
    const auto f = Program::f;

    const ArrayRegion rays{0x100000, 3 * 1024};    // x,y,z triples

    // r1: ray index  r2: base  r4: mask
    Label loop = p.newLabel();
    Label miss = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(4));
    p.mul(r(11), r(10), r(5));              // r5 = 24 (triple stride)
    p.add(r(11), r(11), r(2));

    // load direction components and convert
    p.ld(r(12), r(11), 0);
    p.ld(r(13), r(11), 8);
    p.ld(r(14), r(11), 16);
    p.itof(f(1), r(12));
    p.itof(f(2), r(13));
    p.itof(f(3), r(14));

    // dot product with the normal (f4..f6) — parallel FP multiplies
    p.fmul(f(7), f(1), f(4));
    p.fmul(f(8), f(2), f(5));
    p.fmul(f(9), f(3), f(6));
    p.fadd(f(10), f(7), f(8));
    p.fadd(f(10), f(10), f(9));

    // facing test: predictable for coherent rays
    p.fcmp(r(15), r(16), r(12));            // int compare proxy
    p.beq(r(15), miss);
    // shade: reciprocal-ish divide then accumulate
    p.fdiv(f(11), f(12), f(10));
    p.fadd(f(13), f(13), f(11));
    p.bind(miss);
    p.add(r(17), r(17), r(12));             // integer bookkeeping
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(rays.base));
    emu.setReg(r(4), 1023);
    emu.setReg(r(5), 24);
    emu.setReg(r(16), 1);

    fillRandom(emu, rays, rng, 1, 255);

    return w;
}

} // namespace csim
