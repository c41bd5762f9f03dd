/**
 * @file
 * twolf proxy (standard-cell placement, simulated annealing).
 *
 * Cost-delta evaluation hammocks on the critical path: a cell's
 * position feeds two independent cost chains (old cost / new cost)
 * that reconverge at the accept/reject comparison — the dataflow
 * hammock the paper says limits proactive load-balancing on twolf
 * (Sec. 7). The accept branch is data-dependent.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareTwolf(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x74776f6cull + 43);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion cells{0x100000, 2048};
    const ArrayRegion nets{0x110000, 2048};

    // r1: move counter  r2: cells base  r3: nets base  r4: mask
    Label loop = p.newLabel();
    Label reject = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(4));
    p.sll(r(10), r(10), r(5));              // r5 = 3
    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);                  // cell position (hammock
                                            // source)

    // chain 1: old wirelength cost
    p.add(r(13), r(10), r(3));
    p.ld(r(14), r(13), 0);                  // net span
    p.sub(r(15), r(12), r(14));
    p.and_(r(15), r(15), r(4));
    p.add(r(16), r(15), r(14));

    // chain 2: new cost after the proposed swap
    p.addi(r(17), r(12), 64);               // proposed position
    p.and_(r(17), r(17), r(4));
    p.sub(r(18), r(17), r(14));
    p.and_(r(18), r(18), r(4));
    p.add(r(19), r(18), r(17));

    // reconvergence: accept if the move improves the cost by enough
    // (late-anneal temperature: ~15% acceptance)
    p.sub(r(26), r(16), r(25));             // old cost - margin
    p.cmplt(r(20), r(19), r(26));           // dyadic consumer
    p.beq(r(20), reject);                   // taken ~85%, learnable

    // accept: commit the move
    p.st(r(17), r(11), 0);
    p.add(r(21), r(21), r(19));
    p.sub(r(22), r(16), r(19));
    p.add(r(23), r(23), r(22));             // delta accumulator

    p.bind(reject);
    p.add(r(24), r(24), r(16));             // cost bookkeeping
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(cells.base));
    emu.setReg(r(3), static_cast<std::int64_t>(nets.base));
    emu.setReg(r(4), static_cast<std::int64_t>(cells.words - 1));
    emu.setReg(r(5), 3);
    emu.setReg(r(25), 1400);                // acceptance margin

    fillRandom(emu, cells, rng, 0, 2047);
    fillRandom(emu, nets, rng, 0, 2047);

    return w;
}

} // namespace csim
