/**
 * @file
 * vpr proxy (FPGA place & route).
 *
 * The paper's running example (Figs. 7, 10): a "spine and ribs" loop.
 * The dominant spine computes a loop-carried heap index through a chain
 * of dependent integer ops; ribs periodically diverge from the spine,
 * load placement costs, evaluate a dataflow hammock (one value feeding
 * two chains that reconverge at a dyadic op) and terminate in stores
 * and a hard-to-predict branch. Instructions on the rib and on the
 * spine both consume the same source register, recreating the a/b
 * contention scenario of Sec. 4.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareVpr(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x76707221ull + 7);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion heap{0x100000, 2048};
    const ArrayRegion cost{0x120000, 2048};

    // r1: spine index  r2: heap base  r3: cost base  r4: mask
    // r5: threshold    r6: step       r31: zero
    Label loop = p.newLabel();
    Label skip = p.newLabel();
    Label skip2 = p.newLabel();

    p.bind(loop);
    // --- spine: get_heap_head()-like loop-carried chain ---
    p.add(r(1), r(1), r(6));        // b: spine advance (critical)
    p.and_(r(10), r(1), r(4));      // spine-dependent index
    p.sll(r(11), r(10), r(7));      // byte offset (r7 = 3)
    p.add(r(12), r(11), r(2));      // heap address

    // --- rib 1: consume the spine value; ends in a mispredicting
    //     branch (both this and the spine consume r1's value) ---
    p.ld(r(13), r(12), 0);          // heap entry
    p.cmplt(r(14), r(13), r(5));    // data-dependent test
    p.bne(r(14), skip);             // a: hard to predict

    // hammock: r13 feeds two chains that reconverge
    p.add(r(15), r(13), r(6));
    p.sll(r(16), r(15), r(7));
    p.sub(r(17), r(13), r(5));
    p.and_(r(18), r(17), r(4));
    p.xor_(r(19), r(16), r(18));    // convergence
    p.add(r(20), r(11), r(3));
    p.st(r(19), r(20), 0);          // cost update

    p.bind(skip);
    // --- rib 2: second cost load, predictable test ---
    p.ld(r(21), r(20), 8);
    p.cmplt(r(22), r(21), r(31));
    p.bne(r(22), skip2);            // almost never taken
    p.add(r(23), r(21), r(13));
    p.st(r(23), r(20), 8);
    p.bind(skip2);

    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(1), 0);
    emu.setReg(r(2), static_cast<std::int64_t>(heap.base));
    emu.setReg(r(3), static_cast<std::int64_t>(cost.base));
    emu.setReg(r(4), static_cast<std::int64_t>(heap.words - 1));
    emu.setReg(r(5), 130);          // ~13% taken given data in [0,1000]
    emu.setReg(r(6), 1);
    emu.setReg(r(7), 3);
    emu.setReg(r(20), static_cast<std::int64_t>(cost.base));

    fillRandom(emu, heap, rng, 0, 1000);
    fillRandom(emu, cost, rng, 0, 1 << 20);

    return w;
}

} // namespace csim
