/**
 * @file
 * parser proxy (link grammar parser).
 *
 * Linked-list dictionary walks with data-dependent early exits — the
 * divergent early-exit loop of the paper's Fig. 12: two loop-carried
 * dependences (the list cursor and the trip counter) with per-element
 * comparisons diverging off both.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareParser(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x70617273ull + 37);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    // A 32KB dictionary: right at the L1 capacity, so the chase sees
    // occasional misses like the real benchmark's working set.
    const ArrayRegion list{0x100000, 4096};   // next pointers
    const ArrayRegion words{0x100000 + 8 * 4096, 4096}; // payload

    // Fig. 12 shape: for (i = 0; i < N; ++i) if (A[i] == a) break;
    // r1: cursor (addl-like loop-carried #1: pointer)
    // r2: trip counter (loop-carried #2)
    // r3: search key  r4: trip limit
    Label outer = p.newLabel();
    Label scan = p.newLabel();
    Label found = p.newLabel();

    p.bind(outer);
    p.addi(r(2), r(31), 0);                 // counter = 0
    p.and_(r(10), r(9), r(5));              // pick a start bucket
    p.sll(r(10), r(10), r(6));
    p.add(r(1), r(10), r(7));               // cursor = &list[bucket]

    p.bind(scan);
    p.addi(r(2), r(2), 1);                  // addl  (counter spine)
    p.ld(r(11), r(1), 8 * 4096);            // ldl   (payload)
    p.cmple(r(12), r(2), r(4));             // cmple (counter test)
    p.ld(r(1), r(1), 0);                    // lda-ish: cursor advance
    p.cmpeq(r(13), r(11), r(3));            // cmpeq (match test)
    // dictionary bookkeeping off the payload (parallel work per
    // element, as in the real parser's connector checks)
    p.and_(r(16), r(11), r(5));
    p.add(r(17), r(17), r(16));
    p.sll(r(18), r(11), r(6));
    p.xor_(r(19), r(19), r(18));
    p.add(r(21), r(21), r(11));
    p.bne(r(13), found);                    // bne: early exit (rare)
    p.bne(r(12), scan);                     // bne: loop back

    p.bind(found);
    p.add(r(9), r(9), r(11));               // evolve bucket choice
    p.add(r(14), r(14), r(2));              // stats
    p.jmp(outer);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(3), 7);                    // key: ~1/48 of payload
    emu.setReg(r(4), 20);                   // trip limit
    emu.setReg(r(5), static_cast<std::int64_t>(list.words - 1));
    emu.setReg(r(6), 3);
    emu.setReg(r(7), static_cast<std::int64_t>(list.base));
    emu.setReg(r(9), 1);

    fillPointerCycle(emu, list, rng);
    fillRandomIndices(emu, words, rng, 48);

    return w;
}

} // namespace csim
