/**
 * @file
 * gcc proxy (compiler).
 *
 * Branchy and statically large: a dispatch loop reads "IR nodes" and
 * branches through a tree of opcode tests into one of many small
 * handler blocks, each with its own short dependence chains, loads and
 * stores. Generated programmatically so the static footprint (and thus
 * predictor pressure) is an order of magnitude larger than the other
 * proxies — gcc's defining feature.
 */

#include "workloads/workload.hh"

#include <vector>

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareGcc(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x67636321ull + 31);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    constexpr int numHandlers = 24;
    const ArrayRegion ir{0x100000, 4096};     // opcode stream
    const ArrayRegion operands{0x110000, 4096};
    const ArrayRegion output{0x120000, 4096};

    // r1: node index  r2: ir base  r3: operand base  r4: out base
    // r5: mask  r6: shift(3)
    Label loop = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(5));
    p.sll(r(10), r(10), r(6));
    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);                  // opcode

    // binary dispatch tree over the opcode (log2(24) levels of
    // data-dependent branches)
    std::vector<Label> handlers;
    handlers.reserve(numHandlers);
    for (int h = 0; h < numHandlers; ++h)
        handlers.push_back(p.newLabel());

    // Compare-and-branch chain: each test peels off one handler. The
    // stream is random, so the early tests are taken ~1/24 of the
    // time and train to weakly biased counters — gcc-like behaviour.
    for (int h = 0; h < numHandlers - 1; ++h) {
        p.addi(r(13), r(12), -h);
        p.beq(r(13), handlers[h]);
    }
    p.jmp(handlers[numHandlers - 1]);

    Label join = p.newLabel();
    for (int h = 0; h < numHandlers; ++h) {
        p.bind(handlers[h]);
        // Small handler body with distinct constants: load an
        // operand, transform, store a result.
        p.add(r(14), r(10), r(3));
        p.ld(r(15), r(14), 8 * (h % 7));
        p.addi(r(16), r(15), 3 * h + 1);
        if (h % 3 == 0) {
            p.sll(r(17), r(16), r(7));      // r7 = 1
            p.add(r(18), r(17), r(16));
        } else if (h % 3 == 1) {
            p.xor_(r(18), r(16), r(12));
        } else {
            p.sub(r(18), r(16), r(12));
            p.and_(r(18), r(18), r(5));
        }
        p.add(r(19), r(10), r(4));
        p.st(r(18), r(19), 0);
        p.add(r(20), r(20), r(18));         // running checksum
        p.jmp(join);
    }

    p.bind(join);
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(ir.base));
    emu.setReg(r(3), static_cast<std::int64_t>(operands.base));
    emu.setReg(r(4), static_cast<std::int64_t>(output.base));
    emu.setReg(r(5), static_cast<std::int64_t>(ir.words - 1));
    emu.setReg(r(6), 3);
    emu.setReg(r(7), 1);

    // Geometric opcode mix with run correlation: real IR streams are
    // dominated by a few node kinds AND arrive in runs (a block of
    // loads, a block of arithmetic), which the global-history
    // predictor exploits. Without the runs every dispatch test is a
    // coin flip and the proxy mispredicts far more than gcc does.
    std::int64_t last_op = 0;
    for (std::uint64_t i = 0; i < ir.words; ++i) {
        if (rng.below(100) < 14) {
            std::int64_t op = 0;
            while (op < numHandlers - 1 && rng.below(100) < 38)
                ++op;
            last_op = op;
        }
        emu.poke(ir.wordAddr(i), last_op);
    }
    fillRandom(emu, operands, rng, 0, 1 << 16);

    return w;
}

} // namespace csim
