/**
 * @file
 * mcf proxy (network simplex / minimum cost flow).
 *
 * The memory-bound pointer chaser of SPECint: node traversal over a
 * working set far larger than the L1, so the critical path is
 * dominated by load misses. The proxy chases a random cycle through a
 * 1M-word region (8MB against a 32KB L1), accumulating node fields and
 * taking a data-dependent branch on the node's "potential".
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
prepareMcf(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x6d636621ull + 17);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    // 2^17 nodes of 4 words each = 4MB: far beyond the 32KB L1.
    const std::uint64_t nodes = std::uint64_t{1} << 17;
    const ArrayRegion next{0x1000000, nodes};        // next pointers
    // Node payload interleaved at next-pointer address + big offset.
    const std::int64_t payload_off = 8 * 1024 * 1024;

    // r1: node cursor (address)   r2: accumulator  r3: threshold
    Label loop = p.newLabel();
    Label cheap = p.newLabel();

    p.bind(loop);
    p.ld(r(1), r(1), 0);                    // chase: node = node->next
    p.ld(r(10), r(1), payload_off);         // cost field (also misses)
    p.add(r(2), r(2), r(10));               // accumulate flow cost
    p.cmplt(r(11), r(10), r(3));
    p.bne(r(11), cheap);                    // data-dependent
    p.sub(r(2), r(2), r(12));               // price out
    p.sll(r(13), r(10), r(14));
    p.add(r(2), r(2), r(13));
    p.bind(cheap);
    p.addi(r(15), r(15), 1);                // iteration count
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(1), static_cast<std::int64_t>(next.base));
    emu.setReg(r(3), 8);                    // taken ~12.5%: mostly
                                            // predictable (mcf is
                                            // memory- not branch-bound)
    emu.setReg(r(12), 5);
    emu.setReg(r(14), 1);

    fillPointerCycle(emu, next, rng);
    // Payload region: random costs in [0, 64).
    const ArrayRegion payload{next.base +
        static_cast<Addr>(payload_off), nodes};
    fillRandomIndices(emu, payload, rng, 64);

    return w;
}

} // namespace csim
