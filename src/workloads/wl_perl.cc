/**
 * @file
 * perl proxy (interpreter).
 *
 * A bytecode dispatch loop: fetch an op from a bytecode stream, branch
 * on its class (hard to predict: the stream is data), run a short
 * handler that reads/writes an operand stack. Interpreter dispatch is
 * SPECint's classic mispredict generator.
 */

#include "workloads/workload.hh"

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "workloads/patterns.hh"

namespace csim {

PreparedWorkload
preparePerl(const WorkloadConfig &cfg)
{
    Rng rng(cfg.seed * 0x7065726cull + 41);
    PreparedWorkload w;
    w.program = std::make_unique<Program>();
    Program &p = *w.program;
    const auto r = Program::r;

    const ArrayRegion bytecode{0x100000, 4096};
    const ArrayRegion stack{0x110000, 1024};
    const ArrayRegion scalars{0x120000, 1024};

    // r1: pc index  r2: bytecode base  r3: stack ptr (word index)
    // r4: mask  r8: scalars base
    Label loop = p.newLabel();
    Label op_add = p.newLabel();
    Label op_load = p.newLabel();
    Label op_store = p.newLabel();
    Label join = p.newLabel();

    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.and_(r(10), r(1), r(4));
    p.sll(r(10), r(10), r(5));              // r5 = 3
    p.add(r(11), r(10), r(2));
    p.ld(r(12), r(11), 0);                  // opcode (random 0..3)

    p.addi(r(13), r(12), -1);
    p.beq(r(13), op_add);                   // 25%: mispredicts
    p.addi(r(13), r(12), -2);
    p.beq(r(13), op_load);
    p.addi(r(13), r(12), -3);
    p.beq(r(13), op_store);

    // default: arithmetic on top of stack in-place
    p.and_(r(14), r(3), r(6));              // r6 = stack mask
    p.sll(r(14), r(14), r(5));
    p.add(r(14), r(14), r(7));              // r7 = stack base
    p.ld(r(15), r(14), 0);
    p.addi(r(15), r(15), 1);
    p.st(r(15), r(14), 0);
    p.jmp(join);

    p.bind(op_add);                         // pop two, push sum
    p.and_(r(14), r(3), r(6));
    p.sll(r(14), r(14), r(5));
    p.add(r(14), r(14), r(7));
    p.ld(r(15), r(14), 0);
    p.ld(r(16), r(14), 8);
    p.add(r(17), r(15), r(16));
    p.st(r(17), r(14), 0);
    p.addi(r(3), r(3), -1);
    p.jmp(join);

    p.bind(op_load);                        // push a scalar
    p.and_(r(18), r(12), r(6));
    p.sll(r(18), r(18), r(5));
    p.add(r(18), r(18), r(8));
    p.ld(r(19), r(18), 0);
    p.addi(r(3), r(3), 1);
    p.and_(r(14), r(3), r(6));
    p.sll(r(14), r(14), r(5));
    p.add(r(14), r(14), r(7));
    p.st(r(19), r(14), 0);
    p.jmp(join);

    p.bind(op_store);                       // pop into a scalar
    p.and_(r(14), r(3), r(6));
    p.sll(r(14), r(14), r(5));
    p.add(r(14), r(14), r(7));
    p.ld(r(20), r(14), 0);
    p.and_(r(21), r(20), r(6));
    p.sll(r(21), r(21), r(5));
    p.add(r(21), r(21), r(8));
    p.st(r(20), r(21), 0);
    p.addi(r(3), r(3), -1);
    p.jmp(join);

    p.bind(join);
    p.jmp(loop);
    p.halt();
    p.finalize();

    w.emulator = std::make_unique<Emulator>(p);
    Emulator &emu = *w.emulator;
    emu.setReg(r(2), static_cast<std::int64_t>(bytecode.base));
    emu.setReg(r(3), 64);                   // stack depth cursor
    emu.setReg(r(4), static_cast<std::int64_t>(bytecode.words - 1));
    emu.setReg(r(5), 3);
    emu.setReg(r(6), static_cast<std::int64_t>(stack.words - 1));
    emu.setReg(r(7), static_cast<std::int64_t>(stack.base));
    emu.setReg(r(8), static_cast<std::int64_t>(scalars.base));

    // Skewed opcode mix (real interpreters are dominated by a few
    // ops): arithmetic 82%, add 8%, load 6%, store 4%. The dispatch
    // tree mispredicts on the minority ops.
    for (std::uint64_t i = 0; i < bytecode.words; ++i) {
        const std::uint64_t roll = rng.below(100);
        std::int64_t op = 0;
        if (roll >= 96)
            op = 3;
        else if (roll >= 90)
            op = 2;
        else if (roll >= 82)
            op = 1;
        emu.poke(bytecode.wordAddr(i), op);
    }
    fillRandomIndices(emu, scalars, rng, 256);
    fillRandomIndices(emu, stack, rng, 256);

    return w;
}

} // namespace csim
