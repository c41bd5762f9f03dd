/**
 * @file
 * Unit tests for the functional emulator: per-opcode semantics, the
 * zero register, memory, branches, floating point, and the trace it
 * records.
 */

#include <gtest/gtest.h>

#include <limits>

#include "emu/emulator.hh"
#include "emu/memory.hh"

namespace csim {
namespace {

const auto r = Program::r;
const auto f = Program::f;

TEST(SparseMemory, ReadAfterWrite)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1000), 0);
    m.write(0x1000, -42);
    EXPECT_EQ(m.read(0x1000), -42);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(SparseMemory, WordGranularity)
{
    SparseMemory m;
    m.write(0x2000, 7);
    // Any address within the same 8-byte word aliases.
    EXPECT_EQ(m.read(0x2003), 7);
    EXPECT_EQ(m.read(0x2008), 0);
}

TEST(SparseMemory, PagesAllocatedLazily)
{
    SparseMemory m;
    m.write(0x0, 1);
    m.write(0x100000, 2);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(Emulator, IntegerArithmeticWrapsAtInt64Extremes)
{
    constexpr std::int64_t max = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t min = std::numeric_limits<std::int64_t>::min();
    Program p;
    p.add(r(3), r(1), r(2));   // max + 1
    p.sub(r(4), r(5), r(2));   // min - 1
    p.mul(r(6), r(1), r(7));   // max * 3
    p.addi(r(8), r(1), 1);     // max + 1
    p.st(r(7), r(1), 9);       // store 3 at max + 9
    p.ld(r(9), r(1), 9);
    p.halt();
    p.finalize();
    Emulator emu(p);
    emu.setReg(r(1), max);
    emu.setReg(r(2), 1);
    emu.setReg(r(5), min);
    emu.setReg(r(7), 3);
    const Trace t = emu.run(100);
    ASSERT_EQ(t.size(), 6u);
    EXPECT_EQ(emu.reg(r(3)), min);
    EXPECT_EQ(emu.reg(r(4)), max);
    // 3 * (2^63 - 1) mod 2^64 = 2^63 - 3.
    EXPECT_EQ(emu.reg(r(6)), max - 2);
    EXPECT_EQ(emu.reg(r(8)), min);
    const Addr ea = Addr{1} << 63 | 8;
    EXPECT_EQ(t[4].memAddr, ea);
    EXPECT_EQ(t[5].memAddr, ea);
    EXPECT_EQ(emu.peek(ea), 3);
    EXPECT_EQ(emu.reg(r(9)), 3);
}

TEST(Emulator, IntegerArithmetic)
{
    Program p;
    p.lui(r(1), 10);
    p.lui(r(2), 3);
    p.add(r(3), r(1), r(2));
    p.sub(r(4), r(1), r(2));
    p.mul(r(5), r(1), r(2));
    p.and_(r(6), r(1), r(2));
    p.or_(r(7), r(1), r(2));
    p.xor_(r(8), r(1), r(2));
    p.sll(r(9), r(1), r(2));
    p.srl(r(10), r(1), r(2));
    p.halt();
    p.finalize();

    Emulator emu(p);
    emu.run(100);
    EXPECT_EQ(emu.reg(r(3)), 13);
    EXPECT_EQ(emu.reg(r(4)), 7);
    EXPECT_EQ(emu.reg(r(5)), 30);
    EXPECT_EQ(emu.reg(r(6)), 2);
    EXPECT_EQ(emu.reg(r(7)), 11);
    EXPECT_EQ(emu.reg(r(8)), 9);
    EXPECT_EQ(emu.reg(r(9)), 80);
    EXPECT_EQ(emu.reg(r(10)), 1);
}

TEST(Emulator, Comparisons)
{
    Program p;
    p.lui(r(1), 5);
    p.lui(r(2), 5);
    p.lui(r(3), 6);
    p.cmpeq(r(4), r(1), r(2));
    p.cmplt(r(5), r(1), r(3));
    p.cmplt(r(6), r(3), r(1));
    p.cmple(r(7), r(1), r(2));
    p.halt();
    p.finalize();

    Emulator emu(p);
    emu.run(100);
    EXPECT_EQ(emu.reg(r(4)), 1);
    EXPECT_EQ(emu.reg(r(5)), 1);
    EXPECT_EQ(emu.reg(r(6)), 0);
    EXPECT_EQ(emu.reg(r(7)), 1);
}

TEST(Emulator, ZeroRegisterReadsZeroAndDropsWrites)
{
    Program p;
    p.lui(r(31), 99);               // write to r31 is discarded
    p.add(r(1), r(31), r(31));
    p.halt();
    p.finalize();

    Emulator emu(p);
    emu.run(100);
    EXPECT_EQ(emu.reg(r(1)), 0);
}

TEST(Emulator, LoadsAndStores)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 77);
    p.st(r(2), r(1), 8);
    p.ld(r(3), r(1), 8);
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(100);
    EXPECT_EQ(emu.reg(r(3)), 77);
    EXPECT_EQ(emu.peek(0x1008), 77);

    // Trace records carry effective addresses.
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[2].memAddr, 0x1008u);
    EXPECT_EQ(t[3].memAddr, 0x1008u);
    EXPECT_TRUE(t[2].isStore());
    EXPECT_TRUE(t[3].isLoad());
}

TEST(Emulator, BranchSemantics)
{
    Program p;
    Label skip = p.newLabel();
    Label end = p.newLabel();
    p.lui(r(1), 0);
    p.beq(r(1), skip);              // taken: r1 == 0
    p.lui(r(2), 1);                 // skipped
    p.bind(skip);
    p.lui(r(3), 2);
    p.bne(r(3), end);               // taken: r3 != 0
    p.lui(r(4), 3);                 // skipped
    p.bind(end);
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(100);
    EXPECT_EQ(emu.reg(r(2)), 0);
    EXPECT_EQ(emu.reg(r(3)), 2);
    EXPECT_EQ(emu.reg(r(4)), 0);
    // Taken flags recorded.
    EXPECT_TRUE(t[1].taken);
}

TEST(Emulator, LoopExecutesExpectedIterations)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 5);                 // counter
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 10);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();

    Emulator emu(p);
    emu.run(1000);
    EXPECT_EQ(emu.reg(r(2)), 50);
}

TEST(Emulator, FloatingPoint)
{
    Program p;
    p.lui(r(1), 6);
    p.lui(r(2), 4);
    p.itof(f(1), r(1));
    p.itof(f(2), r(2));
    p.fadd(f(3), f(1), f(2));
    p.fmul(f(4), f(1), f(2));
    p.fdiv(f(5), f(1), f(2));
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(100);
    // FP results observed via a store round-trip would need int
    // conversion; instead check the recorded op classes.
    EXPECT_EQ(t[2].cls, OpClass::FpAlu);   // itof
    EXPECT_EQ(t[4].cls, OpClass::FpAlu);   // fadd
    EXPECT_EQ(t[5].cls, OpClass::FpAlu);   // fmul
    EXPECT_EQ(t[6].cls, OpClass::FpDiv);   // fdiv
}

TEST(Emulator, FdivByZeroYieldsZero)
{
    Program p;
    p.lui(r(1), 5);
    p.itof(f(1), r(1));
    p.fdiv(f(2), f(1), f(3));       // f3 never written: 0.0
    p.halt();
    p.finalize();
    Emulator emu(p);
    EXPECT_EQ(emu.run(100).size(), 3u);  // no trap, no crash
}

TEST(Emulator, MaxInstrsTruncates)
{
    Program p;
    Label loop = p.newLabel();
    p.bind(loop);
    p.addi(r(1), r(1), 1);
    p.jmp(loop);
    p.halt();
    p.finalize();

    Emulator emu(p);
    Trace t = emu.run(1000);
    EXPECT_EQ(t.size(), 1000u);
}

TEST(Emulator, PcEncodesStaticIndex)
{
    Program p;
    p.nop();
    p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Emulator emu(p);
    Trace t = emu.run(10);
    EXPECT_EQ(t[0].pc, Emulator::codeBase);
    EXPECT_EQ(t[1].pc, Emulator::codeBase + 4);
}

TEST(Emulator, PresetRegistersAndMemory)
{
    Program p;
    p.ld(r(2), r(1), 0);
    p.halt();
    p.finalize();
    Emulator emu(p);
    emu.setReg(r(1), 0x4000);
    emu.poke(0x4000, 123);
    emu.run(10);
    EXPECT_EQ(emu.reg(r(2)), 123);
}

} // anonymous namespace
} // namespace csim
