/**
 * @file
 * Workload interface: each SPECint 2000 proxy is a function that builds
 * a Program in the mini-ISA, initialises simulated memory with seeded
 * random data and hands back an emulator paused at the entry point.
 *
 * The proxies are not the SPEC sources; they are small programs that
 * reproduce the dataflow motifs the paper attributes to each benchmark
 * (convergent dataflow, spine-and-ribs, hammocks, divergent trees,
 * pointer chasing, hash chains). See DESIGN.md for the substitution
 * argument.
 */

#ifndef CSIM_WORKLOADS_WORKLOAD_HH
#define CSIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>

#include "emu/emulator.hh"
#include "isa/program.hh"
#include "trace/trace.hh"

namespace csim {

struct WorkloadConfig
{
    /** Dynamic instructions to trace (the emulator stops here). */
    std::uint64_t targetInstructions = 100000;
    /** Seed for the workload's data (the paper averages 3 samples). */
    std::uint64_t seed = 1;
};

/**
 * A workload paused at its entry point: program built, memory and
 * registers seeded, nothing executed yet. The streaming trace build
 * pulls the dynamic stream from here in bounded chunks
 * (Emulator::runChunk); buildWorkloadTrace() is a preparer followed
 * by one full run().
 */
struct PreparedWorkload
{
    std::unique_ptr<Program> program;
    /** References *program; keep both together. */
    std::unique_ptr<Emulator> emulator;
};

using WorkloadPreparer = PreparedWorkload (*)(const WorkloadConfig &);

// One paused-at-entry preparer per SPECint 2000 proxy.
PreparedWorkload prepareBzip2(const WorkloadConfig &cfg);
PreparedWorkload prepareCrafty(const WorkloadConfig &cfg);
PreparedWorkload prepareEon(const WorkloadConfig &cfg);
PreparedWorkload prepareGap(const WorkloadConfig &cfg);
PreparedWorkload prepareGcc(const WorkloadConfig &cfg);
PreparedWorkload prepareGzip(const WorkloadConfig &cfg);
PreparedWorkload prepareMcf(const WorkloadConfig &cfg);
PreparedWorkload prepareParser(const WorkloadConfig &cfg);
PreparedWorkload preparePerl(const WorkloadConfig &cfg);
PreparedWorkload prepareTwolf(const WorkloadConfig &cfg);
PreparedWorkload prepareVortex(const WorkloadConfig &cfg);
PreparedWorkload prepareVpr(const WorkloadConfig &cfg);

} // namespace csim

#endif // CSIM_WORKLOADS_WORKLOAD_HH
