/**
 * @file
 * Simulator throughput baseline: how fast is the *simulator*, not the
 * simulated machine. Runs a fixed workload x geometry grid through
 * the sweep engine once on 1 worker thread and once on N
 * (--threads / CSIM_THREADS), recording for each pass host wall
 * seconds, simulated instructions, derived host-MIPS and peak RSS
 * into the JSON report's per-run "host" blocks — the perf trajectory
 * that `tools/perf_diff.py` compares across commits. The committed
 * repo-root baseline is regenerated with:
 *
 *   ./build/bench/bench_throughput --json BENCH_throughput.json
 *
 * Every speed change (SoA timing loop, binary trace store) is judged
 * against that file. The canonical (duration-free) timer tree is
 * printed to stdout so CI can archive it and diff it across thread
 * counts.
 */

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "obs/host_prof.hh"
#include "obs/stats_registry.hh"
#include "trace/trace_soa.hh"
#include "trace/trace_store.hh"
#include "workloads/registry.hh"

using namespace csim;

namespace {

/** Human-readable wall-time tree: one line per scope with share of
 *  the parent, calls and per-scope host MIPS where known. */
void
printTimerTree(const HostProfNode &node, unsigned depth,
               std::uint64_t parent_ns)
{
    const double ms = static_cast<double>(node.ns) / 1e6;
    const double share = parent_ns
        ? 100.0 * static_cast<double>(node.ns) /
            static_cast<double>(parent_ns)
        : 100.0;
    std::printf("%*s%-*s %9.2fms %5.1f%% calls=%" PRIu64,
                static_cast<int>(2 * depth), "",
                static_cast<int>(24 - std::min(24u, 2 * depth)),
                node.name.c_str(), ms, share, node.calls);
    if (node.mips() > 0.0)
        std::printf(" mips=%.1f", node.mips());
    std::printf("\n");
    for (const HostProfNode &child : node.children)
        printTimerTree(child, depth + 1, node.ns);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_throughput", argc, argv);

    // Fixed measurement grid: three workloads spanning the trace-mix
    // spectrum x the monolithic, 4- and 8-cluster geometries under
    // focused steering. Deliberately small so the bench stays cheap
    // enough for CI while still exercising trace build, annotate,
    // depgraph analysis and the sim loop.
    const std::vector<std::string> workloads = {"gcc", "gzip", "mcf"};
    const std::vector<MachineConfig> machines = {
        MachineConfig::monolithic(),
        MachineConfig::clustered(4),
        MachineConfig::clustered(8),
    };

    SweepSpec spec;
    spec.cfg.instructions = 20000;
    spec.cfg.seeds = {1, 2};
    ctx.apply(spec.cfg);
    spec.crossTiming(workloads, machines, {PolicyKind::Focused});

    std::vector<unsigned> passes = {1};
    if (ctx.threads() > 1)
        passes.push_back(ctx.threads());

    std::printf("=== Simulator throughput baseline ===\n");
    std::printf("grid: %zu cells x %zu seeds x %" PRIu64
                " instructions\n\n",
                spec.cells.size(), spec.cfg.seeds.size(),
                spec.cfg.instructions);

    for (unsigned threads : passes) {
        // Fresh profile and trace cache per pass: both passes pay the
        // same trace-build cost, so their host-MIPS are comparable.
        HostProf::reset();
        TraceCache cache;
        SweepRunner runner(threads, &cache);
        SweepOutcome outcome = runner.run(spec);

        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        for (const AggregateResult &res : outcome.results) {
            instructions += res.instructions;
            cycles += res.cycles;
        }

        const std::string label =
            "throughput/threads=" + std::to_string(threads);
        StatsRegistry reg;
        reg.addCounter("throughput.instructions") += instructions;
        reg.addCounter("throughput.cycles") += cycles;
        reg.addCounter("throughput.cells") += outcome.cells.size();
        ctx.addRunStats(label, reg.snapshot());

        const HostMemoryStats mem = sampleHostMemory();
        RunHostMetrics host;
        host.wallSeconds = outcome.wallSeconds;
        host.instructions = instructions;
        host.peakRssBytes = mem.peakRssBytes;
        ctx.addRunHost(label, host);

        const double mips = host.wallSeconds > 0.0
            ? static_cast<double>(instructions) / host.wallSeconds /
                1e6
            : 0.0;
        ctx.addScalar("hostMips.threads" + std::to_string(threads),
                      mips);
        std::printf("--- %u thread%s: %.3fs wall, %.2f host-MIPS, "
                    "peak RSS %.1f MiB ---\n",
                    threads, threads == 1 ? "" : "s",
                    host.wallSeconds, mips,
                    static_cast<double>(mem.peakRssBytes) /
                        (1024.0 * 1024.0));
        if (HostProf::compiledIn())
            printTimerTree(HostProf::snapshot(), 0, 0);
        std::printf("\n");
    }

    // Duration-free canonical tree of the *last* pass: byte-identical
    // across thread counts for this fixed grid, so CI can diff it.
    // The end marker bounds that diff — everything after it (the
    // large-trace box) carries wall times and RSS samples.
    if (HostProf::compiledIn()) {
        std::printf("=== canonical timer tree (duration-free) ===\n%s"
                    "=== end canonical tree ===\n",
                    hostProfCanonical(HostProf::snapshot()).c_str());
    }

    // ------------------------------------------------------------------
    // Large-trace box: the 100M-scale pipeline at CI-affordable size.
    // A 10M-instruction trace is stream-built straight into a columnar
    // store file (peak RSS O(chunk), not O(trace)), mmap-ed back, and
    // simulated as evenly spaced warmup+measure regions — only the
    // sampled pages are ever touched, so the whole box stays far under
    // the 256 MiB acceptance budget a monolithic build would blow
    // through (~470 MiB of trace columns alone).
    {
        HostProf::reset();
        constexpr std::uint64_t largeInstructions = 10'000'000;
        const std::string path = "/tmp/csim_throughput_large_" +
            std::to_string(::getpid()) + ".trc2";

        const auto t0 = std::chrono::steady_clock::now();
        WorkloadConfig wcfg;
        wcfg.targetInstructions = largeInstructions;
        wcfg.seed = 1;
        const TraceStoreBuildResult built =
            buildTraceStoreFile("gcc", wcfg, path);
        if (!built.ok)
            CSIM_FATAL_F("large-trace box: store build failed (%s)",
                         path.c_str());

        TraceSoA soa;
        TraceStoreInfo info;
        const TraceIoStatus st = loadTraceStore(soa, path, &info);
        if (st != TraceIoStatus::Ok)
            CSIM_FATAL_F("large-trace box: load failed: %s",
                         traceIoStatusName(st));

        ExperimentConfig lcfg;
        lcfg.instructions = largeInstructions;
        lcfg.regions = 8;
        lcfg.regionLen = 50000;
        lcfg.regionWarmup = 10000;
        const AggregateResult agg = runRegionSampledCell(
            soa, MachineConfig::clustered(4), PolicyKind::Focused,
            lcfg);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        const std::string label = "throughput/large=10M";
        StatsRegistry reg;
        // Instructions stream-built into the store.
        reg.addCounter("throughput.large.traceInstructions") +=
            built.instructions;
        reg.addCounter("throughput.large.fileBytes") += info.fileBytes;
        reg.addCounter("throughput.large.regions") += lcfg.regions;
        // Measured instructions and cycles across the regions.
        reg.addCounter("throughput.large.instructions") +=
            agg.instructions;
        reg.addCounter("throughput.large.cycles") += agg.cycles;
        ctx.addRunStats(label, reg.snapshot(), IntervalSeries{},
                        agg.phases);

        const HostMemoryStats mem = sampleHostMemory();
        RunHostMetrics host;
        host.wallSeconds = wall;
        host.instructions = agg.instructions;
        host.peakRssBytes = mem.peakRssBytes;
        ctx.addRunHost(label, host);

        std::printf("--- large 10M box: %.3fs wall (build+mmap+sim), "
                    "store %.1f MiB, measured CPI %.3f, peak RSS "
                    "%.1f MiB ---\n",
                    wall,
                    static_cast<double>(info.fileBytes) /
                        (1024.0 * 1024.0),
                    agg.cpi(),
                    static_cast<double>(mem.peakRssBytes) /
                        (1024.0 * 1024.0));
        if (HostProf::compiledIn())
            printTimerTree(HostProf::snapshot(), 0, 0);
        std::remove(path.c_str());
    }
    return ctx.finish();
}
