/**
 * @file
 * Differential fuzzer for the clustered timing simulator.
 *
 * Each case derives, from one 64-bit seed, a random-but-valid machine
 * geometry, a random well-formed synthetic trace and a policy stack,
 * then runs the timing simulator under the full pipeline invariant
 * checker (live hooks + post-run audit) and the differential CPI
 * oracles:
 *
 *   - the structural floor (CPI >= 1 / narrowest stage width),
 *   - for clustered geometries, the monolithic envelope: the same
 *     policy on one cluster owning the summed resources with free
 *     bypass can never lose to the clustered machine.
 *
 * Each case also round-trips its trace through the columnar store and
 * must replay byte for byte.
 *
 * (The ideal list-scheduler bound is NOT applied here: its reference
 * schedule assumes the paper's Table-1 front end, which random
 * geometries deliberately violate. The harness `--check` path applies
 * it on the paper machines, where it is sound.)
 *
 * On the first failing case the fuzzer prints the seed, the derived
 * geometry and policy, the first violation, and the exact command
 * that replays just that case, then exits nonzero. CI runs a bounded
 * batch of seeds per push.
 */

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_soa.hh"
#include "trace/trace_store.hh"
#include "verify/oracle.hh"
#include "verify/random_trace.hh"

namespace {

using namespace csim;

struct FuzzArgs
{
    std::uint64_t startSeed = 1;
    std::uint64_t numSeeds = 64;
    std::uint64_t instructions = 1000;
    double relTol = 0.05;
    bool verbose = false;
};

[[noreturn]] void
usage(const char *bad)
{
    std::fprintf(stderr,
                 "usage: fuzz_sim [--start S] [--seeds N] "
                 "[--instructions N] [--tol F] [--verbose]\n");
    std::exit(bad ? 2 : 0);
}

/** A relative tolerance: the whole string a finite number >= 0. */
double
parseTolerance(const char *v)
{
    double tol = 0.0;
    const char *end = v + std::strlen(v);
    const auto [stop, ec] = std::from_chars(v, end, tol);
    if (ec != std::errc{} || stop != end || !std::isfinite(tol) ||
        tol < 0.0)
        CSIM_FATAL_F("fuzz_sim: bad --tol '%s'", v);
    return tol;
}

FuzzArgs
parseArgs(int argc, char **argv)
{
    FuzzArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[i]);
            return argv[++i];
        };
        if (arg == "--start")
            args.startSeed =
                parseFlagValue("fuzz_sim", "--start", next(), 0);
        else if (arg == "--seeds")
            args.numSeeds = parseFlagValue("fuzz_sim", "--seeds", next());
        else if (arg == "--instructions")
            args.instructions =
                parseFlagValue("fuzz_sim", "--instructions", next());
        else if (arg == "--tol")
            args.relTol = parseTolerance(next());
        else if (arg == "--verbose")
            args.verbose = true;
        else if (arg == "--help" || arg == "-h")
            usage(nullptr);
        else
            usage(arg.c_str());
    }
    return args;
}

const PolicyKind fuzzPolicies[] = {
    PolicyKind::ModN,
    PolicyKind::LoadBal,
    PolicyKind::Dep,
    PolicyKind::Focused,
    PolicyKind::FocusedLoc,
    PolicyKind::FocusedLocStall,
    PolicyKind::FocusedLocStallProactive,
};

void
describeCase(const MachineConfig &config, PolicyKind kind,
             std::uint64_t instructions)
{
    std::fprintf(
        stderr,
        "  machine %s: clusters=%u width=%u int=%u fp=%u mem=%u "
        "window=%u rob=%u fetch=%u dispatch=%u commit=%u depth=%u "
        "fwd=%u stopAtTaken=%d\n  policy %s, trace %llu insts\n",
        config.name().c_str(), config.numClusters,
        config.cluster.issueWidth, config.cluster.intPorts,
        config.cluster.fpPorts, config.cluster.memPorts,
        config.windowPerCluster, config.robEntries,
        config.fetchWidth, config.dispatchWidth, config.commitWidth,
        config.frontendDepth, config.fwdLatency,
        config.fetchStopAtTaken ? 1 : 0, policyName(kind),
        static_cast<unsigned long long>(instructions));
}

/** "" when two snapshots agree bit for bit, else the first mismatch. */
std::string
compareStats(const char *what, const StatsSnapshot &a,
             const StatsSnapshot &b)
{
    const auto &ae = a.entries();
    const auto &be = b.entries();
    if (ae.size() != be.size())
        return std::string(what) + ": stat counts differ";
    for (std::size_t i = 0; i < ae.size(); ++i) {
        if (ae[i].first != be[i].first)
            return std::string(what) + ": stat order differs at '" +
                ae[i].first + "'";
        const StatValue &av = ae[i].second;
        const StatValue &bv = be[i].second;
        if (av.value != bv.value || av.buckets != bv.buckets)
            return std::string(what) + ": stat '" + ae[i].first +
                "' differs: " + std::to_string(av.value) + " != " +
                std::to_string(bv.value);
    }
    return "";
}

/**
 * Round-trip the case's trace through the columnar store (save →
 * mmap-load → simulate) and check the loaded copy reproduces the
 * original run byte for byte, both through a trace copied back out
 * of the store and straight off the mmap-ed column view.
 */
std::string
checkStoreRoundTrip(const Trace &trace, const MachineConfig &config,
                    PolicyKind kind, ExperimentConfig cfg,
                    const PolicyRun &reference, std::uint64_t seed)
{
    const std::string path = "/tmp/csim_fuzz_" +
        std::to_string(::getpid()) + "_" + std::to_string(seed) +
        ".trc2";
    if (!saveTraceStore(trace, path))
        return "store: save failed";
    TraceSoA soa;
    const TraceIoStatus st = loadTraceStore(soa, path);
    std::remove(path.c_str());
    if (st != TraceIoStatus::Ok)
        return std::string("store: load failed: ") +
            traceIoStatusName(st);
    if (soa.size() != trace.size())
        return "store: instruction count changed in round trip";

    // Copied-back path: identical inputs through the identical
    // harness must give identical outputs.
    const Trace rebuilt = extractRegion(soa, 0, soa.size());
    const PolicyRun replay = runPolicy(rebuilt, config, kind, cfg);
    if (replay.sim.cycles != reference.sim.cycles)
        return "store: replay cycles " +
            std::to_string(replay.sim.cycles) + " != " +
            std::to_string(reference.sim.cycles);
    if (replay.sim.instructions != reference.sim.instructions)
        return "store: replay instruction counts differ";
    std::string diff = compareStats("store-replay", replay.sim.stats,
                                    reference.sim.stats);
    if (!diff.empty())
        return diff;

    // Column-view path: the sim reading records straight out of the
    // mapping (no Trace behind it) must agree with the same bare run
    // on the original trace.
    {
        ModNSteering steer_aos, steer_soa;
        AgeScheduling sched_aos, sched_soa;
        const SimResult aos =
            TimingSim(config, trace, steer_aos, sched_aos).run();
        const SimResult cols =
            TimingSim(config, soa, steer_soa, sched_soa).run();
        if (aos.cycles != cols.cycles)
            return "store: column-view cycles " +
                std::to_string(cols.cycles) + " != " +
                std::to_string(aos.cycles);
        diff = compareStats("store-column-view", cols.stats, aos.stats);
        if (!diff.empty())
            return diff;
    }
    return "";
}

/** Returns "" on a clean case, else the first failure description. */
std::string
runCase(std::uint64_t seed, const FuzzArgs &args)
{
    Rng rng(seed);
    const MachineConfig config = randomMachineConfig(rng);
    const Trace trace = randomTrace(rng, args.instructions);
    const PolicyKind kind = fuzzPolicies[rng.below(7)];

    ExperimentConfig cfg;
    cfg.instructions = args.instructions;
    cfg.seeds = {seed};
    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;

    if (args.verbose) {
        std::fprintf(stderr, "seed %llu:\n",
                     static_cast<unsigned long long>(seed));
        describeCase(config, kind, trace.size());
    }

    const PolicyRun run = runPolicy(trace, config, kind, cfg);
    if (run.checkerViolations) {
        describeCase(config, kind, trace.size());
        return run.checkerDetail;
    }

    const double cpi = run.sim.instructions ?
        static_cast<double>(run.sim.cycles) /
        static_cast<double>(run.sim.instructions) : 0.0;

    OracleCheck floor = checkCpiFloor(cpi, config);
    if (!floor.ok) {
        describeCase(config, kind, trace.size());
        return floor.detail;
    }

    if (config.numClusters > 1) {
        cfg.verify = VerifyConfig{};
        const PolicyRun env =
            runPolicy(trace, monolithicEnvelope(config), kind, cfg);
        const double env_cpi = env.sim.instructions ?
            static_cast<double>(env.sim.cycles) /
            static_cast<double>(env.sim.instructions) : 0.0;
        OracleCheck vs_env = checkCpiLowerBound(
            cpi, env_cpi, args.relTol, "monolithic-envelope");
        if (!vs_env.ok) {
            describeCase(config, kind, trace.size());
            return vs_env.detail;
        }
    }

    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;
    const std::string store_diff =
        checkStoreRoundTrip(trace, config, kind, cfg, run, seed);
    if (!store_diff.empty()) {
        describeCase(config, kind, trace.size());
        return store_diff;
    }
    return "";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const FuzzArgs args = parseArgs(argc, argv);

    for (std::uint64_t i = 0; i < args.numSeeds; ++i) {
        const std::uint64_t seed = args.startSeed + i;
        const std::string failure = runCase(seed, args);
        if (!failure.empty()) {
            std::fprintf(
                stderr,
                "fuzz_sim: FAIL seed=%llu\n  %s\n"
                "reproduce: fuzz_sim --start %llu --seeds 1 "
                "--instructions %llu --tol %g --verbose\n",
                static_cast<unsigned long long>(seed),
                failure.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(args.instructions),
                args.relTol);
            return 1;
        }
    }
    std::fprintf(stderr,
                 "fuzz_sim: %llu seeds clean (start %llu, %llu insts "
                 "each)\n",
                 static_cast<unsigned long long>(args.numSeeds),
                 static_cast<unsigned long long>(args.startSeed),
                 static_cast<unsigned long long>(args.instructions));
    return 0;
}
