/**
 * @file
 * General-purpose CLI driver: run any (workload, machine, policy)
 * combination and print CPI, the critical-path breakdown, bypass
 * traffic and steering statistics. The knobs cover everything the
 * paper varies: cluster count and width, forwarding latency,
 * instruction count, seeds, and the policy stack.
 *
 * Usage:
 *   simulate [options]
 *     --workload NAME    one of the 12 proxies, or 'all'   [vpr]
 *     --clusters N       1..16                             [4]
 *     --width W          issue width per cluster, 1..64    [8/N]
 *     --fwd L            inter-cluster latency, 0..64      [2]
 *     --policy P         modn|loadbal|dep|focused|loc|stall|
 *                        proactive|block|adaptive          [focused]
 *     --instructions N   dynamic instructions per seed     [60000]
 *     --seeds a,b,c      comma-separated seeds             [1,2,3]
 *     --save PATH        also write the (last) trace to PATH as a
 *                        .trc2 trace store (exit 1 if the write fails)
 *
 * A number flag with a sign, trailing junk or an out-of-range value
 * is fatal ("simulate: bad --width '-2'"), never wrapped or clamped.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/report.hh"
#include "policy/extra_steering.hh"
#include "policy/scheduling.hh"
#include "trace/trace_store.hh"

using namespace csim;

namespace {

struct Options
{
    std::string workload = "vpr";
    unsigned clusters = 4;
    unsigned width = 0;           // 0: derive as 8/clusters
    unsigned fwd = 2;
    std::string policy = "focused";
    std::uint64_t instructions = 60000;
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::string savePath;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: simulate [--workload W|all] [--clusters N] "
                 "[--width W] [--fwd L]\n"
                 "       [--policy modn|loadbal|dep|focused|loc|stall|"
                 "proactive|block|adaptive]\n"
                 "       [--instructions N] [--seeds a,b,c] "
                 "[--save PATH]\n");
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--clusters") {
            o.clusters = static_cast<unsigned>(
                parseFlagValue("simulate", "--clusters", next(), 1, 16));
        } else if (a == "--width") {
            o.width = static_cast<unsigned>(
                parseFlagValue("simulate", "--width", next(), 1, 64));
        } else if (a == "--fwd") {
            o.fwd = static_cast<unsigned>(
                parseFlagValue("simulate", "--fwd", next(), 0,
                               maxFwdLatency));
        } else if (a == "--policy") {
            o.policy = next();
        } else if (a == "--instructions") {
            o.instructions =
                parseFlagValue("simulate", "--instructions", next());
        } else if (a == "--seeds") {
            o.seeds = parseSeedList("simulate", next());
        } else if (a == "--save") {
            o.savePath = next();
        } else {
            usage();
        }
    }
    return o;
}

/** Write trace as a .trc2 store; a failed write ends the run. */
void
saveOrDie(const Trace &trace, const std::string &path)
{
    if (!saveTraceStore(trace, path)) {
        std::fprintf(stderr, "simulate: cannot write trace store '%s'\n",
                     path.c_str());
        std::exit(1);
    }
}

/** Run one workload under the requested setup; returns normalized
 *  CPI data for the report. */
void
runOne(const Options &o, const std::string &wl,
       const MachineConfig &mc, TextTable &table)
{
    ExperimentConfig cfg;
    cfg.instructions = o.instructions;
    cfg.seeds = o.seeds;

    AggregateResult agg;
    // The extra policies are run directly (no predictors needed).
    if (o.policy == "block" || o.policy == "adaptive") {
        for (std::uint64_t seed : o.seeds) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = o.instructions;
            wcfg.seed = seed;
            Trace trace = buildAnnotatedTrace(wl, wcfg);
            AgeScheduling age;
            SimResult res;
            if (o.policy == "block") {
                BlockSteering steer;
                res = TimingSim(mc, trace, steer, age).run();
            } else {
                AdaptiveClusterSteering steer;
                res = TimingSim(mc, trace, steer, age).run();
            }
            CpBreakdown bd = analyzeFullRun(trace, res, mc);
            agg.instructions += res.instructions;
            agg.cycles += res.cycles;
            agg.globalValues += res.globalValues;
            for (std::size_t c = 0; c < numCpCategories; ++c)
                agg.categoryCycles[c] += bd.cycles[c];
            if (!o.savePath.empty())
                saveOrDie(trace, o.savePath);
        }
    } else {
        PolicyKind kind = PolicyKind::Focused;
        if (o.policy == "modn")
            kind = PolicyKind::ModN;
        else if (o.policy == "loadbal")
            kind = PolicyKind::LoadBal;
        else if (o.policy == "dep")
            kind = PolicyKind::Dep;
        else if (o.policy == "focused")
            kind = PolicyKind::Focused;
        else if (o.policy == "loc")
            kind = PolicyKind::FocusedLoc;
        else if (o.policy == "stall")
            kind = PolicyKind::FocusedLocStall;
        else if (o.policy == "proactive")
            kind = PolicyKind::FocusedLocStallProactive;
        else
            usage();
        agg = runAggregate(wl, mc, kind, cfg);
        if (!o.savePath.empty()) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = o.instructions;
            wcfg.seed = o.seeds.back();
            Trace trace = buildAnnotatedTrace(wl, wcfg);
            saveOrDie(trace, o.savePath);
        }
    }

    auto cat = [&](CpCategory c) {
        return formatDouble(agg.categoryCpi(c), 3);
    };
    table.addRow({wl, formatDouble(agg.cpi(), 3),
                  formatDouble(agg.globalValuesPerInst(), 3),
                  cat(CpCategory::FwdDelay),
                  cat(CpCategory::Contention),
                  cat(CpCategory::Fetch),
                  cat(CpCategory::MemLatency),
                  cat(CpCategory::BrMispredict)});
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    MachineConfig mc = o.clusters == 1 && (o.width == 0 || o.width == 8)
        ? MachineConfig::monolithic()
        : (o.width == 0 && 8 % o.clusters == 0
               ? MachineConfig::clustered(o.clusters)
               : MachineConfig::generic(o.clusters,
                                        o.width ? o.width
                                                : 8 / o.clusters));
    mc.fwdLatency = o.fwd;

    std::printf("machine %s, fwd latency %u, policy %s, %llu "
                "instructions x %zu seeds\n\n",
                mc.name().c_str(), mc.fwdLatency, o.policy.c_str(),
                static_cast<unsigned long long>(o.instructions),
                o.seeds.size());

    TextTable table({"workload", "CPI", "glob/inst", "fwd",
                     "contention", "fetch", "mem", "br.mispr"});
    if (o.workload == "all") {
        for (const std::string &wl : workloadNames())
            runOne(o, wl, mc, table);
    } else {
        runOne(o, o.workload, mc, table);
    }
    std::printf("%s\n(breakdown columns in CPI units)\n",
                table.str().c_str());
    return 0;
}
