/**
 * @file
 * Timed benchmark driver: one process runs one workload the way a
 * user's bench binary would, through the harness entry points only —
 * SweepRunner::run over a pre-filled TraceCache, or, for
 * store_regions, buildTraceStoreFile -> loadTraceStore ->
 * runRegionSampledCell. Nothing here reaches below the harness API, so
 * a refactor of the modules underneath cannot break this driver.
 *
 * Phases, each pass preceded by a timed set-up from scratch (fill a
 * fresh trace cache, or build and load the stores):
 *  - one warm-up pass over every job, untimed;
 *  - timed passes until --seconds have gone by since the process
 *    started (at least minPasses). Each job is its own SweepRunner::run
 *    of a one-cell sweep (or one runRegionSampledCell call) and is timed
 *    on its own, in CPU seconds; for checked_breakdown the pass also
 *    renders the interval profile as a Chrome trace, which is what
 *    --profile reports, timed as one more item.
 *
 * Every timed item (set-up, job, render) runs right after one run of a
 * fixed calibration kernel, which is timed too. The report holds every
 * item's time and its kernel time (plus each pass's wall time), so
 * run.py can express times in kernel runs, which host contention moves
 * little. Every pass's result digests must equal the warm-up pass's.
 */

#include <time.h>

#include <cstdlib>
#include <unordered_map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "harness/trace_cache.hh"
#include "obs/chrome_trace.hh"
#include "trace/trace_store.hh"
#include "workloads/registry.hh"

using namespace csim;
using namespace perfbench;

namespace {

constexpr unsigned minPasses = 3;

/**
 * CPU seconds of this process, all threads. Unlike wall time it leaves
 * out time the process was not running: other processes' turns and,
 * on a virtual machine, time the host gave the vCPU to another guest.
 */
double
cpuSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

volatile std::uint64_t calibrationSink;

/**
 * The calibration kernel: a fixed amount of hash-map work (node
 * allocation, random access over ~2 MiB, data-dependent branches),
 * ~2 ms of CPU. It shares no code with the simulator, so no change to
 * src/ can move its time; but it slows down under contention for the
 * host's cores, caches and memory much as the simulator does. Each
 * timed item runs right after one kernel run, and run.py expresses the
 * item's time in kernel runs.
 */
void
calibrationKernel()
{
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(1 << 16);
    std::uint64_t key = 88172645463325252ULL, acc = 0;
    for (std::uint64_t i = 0; i < 60000; ++i) {
        key ^= key << 13;
        key ^= key >> 7;
        key ^= key << 17;
        std::uint64_t &v = map[key & 0xffff];
        v += i;
        acc += v;
        if (acc & 1)
            acc ^= key;
    }
    calibrationSink = acc;
}

/** CPU time of one timed item and of the kernel run just before it
 *  (no kernel run when not calibrating). */
struct Stopwatch
{
    explicit Stopwatch(bool calibrate) : cal0(cpuSeconds())
    {
        if (calibrate)
            calibrationKernel();
        t0 = cpuSeconds();
    }

    double cal0;
    double t0;

    void
    stop(std::vector<double> &times, std::vector<double> &cals) const
    {
        const double t1 = cpuSeconds();
        times.push_back(t1 - t0);
        cals.push_back(t0 - cal0);
    }
};

std::string
numbersJson(const std::vector<double> &xs)
{
    std::string s = "[";
    char buf[32];
    for (std::size_t i = 0; i < xs.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", xs[i]);
        s += buf;
    }
    return s + "]";
}

std::string
matrixJson(const std::vector<std::vector<double>> &rows)
{
    std::string s = "[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        s += (i ? ", " : "") + numbersJson(rows[i]);
    return s + "]";
}

/** One one-cell sweep per job: the config and cells of the whole
 *  workload sweep, split so each job can be timed on its own. */
std::vector<SweepSpec>
jobSweeps(const SweepSpec &all)
{
    std::vector<SweepSpec> one(all.cells.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        one[i].cfg = all.cfg;
        one[i].cells = {all.cells[i]};
    }
    return one;
}

/** What a pass leaves behind once its results are dropped. */
struct PassOutcome
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::vector<std::string> digests;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const double t_start = monotonicSeconds();
    // --seconds S is this driver's own flag; the rest is shared.
    double budget = 0.0;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::string(argv[i]) == "--seconds" && i + 1 < argc) {
            char *end = nullptr;
            budget = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(budget >= 0.0))
                CSIM_FATAL_F("perfbench: malformed --seconds '%s'",
                             argv[i]);
            continue;
        }
        rest.push_back(argv[i]);
    }
    const Args args = parseArgs(static_cast<int>(rest.size()), rest.data());
    ScratchDir scratch(args.workdir);
    const std::vector<JobSpec> jobs = workloadJobs(args.workload);
    const ExperimentConfig cfg = workloadConfig(args);
    const std::vector<std::string> wls = traceWorkloads(args.workload);
    const bool store = args.workload == Workload::StoreRegions;

    // One set-up from scratch: a fresh trace cache, or freshly built
    // and loaded stores. Repeated before every pass, so the set-up
    // times sample the whole run as the passes do. The first, before
    // the warm-up pass, is not timed: no kernel has run before it.
    std::vector<double> setup_s, setup_cal_s;
    TraceCache cache;
    std::vector<TraceSoA> stores;
    std::vector<std::string> store_paths;
    for (const std::string &wl : wls)
        if (store)
            store_paths.push_back(scratch.file(wl + ".trc2"));
    const auto setup = [&](bool timed) {
        // Drop the previous set-up first: a store file must not be
        // rewritten while it is mapped.
        stores.clear();
        cache.clear();
        const Stopwatch sw(timed);
        for (std::size_t w = 0; w < wls.size(); ++w) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = cfg.instructions;
            wcfg.seed = args.seed;
            if (!store) {
                (void)cache.get(wls[w], wcfg);
                continue;
            }
            const std::string &path = store_paths[w];
            if (!buildTraceStoreFile(wls[w], wcfg, path).ok)
                CSIM_FATAL_F("store build failed: %s", path.c_str());
            TraceSoA soa;
            const TraceIoStatus st = loadTraceStore(soa, path);
            if (st != TraceIoStatus::Ok)
                CSIM_FATAL_F("store load failed: %s: %s", path.c_str(),
                             traceIoStatusName(st));
            stores.push_back(std::move(soa));
        }
        if (timed)
            sw.stop(setup_s, setup_cal_s);
    };

    const std::vector<SweepSpec> sweeps =
        store ? std::vector<SweepSpec>{} : jobSweeps(workloadSweep(args));
    SweepRunner runner(1, &cache);
    // Runs one pass. With non-null times and cals, each item is timed
    // and calibrated into them.
    const auto pass = [&](std::vector<double> *times,
                          std::vector<double> *cals) {
        std::vector<AggregateResult> results;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobSpec &job = jobs[i];
            setCurrentJob(job.label.c_str());
            const Stopwatch sw(times != nullptr);
            if (store) {
                std::size_t s = 0;
                while (wls[s] != job.workload)
                    ++s;
                results.push_back(runRegionSampledCell(
                    stores[s], job.machine, job.policy, cfg));
            } else {
                SweepOutcome outcome = runner.run(sweeps[i]);
                results.push_back(std::move(outcome.results.at(0)));
            }
            if (times)
                sw.stop(*times, *cals);
        }
        setCurrentJob(nullptr);
        if (args.workload == Workload::CheckedBreakdown) {
            const Stopwatch sw(times != nullptr);
            std::vector<ChromeTraceRun> runs;
            for (std::size_t i = 0; i < jobs.size(); ++i)
                runs.push_back(ChromeTraceRun{jobs[i].label,
                                              results[i].intervals, {}});
            std::ostringstream os;
            writeChromeTrace(os, runs);
            if (os.str().empty())
                CSIM_FATAL("perfbench: empty Chrome trace");
            if (times)
                sw.stop(*times, *cals);
        }
        PassOutcome out;
        for (const AggregateResult &r : results) {
            out.instructions += r.instructions;
            out.cycles += r.cycles;
            out.digests.push_back(jobDigest(r));
        }
        return out;
    };

    // Warm-up pass: its digests are the ones every timed pass must
    // reproduce. Peak memory is read after it: what a process that sets
    // up once and runs every job once holds.
    setup(false);
    const double warmup0 = monotonicSeconds();
    const PassOutcome first = pass(nullptr, nullptr);
    const double warmup_wall_s = monotonicSeconds() - warmup0;
    const std::uint64_t peak_rss = peakRssBytes();
    std::vector<std::vector<double>> pass_s, pass_cal_s;
    std::vector<double> pass_wall_s;
    std::vector<double> unstable(jobs.size(), 0.0);
    // A pass starts only if one as long as the last ends in budget.
    double last = 0.0;
    while (pass_s.size() < minPasses ||
           monotonicSeconds() + last - t_start < budget) {
        const double cycle0 = monotonicSeconds();
        setup(true);
        pass_s.emplace_back();
        pass_cal_s.emplace_back();
        const double wall0 = monotonicSeconds();
        const PassOutcome again = pass(&pass_s.back(), &pass_cal_s.back());
        const double now = monotonicSeconds();
        pass_wall_s.push_back(now - wall0);
        last = now - cycle0;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            unstable[i] += again.digests[i] != first.digests[i];
    }

    std::vector<std::pair<std::string, std::string>> labelled;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        labelled.emplace_back(jobs[i].label, first.digests[i]);

    writeFile(args.out,
              JsonOut()
                  .field("driver", "timed")
                  .field("workload", args.workloadName)
                  .field("seed", args.seed)
                  .raw("meta", buildInfoJson())
                  .field("instructions", first.instructions)
                  .field("cycles", first.cycles)
                  .field("peak_rss_bytes", peak_rss)
                  .raw("setup_s", numbersJson(setup_s))
                  .raw("setup_cal_s", numbersJson(setup_cal_s))
                  .raw("pass_s", matrixJson(pass_s))
                  .raw("pass_cal_s", matrixJson(pass_cal_s))
                  .raw("pass_wall_s", numbersJson(pass_wall_s))
                  .field("warmup_wall_s", warmup_wall_s)
                  .field("passes",
                         static_cast<std::uint64_t>(pass_s.size()))
                  .raw("unstable", numbersJson(unstable))
                  .raw("jobs", jobsJson(labelled))
                  .str());
    return 0;
}
