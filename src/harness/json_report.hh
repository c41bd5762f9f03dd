/**
 * @file
 * Machine-readable experiment output.
 *
 * BenchContext is the shared command-line front end of every bench
 * binary: it parses `--json <path>`, `--instructions N`,
 * `--seeds a,b,c`, `--threads N`, `--check`, `--profile`,
 * `--profile-interval N`, `--trace-out <path>`, `--ledger-out <path>`,
 * `--heartbeat-ms N`,
 * `--stats-filter p1,p2`, `--regions K`,
 * `--region-len N` and `--warmup N`, owns the sweep runner
 * + trace cache the
 * bench executes on, wires the run ledger + crash flight recorder
 * (src/obs) into every bench, collects FigureGrids, scalars and
 * per-run registry snapshots (plus interval series when profiling)
 * while the bench runs, and on finish() writes one report file with a
 * stable schema (see README "Observability" and docs/SCHEMA.md):
 *
 *   {
 *     "schemaVersion": 7,
 *     "benchmark": "<name>",
 *     "threads": <worker thread count>,
 *     "wallSeconds": <bench wall-clock time>,
 *     "provenance": {"gitSha", "buildType", "buildFlags", "hostProf",
 *                    "cmdline", "env", "traceHashes"},
 *     "grids":   [{"title", "columns", "rows", "averages"}, ...],
 *     "scalars": {"<name>": <number>, ...},
 *     "runs":    [{"label": "<wl/machine/policy>",
 *                  "stats": {"<stat>": <number> | {distribution}},
 *                  "phases": [{"name", "isWarmup",     // phased
 *                              "instructions",         // runs only
 *                              "cycles", "cpi"}, ...],
 *                  "intervals": {"intervalCycles": N,   // profiled
 *                                "series": [...]},      // runs only
 *                  "host": {"wallSeconds", "instructions",
 *                           "hostMips", "peakRssBytes"}},  // optional
 *                 ...,
 *                 {"label": "traceCache", "stats": {...}}],
 *     "host":    {"wallSeconds", "hostMips",   // process-wide
 *                 "measuredInstructions",
 *                 "peakRssBytes", "currentRssBytes",
 *                 "heapBytes", "heapHighWaterBytes",
 *                 "timerTree": {"name", "calls", "ns",
 *                               "instructions", "mips",
 *                               "children": [...]},
 *                 "traceCache": {"traceCache.time.*": <number>}}
 *   }
 *
 * The top-level host.hostMips divides only *measured* simulation
 * instructions by the bench wall time: instructions retired inside
 * warmup passes ("harness.warmup") or the trace-build pipelines
 * ("trace.*" / "traceCache.*") are excluded, so the figure answers
 * "how fast does this machine simulate measured work" instead of
 * silently double-counting discarded passes.
 *
 * Each series entry carries "start", "cycles", a "cpiStack" object
 * whose components sum exactly to "cycles", event counts and a
 * per-cluster lane array; "mergeCount" is the number of seed runs
 * summed into the series (per-run means divide by it). Apart from
 * "threads", "wallSeconds", the "host" blocks (wall times and memory
 * vary run to run) and the provenance "cmdline"/"env" pair (which
 * describe the invocation itself) the report is byte-identical across
 * thread counts — including the interval series, whose seed merge
 * happens in fixed declaration order, and the provenance
 * "traceHashes". The "host" block is absent when host profiling is
 * compiled out or disabled at runtime.
 * tools/check_bench_json.py validates this schema in CI.
 */

#ifndef CSIM_HARNESS_JSON_REPORT_HH
#define CSIM_HARNESS_JSON_REPORT_HH

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/timing.hh"
#include "harness/report.hh"
#include "obs/interval_profiler.hh"
#include "obs/json_writer.hh"
#include "obs/stats_registry.hh"

namespace csim {

struct ExperimentConfig;
struct SweepOutcome;
class RunLedger;
class SweepRunner;
class TraceCache;

/** Serialize one frozen stat (scalar or distribution payload). */
void writeStatValue(JsonWriter &w, const StatValue &v);

/** Serialize a whole snapshot as an object keyed by stat name. */
void writeSnapshot(JsonWriter &w, const StatsSnapshot &snap);

/**
 * A numeric flag's value in [lo, hi]. Digits only, the rule
 * parseThreadCount applies: no sign, no blanks, no overflow (strtoull
 * alone would wrap "-1" to 2^64-1). Fatal otherwise, as
 * "<program>: bad <flag> '<value>'".
 */
std::uint64_t
parseFlagValue(const std::string &program, const char *flag,
               const std::string &v, std::uint64_t lo = 1,
               std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** A comma-separated `--seeds` list; each entry is parsed by
 *  parseFlagValue with a lower bound of 0. */
std::vector<std::uint64_t>
parseSeedList(const std::string &program, const std::string &arg);

/** Host-side cost of one measured run (see addRunHost). */
struct RunHostMetrics
{
    /** Wall seconds the run's sweep took. */
    double wallSeconds = 0.0;
    /** Simulated instructions retired during those seconds. */
    std::uint64_t instructions = 0;
    /** Peak resident set sampled after the run (0: not sampled). */
    std::uint64_t peakRssBytes = 0;
};

/**
 * Shared bench command line + JSON report accumulator.
 *
 * Usage in a bench main():
 *
 *   BenchContext ctx("bench_fig14_policies", argc, argv);
 *   ctx.apply(cfg);              // --instructions / --seeds overrides
 *   ...
 *   ctx.addGrid(grid);
 *   ctx.addRunStats("gcc/4x2w/focused", agg.stats);
 *   return ctx.finish();         // writes --json file when requested
 */
class BenchContext
{
  public:
    /** Parses argv; unknown flags are fatal (prints usage first). */
    BenchContext(std::string benchmark, int argc, char **argv);
    ~BenchContext();

    /**
     * Apply --instructions / --seeds overrides to a config. `--check`
     * additionally arms cfg.verify: every measured run gets a live
     * PipelineChecker + post-run audit and every policy cell is held
     * to the differential CPI oracles (fatal on violation).
     * `--profile` arms cfg.profile the same way.
     */
    void apply(ExperimentConfig &cfg) const;

    /** The live run ledger (null without --ledger-out). Already wired
     *  into runner(); benches with custom phases may emit their own
     *  events through it. */
    RunLedger *ledger() { return ledger_.get(); }

    /** Worker threads (--threads, CSIM_THREADS, hw concurrency). */
    unsigned threads() const;

    /** The bench-wide trace cache (shared by runner()). */
    TraceCache &traceCache();

    /** The bench's sweep runner, created on first use. */
    SweepRunner &runner();

    /** Record a finished grid (copied; call after the grid is full). */
    void addGrid(const FigureGrid &grid);

    /** Record one aggregate cell's merged registry snapshot, plus its
     *  interval series when the cell was profiled and its phase
     *  outcomes when phases / region sampling were configured. */
    void addRunStats(const std::string &label, const StatsSnapshot &s,
                     const IntervalSeries &intervals = IntervalSeries{},
                     const std::vector<PhaseResult> &phases = {});

    /** Record every cell of a sweep outcome via addRunStats. */
    void addSweepRuns(const SweepOutcome &outcome);

    /**
     * Attach host-side cost metrics to the already-recorded run with
     * this label (fatal when the label is unknown). Serialized as the
     * run's "host" object with a derived "hostMips"; excluded from the
     * report's deterministic region.
     */
    void addRunHost(const std::string &label,
                    const RunHostMetrics &host);

    /** Record a loose named number (model params, derived metrics). */
    void addScalar(const std::string &name, double value);

    /** Write the JSON report if --json was given; returns exit code. */
    int finish();

  private:
    struct RunEntry
    {
        std::string label;
        StatsSnapshot stats;
        IntervalSeries intervals;
        /** Merged phase outcomes (empty: unphased run). */
        std::vector<PhaseResult> phases;
        /** Host cost metrics; present when wallSeconds > 0. */
        RunHostMetrics host;
    };

    std::string benchmark_;
    std::string jsonPath_;
    std::string traceOutPath_;            ///< "": no Chrome trace
    std::string ledgerPath_;              ///< "": no run ledger
    std::string cmdline_;                 ///< shell-quoted replay command
    unsigned heartbeatMs_ = 1000;         ///< --heartbeat-ms period
    std::uint64_t instructions_ = 0;      ///< 0: keep bench default
    std::vector<std::uint64_t> seeds_;    ///< empty: keep bench default
    unsigned threadsArg_ = 0;             ///< 0: resolve automatically
    bool check_ = false;                  ///< --check: arm cfg.verify
    bool profile_ = false;                ///< --profile: arm cfg.profile
    std::uint64_t profileInterval_ = 0;   ///< 0: keep config default
    unsigned regions_ = 0;                ///< --regions: sampled regions
    std::uint64_t regionLen_ = 0;         ///< --region-len: instrs each
    std::uint64_t warmup_ = 0;            ///< --warmup: phase warmup
    /** --stats-filter / CSIM_STATS_FILTER prefixes ("": no filter). */
    std::vector<std::string> statsFilter_;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<TraceCache> cache_;
    std::unique_ptr<RunLedger> ledger_;
    std::unique_ptr<SweepRunner> runner_;
    std::vector<FigureGrid> grids_;
    std::vector<RunEntry> runs_;
    std::vector<std::pair<std::string, double>> scalars_;
};

} // namespace csim

#endif // CSIM_HARNESS_JSON_REPORT_HH
