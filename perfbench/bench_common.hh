/**
 * @file
 * What the two benchmark drivers share: the command line, the four
 * workloads' job lists and run lengths, the per-job result digest, the
 * per-process scratch directory and the JSON report writer.
 *
 * The timed driver (timed.cc) runs each workload through the harness
 * entry points users call; the traced driver (traced.cc) assembles the
 * same jobs from each module's public functions. Both take every job
 * definition from here, so the two can only disagree if a module
 * behaves differently when called directly — which is exactly what the
 * traced-equals-timed digest check exists to catch.
 */

#ifndef PERFBENCH_BENCH_COMMON_HH
#define PERFBENCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_config.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace perfbench {

enum class Workload
{
    PolicyGrid,
    IdealSweep,
    StoreRegions,
    CheckedBreakdown,
};

struct Args
{
    Workload workload = Workload::PolicyGrid;
    std::string workloadName;
    std::uint64_t seed = 0;
    /** Report path (JSON). */
    std::string out;
    /** Directory this process may create its scratch directory in. */
    std::string workdir;
    /**
     * Stall-over-steer threshold. Only the perturbation self-test
     * changes it; every reference digest is for the paper's 0.30.
     */
    double stallThreshold = 0.30;
};

/**
 * Parse `--workload W --seed N --out PATH --workdir DIR
 * [--stall-threshold X]`. Any unknown flag, unknown workload or
 * malformed number prints a usage line and exits with code 2.
 */
Args parseArgs(int argc, char **argv);

/** One simulated job: the unit whose result digest is checked. */
struct JobSpec
{
    std::string label;
    std::string workload;
    csim::MachineConfig machine;
    /** Ideal list-scheduling cell instead of a timing cell. */
    bool ideal = false;
    csim::PolicyKind policy = csim::PolicyKind::Focused;
};

/** Experiment config of a workload's jobs (seeds = {args.seed}). */
csim::ExperimentConfig workloadConfig(const Args &args);

/** Jobs of a workload, in the order their results are reported. */
std::vector<JobSpec> workloadJobs(Workload w);

/** Distinct trace workloads a workload needs, in build order. */
std::vector<std::string> traceWorkloads(Workload w);

/** Instructions per built trace (per store for store_regions). */
std::uint64_t traceInstructions(Workload w);

/**
 * The sweep the timed driver hands to SweepRunner (every workload but
 * store_regions): one cell per job, in workloadJobs() order, so cell
 * results are job results.
 */
csim::SweepSpec workloadSweep(const Args &args);

/**
 * FNV-1a digest (16 hex digits) of a job result: instructions,
 * cycles, critical-path category cycles and the deterministic stats
 * snapshot. Two commits simulate a job identically iff the digests
 * match.
 */
std::string jobDigest(const csim::AggregateResult &res);

/**
 * A per-process scratch directory `<workdir>/scratch-<pid>` for trace
 * stores. The destructor removes it; so do CSIM_FATAL/CSIM_PANIC (via
 * the crash hook, which also names the job that was running) and the
 * fatal signals, so no exit path leaves a store behind. One instance
 * per process.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &workdir);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** A file inside the directory, registered for removal. */
    std::string file(const std::string &name);

  private:
    std::string path_;
};

/** Name the job now running, for the crash hook's message (static
 *  storage: the string must outlive the job). */
void setCurrentJob(const char *label);

/** Seconds on the monotonic clock (the clock run.py reads too). */
double monotonicSeconds();

/** Peak resident set of this process in bytes. */
std::uint64_t peakRssBytes();

/** Minimal JSON object writer for the drivers' reports. */
class JsonOut
{
  public:
    JsonOut();
    JsonOut &field(const std::string &key, const std::string &value);
    JsonOut &field(const std::string &key, const char *value);
    JsonOut &field(const std::string &key, double value);
    JsonOut &field(const std::string &key, std::uint64_t value);
    JsonOut &field(const std::string &key, bool value);
    /** Insert pre-rendered JSON (an object or array) under key. */
    JsonOut &raw(const std::string &key, const std::string &json);
    std::string str() const { return body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
    bool first_ = true;
};

/** The jobs array of a report: [{"label": ..., "digest": ...}, ...]. */
std::string jobsJson(
    const std::vector<std::pair<std::string, std::string>> &jobs);

/**
 * The "meta" object of a report: the host's nproc, the build type, the
 * git SHA, whether host-side timer scopes are compiled in, and the
 * sweep thread count, so numbers from different hosts or builds are
 * never compared silently.
 */
std::string buildInfoJson();

/** Write text to path; fatal on failure. */
void writeFile(const std::string &path, const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_COMMON_HH
