/**
 * @file
 * Declarative experiment sweeps with a parallel cell executor.
 *
 * Every figure in the paper is a sweep over (workload x machine x
 * policy x seed) cells. A SweepSpec declares the cells; SweepRunner
 * expands them into independent (cell, seed) jobs, executes the jobs
 * on a std::thread worker pool, fetches each job's annotated trace
 * from a shared TraceCache (built once per (workload, seed, ...) key),
 * and merges per-seed results back into per-cell AggregateResults in
 * declaration/seed order. Because each job is deterministic and the
 * merge order is fixed, a run with N worker threads is bit-identical
 * to the 1-thread (and the old hand-rolled sequential) path.
 *
 * Thread count: explicit argument > CSIM_THREADS environment variable
 * > std::thread::hardware_concurrency(). A malformed CSIM_THREADS
 * value (zero, negative, garbage) is a fatal error, never a silent
 * fallback.
 */

#ifndef CSIM_HARNESS_SWEEP_HH
#define CSIM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/trace_cache.hh"

namespace csim {

class RunLedger;

/**
 * Parse a worker-thread count from a flag or environment variable:
 * decimal digits only, in [1, 65536]. Anything else — empty, signed,
 * zero, trailing garbage, absurdly large — is fatal, quoting `source`
 * (e.g. "--threads", "CSIM_THREADS") and the offending value.
 */
unsigned parseThreadCount(const std::string &value, const char *source);

/** Whether a cell runs the timing simulator or the idealized
 *  list scheduler (Sec. 2.2). */
enum class CellMode
{
    Timing,
    Ideal,
};

/** One declared (workload, machine, policy-or-ideal) cell; the seed
 *  axis comes from the cell's ExperimentConfig. */
struct SweepCell
{
    std::string workload;
    MachineConfig machine;
    CellMode mode = CellMode::Timing;
    /** Timing cells only. */
    PolicyKind policy = PolicyKind::Focused;
    /** Ideal cells only. */
    ListSchedOptions::Priority priority =
        ListSchedOptions::Priority::DataflowHeight;
    /** Per-cell config override (ablation axes); unset inherits the
     *  spec-wide config. */
    std::optional<ExperimentConfig> cfg;

    /** "gcc/4x2w/focused", "gzip/8x1w/ideal", "vpr/2x4w/ideal-loc". */
    std::string label() const;
};

/** A declared experiment grid: shared config + cells. */
struct SweepSpec
{
    ExperimentConfig cfg;
    std::vector<SweepCell> cells;

    /** Append a cell; returns its index into the results. */
    std::size_t add(SweepCell cell);

    std::size_t addTiming(std::string workload, MachineConfig machine,
                          PolicyKind policy);

    std::size_t addIdeal(std::string workload, MachineConfig machine,
                         ListSchedOptions::Priority priority =
                             ListSchedOptions::Priority::
                                 DataflowHeight);

    /** Cross product of timing cells, workload-major. */
    void crossTiming(const std::vector<std::string> &workloads,
                     const std::vector<MachineConfig> &machines,
                     const std::vector<PolicyKind> &policies);

    /** The effective config of cell i (override or spec-wide). */
    const ExperimentConfig &cellConfig(std::size_t i) const;
};

/** Per-cell results, keyed by declaration index. */
struct SweepOutcome
{
    std::vector<SweepCell> cells;
    std::vector<AggregateResult> results;
    unsigned threads = 1;
    double wallSeconds = 0.0;

    const AggregateResult &
    at(std::size_t i) const
    {
        return results.at(i);
    }
};

class SweepRunner
{
  public:
    /**
     * @param threads Worker threads; 0 resolves via defaultThreads().
     * @param cache Shared trace cache; null uses a runner-owned one.
     */
    explicit SweepRunner(unsigned threads = 0,
                         TraceCache *cache = nullptr);

    /** CSIM_THREADS when set and valid, else hardware_concurrency. */
    static unsigned defaultThreads();

    unsigned threads() const { return threads_; }
    TraceCache &cache() { return cache_ ? *cache_ : ownCache_; }

    /**
     * Attach a run ledger (may be null to detach). Every subsequent
     * run() emits sweepBegin / jobBegin / jobEnd / cellEnd / sweepEnd
     * events into it and keeps its progress counters live for the
     * heartbeat sampler. Workers also publish a "cell=... seed=..."
     * context line to the crash flight recorder. The ledger must
     * outlive the runner's run() calls.
     */
    void setLedger(RunLedger *ledger) { ledger_ = ledger; }

    /** Execute every (cell, seed) job and merge deterministically. */
    SweepOutcome run(const SweepSpec &spec);

    /**
     * Order-free parallel execution of fn(0..n-1) on the worker pool;
     * returns when all indices completed. The building block for
     * benches whose per-cell work is not an AggregateResult (ILP
     * capture, ground-truth criticality, consumer analysis): each
     * index writes its own result slot, the caller merges in index
     * order afterwards, and determinism follows as for run().
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    unsigned threads_;
    TraceCache *cache_;
    TraceCache ownCache_;
    RunLedger *ledger_ = nullptr;
};

} // namespace csim

#endif // CSIM_HARNESS_SWEEP_HH
