#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_prof.hh"
#include "obs/run_ledger.hh"

namespace csim {

unsigned
parseThreadCount(const std::string &value, const char *source)
{
    constexpr unsigned long maxThreads = 65536;
    bool digits_only = !value.empty();
    for (char c : value)
        digits_only = digits_only && c >= '0' && c <= '9';
    if (!digits_only)
        CSIM_FATAL_F("%s: thread count '%s' is not a positive integer",
                     source, value.c_str());
    char *end = nullptr;
    const unsigned long n = std::strtoul(value.c_str(), &end, 10);
    if (*end != '\0' || n == 0 || n > maxThreads)
        CSIM_FATAL_F("%s: thread count '%s' out of range [1, %lu]",
                     source, value.c_str(), maxThreads);
    return static_cast<unsigned>(n);
}

namespace {

const char *
priorityName(ListSchedOptions::Priority priority)
{
    switch (priority) {
      case ListSchedOptions::Priority::DataflowHeight:
        return "ideal";
      case ListSchedOptions::Priority::Loc:
        return "ideal-loc";
      case ListSchedOptions::Priority::BinaryCritical:
        return "ideal-binary";
      default:
        CSIM_PANIC("priorityName: bad priority");
    }
}

} // anonymous namespace

std::string
SweepCell::label() const
{
    std::string out = workload;
    out += '/';
    out += machine.name();
    out += '/';
    out += mode == CellMode::Timing ? policyName(policy)
                                    : priorityName(priority);
    return out;
}

std::size_t
SweepSpec::add(SweepCell cell)
{
    cells.push_back(std::move(cell));
    return cells.size() - 1;
}

std::size_t
SweepSpec::addTiming(std::string workload, MachineConfig machine,
                     PolicyKind policy)
{
    SweepCell cell;
    cell.workload = std::move(workload);
    cell.machine = machine;
    cell.mode = CellMode::Timing;
    cell.policy = policy;
    return add(std::move(cell));
}

std::size_t
SweepSpec::addIdeal(std::string workload, MachineConfig machine,
                    ListSchedOptions::Priority priority)
{
    SweepCell cell;
    cell.workload = std::move(workload);
    cell.machine = machine;
    cell.mode = CellMode::Ideal;
    cell.priority = priority;
    return add(std::move(cell));
}

void
SweepSpec::crossTiming(const std::vector<std::string> &workloads,
                       const std::vector<MachineConfig> &machines,
                       const std::vector<PolicyKind> &policies)
{
    for (const std::string &wl : workloads)
        for (const MachineConfig &machine : machines)
            for (PolicyKind policy : policies)
                addTiming(wl, machine, policy);
}

const ExperimentConfig &
SweepSpec::cellConfig(std::size_t i) const
{
    const SweepCell &cell = cells.at(i);
    return cell.cfg ? *cell.cfg : cfg;
}

SweepRunner::SweepRunner(unsigned threads, TraceCache *cache)
    : threads_(threads ? threads : defaultThreads()), cache_(cache)
{
}

unsigned
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("CSIM_THREADS"))
        return parseThreadCount(env, "CSIM_THREADS");
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
SweepRunner::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    const std::size_t workers =
        std::min<std::size_t>(threads_, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Atomic-counter work stealing: whichever worker is free claims
    // the next index. Claim order is nondeterministic; determinism is
    // the caller's job (each index writes only its own result slot).
    // Workers adopt the spawning thread's host-prof scope path so the
    // merged timer tree has the same shape as the inline execution.
    const std::vector<std::string> prof_path = HostProf::currentPath();
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            HostProfPathAdopter prof_adopt(prof_path);
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

SweepOutcome
SweepRunner::run(const SweepSpec &spec)
{
    HOST_PROF_SCOPE("sweep.run");
    const auto start = std::chrono::steady_clock::now();

    // Expand cells into independent (cell, seed) jobs, cell-major with
    // seeds in declaration order — the same order the sequential
    // aggregation loop visits them.
    struct Job
    {
        std::size_t cell;
        std::uint64_t seed;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < spec.cells.size(); ++c)
        for (std::uint64_t seed : spec.cellConfig(c).seeds)
            jobs.push_back(Job{c, seed});

    const std::uint64_t sweepIdx =
        ledger_ ? ledger_->nextSweepIndex() : 0;
    if (ledger_) {
        ledger_->progress().jobsTotal.fetch_add(
            jobs.size(), std::memory_order_relaxed);
        ledger_->sweepBegin(sweepIdx, spec.cells.size(), jobs.size(),
                            threads_);
    }

    std::vector<AggregateResult> jobResults(jobs.size());
    {
        HOST_PROF_SCOPE("sweep.jobs");
        parallelFor(jobs.size(), [&](std::size_t i) {
            const Job &job = jobs[i];
            const SweepCell &cell = spec.cells[job.cell];
            const ExperimentConfig &cfg = spec.cellConfig(job.cell);
            const std::string label = cell.label();

            if (ledger_)
                ledger_->jobBegin(sweepIdx, label, job.seed,
                                  configDigest(cfg));
            if (FlightRecorder::installed()) {
                char ctx[128];
                std::snprintf(ctx, sizeof(ctx),
                              "cell=%s seed=%llu", label.c_str(),
                              static_cast<unsigned long long>(job.seed));
                FlightRecorder::setContext(ctx);
            }

            WorkloadConfig wcfg;
            wcfg.targetInstructions = cfg.instructions;
            wcfg.seed = job.seed;
            std::shared_ptr<const Trace> trace =
                cache().get(cell.workload, wcfg);

            jobResults[i] =
                cell.mode == CellMode::Timing
                    ? runPolicyCell(*trace, cell.machine, cell.policy,
                                    cfg)
                    : runIdealCell(*trace, cell.machine, cfg,
                                   cell.priority);

            if (ledger_) {
                const AggregateResult &res = jobResults[i];
                ledger_->progress().jobsDone.fetch_add(
                    1, std::memory_order_relaxed);
                ledger_->progress().instructionsDone.fetch_add(
                    res.instructions, std::memory_order_relaxed);
                ledger_->jobEnd(sweepIdx, label, job.seed,
                                res.instructions, res.cycles,
                                statsDigest(res.stats));
            }
        });
    }

    // Merge per-seed results in job (= cell-major, seed) order: this
    // replays the exact merge sequence of the sequential path, so the
    // outcome is bit-identical regardless of thread count.
    SweepOutcome out;
    out.cells = spec.cells;
    out.results.resize(spec.cells.size());
    out.threads = threads_;
    {
        HOST_PROF_SCOPE("sweep.merge");
        for (std::size_t i = 0; i < jobs.size(); ++i)
            out.results[jobs[i].cell].merge(jobResults[i]);
    }

    // cellEnd events are emitted from this single-threaded loop, so
    // unlike the concurrent jobBegin/jobEnd stream their file order is
    // itself deterministic (declaration order).
    if (ledger_) {
        for (std::size_t c = 0; c < spec.cells.size(); ++c) {
            const AggregateResult &res = out.results[c];
            ledger_->cellEnd(sweepIdx, spec.cells[c].label(),
                             spec.cellConfig(c).seeds.size(),
                             res.instructions, res.cycles,
                             statsDigest(res.stats));
        }
    }

    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (ledger_)
        ledger_->sweepEnd(sweepIdx, spec.cells.size(), jobs.size(),
                          out.wallSeconds);
    return out;
}

} // namespace csim
