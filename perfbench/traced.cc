/**
 * @file
 * Traced benchmark driver: the same jobs as timed.cc, assembled from
 * each module's public functions instead of the harness entry points,
 * with a span at every module boundary. The virtual policy, listener
 * and observer interfaces are wrapped in timing decorators, so the
 * per-instruction hooks (steer, priority, notify, commit, observers)
 * add their call counts and host time to the enclosing span instead of
 * each opening one: the span list stays O(jobs + regions).
 *
 * Each job's result digest must equal the timed driver's, which proves
 * the assembly below is the harness's computation and nothing else.
 * Only this driver reaches below the harness API; a refactor that
 * removes a module function it calls breaks this file, not timed.cc.
 *
 * Spans and a random sample of hook calls are timed with the
 * time-stamp counter, calibrated against steady_clock over the whole
 * process; spans are kept in memory and written at exit.
 */

#include <x86intrin.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "critpath/attribution.hh"
#include "frontend/branch_annotator.hh"
#include "harness/trace_cache.hh"
#include "listsched/list_scheduler.hh"
#include "mem/latency_annotator.hh"
#include "obs/chrome_trace.hh"
#include "obs/interval_profiler.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_store.hh"
#include "verify/oracle.hh"
#include "verify/pipeline_checker.hh"
#include "workloads/registry.hh"

using namespace csim;
using namespace perfbench;

namespace {

inline std::uint64_t
ticks()
{
    return __rdtsc();
}

/** Per-instruction hook kinds whose time folds into the open span. */
enum Hook : unsigned
{
    HookSteer,
    HookNotify,
    HookPrio,
    HookCommit,
    HookChecker,
    HookProfiler,
    NumHooks,
};

struct Span
{
    const char *name = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
    /** Job index; -1 outside any job (set-up, final merge, report). */
    int job = -1;
    /** Units of work: instructions simulated, scheduled, analysed. */
    std::uint64_t instructions = 0;
    /** Simulated cycles stepped (core runs only). */
    std::uint64_t cycles = 0;
    std::uint64_t skipCycles = 0;
    /** Every hook call is counted; a random sample is timed. */
    std::uint64_t hookCalls[NumHooks] = {};
    std::uint64_t hookSampled[NumHooks] = {};
    std::uint64_t hookTicks[NumHooks] = {};
    /** Calls timed exactly (the trainer's chunk flushes). */
    std::uint64_t exactCalls[NumHooks] = {};
    std::uint64_t exactTicks[NumHooks] = {};
    /** Stalled steer decisions, and predicted-critical placements. */
    std::uint64_t steerStalls = 0;
    std::uint64_t steerCritical = 0;

    std::uint64_t duration() const { return end - start; }

    /** Estimated hook ticks: exact calls plus the extrapolated
     *  sample of the rest. */
    double
    hookEstimate(unsigned h) const
    {
        const std::uint64_t rest = hookCalls[h] - exactCalls[h];
        const double sampled = hookSampled[h]
            ? static_cast<double>(hookTicks[h]) *
                static_cast<double>(rest) /
                static_cast<double>(hookSampled[h])
            : 0.0;
        return static_cast<double>(exactTicks[h]) + sampled;
    }
};

/** The in-memory span list plus the stack of open spans. */
class Tracer
{
  public:
    int
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.job = job_;
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        top_ = &spans_.back();
        top_->start = ticks();
        return stack_.back();
    }

    void
    close(int idx)
    {
        spans_[idx].end = ticks();
        CSIM_ASSERT(!stack_.empty() && stack_.back() == idx);
        stack_.pop_back();
        top_ = stack_.empty() ? nullptr : &spans_[stack_.back()];
    }

    Span &at(int idx) { return spans_[idx]; }
    /** The innermost open span, which hooks charge. */
    Span &top() { return *top_; }
    void setJob(int job) { job_ = job; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    Span *top_ = nullptr;
    int job_ = -1;
};

Tracer tracer;

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const char *name) : idx_(tracer.open(name)) {}
    ~Scope() { tracer.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Span &span() { return tracer.at(idx_); }

  private:
    int idx_;
};

/**
 * Reading the counter costs ~20 ns on a virtualized host, more than
 * some hooks, so only one call in 16 (chosen by xorshift, which cannot
 * alias with the core's periodic work) is timed. The read-to-read
 * cost measured at start-up is subtracted from every timed call.
 */
std::uint64_t sampleState = 0x9e3779b97f4a7c15ull;
std::uint64_t readCost = 0;

inline bool
sampleThis()
{
    sampleState ^= sampleState << 13;
    sampleState ^= sampleState >> 7;
    sampleState ^= sampleState << 17;
    return (sampleState & 15) == 0;
}

inline std::uint64_t
elapsed(std::uint64_t t0)
{
    const std::uint64_t d = ticks() - t0;
    return d > readCost ? d - readCost : 0;
}

void
calibrateReadCost()
{
    std::vector<std::uint64_t> d(1001);
    for (std::uint64_t &x : d) {
        const std::uint64_t t0 = ticks();
        x = ticks() - t0;
    }
    std::sort(d.begin(), d.end());
    readCost = d[d.size() / 2];
}

/** Call f as hook h: count it, and time it if sampled. */
template <typename F>
inline auto
hook(Hook h, F &&f)
{
    Span &s = tracer.top();
    ++s.hookCalls[h];
    if (!sampleThis())
        return f();
    const std::uint64_t t0 = ticks();
    struct Charge
    {
        Span &s;
        Hook h;
        std::uint64_t t0;
        ~Charge()
        {
            s.hookTicks[h] += elapsed(t0);
            ++s.hookSampled[h];
        }
    } charge{s, h, t0};
    return f();
}

class TimedSteering : public SteeringPolicy
{
  public:
    explicit TimedSteering(SteeringPolicy &inner) : inner_(inner) {}

    void
    reset(const CoreView &view, std::size_t trace_size) override
    {
        inner_.reset(view, trace_size);
    }

    SteerDecision
    steer(const CoreView &view, const SteerRequest &req) override
    {
        const SteerDecision d =
            hook(HookSteer, [&] { return inner_.steer(view, req); });
        Span &s = tracer.top();
        if (d.stall)
            ++s.steerStalls;
        else if (d.predictedCritical)
            ++s.steerCritical;
        return d;
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    void
    notifySteered(const CoreView &view, const SteerRequest &req,
                  const SteerDecision &decision) override
    {
        hook(HookNotify,
             [&] { inner_.notifySteered(view, req, decision); });
    }

    void
    notifyCommit(const CoreView &view, InstId id,
                 const TraceRecord &rec) override
    {
        hook(HookNotify, [&] { inner_.notifyCommit(view, id, rec); });
    }

    const char *name() const override { return inner_.name(); }

  private:
    SteeringPolicy &inner_;
};

class TimedScheduling : public SchedulingPolicy
{
  public:
    explicit TimedScheduling(SchedulingPolicy &inner) : inner_(inner) {}

    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        return hook(HookPrio,
                    [&] { return inner_.priorityClass(rec); });
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    const char *name() const override { return inner_.name(); }

  private:
    SchedulingPolicy &inner_;
};

/**
 * The online trainer's cost is heavy-tailed: a commit is a buffer
 * append, except that every chunkSize-th commit of a run (and the run
 * end) analyses the whole chunk. Those flush calls are timed exactly;
 * the rest are sampled. A flush on a call predicted not to flush is
 * counted in missedFlushes so a change to the trainer's cadence cannot
 * silently bias the estimate.
 */
std::uint64_t missedFlushes = 0;

class TimedTrainer : public CommitListener
{
  public:
    TimedTrainer(OnlineCriticalityTrainer &inner, std::uint64_t chunk)
        : inner_(inner), chunk_(chunk)
    {
    }

    void
    onCommit(const CoreView &view, InstId id) override
    {
        const std::uint64_t before = inner_.chunksAnalyzed();
        if (++commits_ % chunk_ == 0) {
            exact([&] { inner_.onCommit(view, id); });
        } else {
            hook(HookCommit, [&] { inner_.onCommit(view, id); });
            if (inner_.chunksAnalyzed() != before)
                ++missedFlushes;
        }
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    void
    onRunEnd(const CoreView &view) override
    {
        exact([&] { inner_.onRunEnd(view); });
    }

  private:
    template <typename F>
    void
    exact(F &&f)
    {
        Span &s = tracer.top();
        const std::uint64_t t0 = ticks();
        f();
        s.exactTicks[HookCommit] += elapsed(t0);
        ++s.exactCalls[HookCommit];
        ++s.hookCalls[HookCommit];
    }

    OnlineCriticalityTrainer &inner_;
    std::uint64_t chunk_;
    std::uint64_t commits_ = 0;
};

class TimedObserver : public SimObserver
{
  public:
    TimedObserver(SimObserver &inner, Hook hook)
        : inner_(inner), hook_(hook)
    {
    }

    void
    onRunStart(const CoreView &view) override
    {
        hook(hook_, [&] { inner_.onRunStart(view); });
    }

    void
    onSteer(const CoreView &view, InstId id) override
    {
        hook(hook_, [&] { inner_.onSteer(view, id); });
    }

    void
    onIssue(const CoreView &view, InstId id) override
    {
        hook(hook_, [&] { inner_.onIssue(view, id); });
    }

    void
    onIssueDenied(const CoreView &view, InstId id) override
    {
        hook(hook_, [&] { inner_.onIssueDenied(view, id); });
    }

    void
    onSteerStall(const CoreView &view, SteerStallCause cause) override
    {
        hook(hook_, [&] { inner_.onSteerStall(view, cause); });
    }

    void
    onFetchStall(const CoreView &view) override
    {
        hook(hook_, [&] { inner_.onFetchStall(view); });
    }

    void
    onCommit(const CoreView &view, InstId id) override
    {
        hook(hook_, [&] { inner_.onCommit(view, id); });
    }

    void
    onCycleEnd(const CoreView &view) override
    {
        hook(hook_, [&] { inner_.onCycleEnd(view); });
    }

    void
    onRunEnd(const CoreView &view) override
    {
        hook(hook_, [&] { inner_.onRunEnd(view); });
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

  private:
    SimObserver &inner_;
    Hook hook_;
};

// ---------------------------------------------------------------------
// The harness's job computation (src/harness/experiment.cc), assembled
// from module calls for the configurations this benchmark declares.

/** Everything a policy stack owns (the four focused stacks only). */
struct PolicyStack
{
    std::unique_ptr<CriticalityPredictor> critPred;
    std::unique_ptr<LocPredictor> locPred;
    std::unique_ptr<OnlineCriticalityTrainer> trainer;
    std::unique_ptr<SteeringPolicy> steering;
    std::unique_ptr<SchedulingPolicy> scheduling;
};

PolicyStack
makeStack(const Trace &trace, PolicyKind kind,
          const ExperimentConfig &cfg)
{
    PolicyStack s;
    s.critPred = std::make_unique<CriticalityPredictor>();
    UnifiedSteeringOptions opt;
    opt.focusOnCritical = true;
    if (kind == PolicyKind::Focused) {
        s.steering = std::make_unique<UnifiedSteering>(
            opt, s.critPred.get(), nullptr);
        s.scheduling =
            std::make_unique<CriticalScheduling>(*s.critPred);
        s.trainer = std::make_unique<OnlineCriticalityTrainer>(
            trace, s.critPred.get(), nullptr, cfg.trainChunk);
        return s;
    }
    if (kind != PolicyKind::FocusedLoc &&
        kind != PolicyKind::FocusedLocStall &&
        kind != PolicyKind::FocusedLocStallProactive)
        CSIM_PANIC("traced makeStack: policy outside the benchmark");
    LocPredictor::Params loc_params;
    loc_params.levels = cfg.locLevels;
    s.locPred = std::make_unique<LocPredictor>(loc_params);
    opt.stallOverSteer = kind != PolicyKind::FocusedLoc;
    opt.stallThreshold = cfg.stallThreshold;
    opt.proactiveLB = kind == PolicyKind::FocusedLocStallProactive;
    s.steering = std::make_unique<UnifiedSteering>(
        opt, s.critPred.get(), s.locPred.get());
    s.scheduling = std::make_unique<LocScheduling>(*s.locPred);
    s.trainer = std::make_unique<OnlineCriticalityTrainer>(
        trace, s.critPred.get(), s.locPred.get(), cfg.trainChunk);
    return s;
}

/** Chunks analysed by every trainer so far (critpath.chunks). */
std::uint64_t trainerChunks = 0;

/** Construct a sim in a core.construct span and run it in a span of
 *  the given name, recording the work the run did. */
SimResult
runSim(const char *span_name, const MachineConfig &machine,
       const Trace &trace, SteeringPolicy &steering,
       SchedulingPolicy &scheduling, OnlineCriticalityTrainer *trainer,
       std::uint64_t train_chunk, SimOptions options)
{
    TimedSteering tsteer(steering);
    TimedScheduling tsched(scheduling);
    std::unique_ptr<TimedTrainer> tlisten;
    if (trainer)
        tlisten = std::make_unique<TimedTrainer>(*trainer, train_chunk);
    std::unique_ptr<TimingSim> sim;
    {
        Scope s("core.construct");
        sim = std::make_unique<TimingSim>(machine, trace, tsteer, tsched,
                                          tlisten.get(),
                                          std::move(options));
    }
    SimResult r;
    {
        Scope s(span_name);
        r = sim->run();
        s.span().instructions = trace.size();
        s.span().cycles =
            r.timing.empty() ? 0 : r.timing.back().commit + 1;
        s.span().skipCycles = sim->skipCycles();
    }
    Scope s("core.teardown");
    sim.reset();
    return r;
}

void
scoreCriticalityPredictions(const Trace &trace, SimResult &result,
                            const MachineConfig &machine,
                            std::uint64_t chunk_size)
{
    const std::vector<bool> truth =
        criticalityGroundTruth(trace, result, machine, chunk_size);
    std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
    const std::size_t n = std::min(truth.size(), result.timing.size());
    for (std::size_t i = 0; i < n; ++i) {
        const bool pred = result.timing[i].predictedCritical;
        if (pred && truth[i])
            ++tp;
        else if (pred)
            ++fp;
        else if (truth[i])
            ++fn;
        else
            ++tn;
    }
    const auto counter = [](std::uint64_t v) {
        StatValue sv;
        sv.kind = StatKind::Counter;
        sv.value = static_cast<double>(v);
        return sv;
    };
    const auto formula = [](std::uint64_t num, std::uint64_t den) {
        StatValue sv;
        sv.kind = StatKind::Formula;
        sv.value = den ? static_cast<double>(num) /
            static_cast<double>(den) : 0.0;
        return sv;
    };
    result.stats.add("profiler.crit.truePos", counter(tp));
    result.stats.add("profiler.crit.falsePos", counter(fp));
    result.stats.add("profiler.crit.falseNeg", counter(fn));
    result.stats.add("profiler.crit.trueNeg", counter(tn));
    result.stats.add("profiler.crit.hitRate",
                     formula(tp + tn, tp + fp + fn + tn));
    result.stats.add("profiler.crit.precision", formula(tp, tp + fp));
    result.stats.add("profiler.crit.recall", formula(tp, tp + fn));
}

struct PolicyOut
{
    SimResult sim;
    CpBreakdown breakdown;
    IntervalSeries intervals;
};

PolicyOut
tracedRunPolicy(const Trace &trace, const MachineConfig &machine,
                PolicyKind kind, const ExperimentConfig &cfg)
{
    PolicyStack stack = [&] {
        Scope s("policy.stack");
        return makeStack(trace, kind, cfg);
    }();

    if (cfg.simOptions.phases.empty()) {
        SimOptions warm_options;
        warm_options.legacyStep = cfg.simOptions.legacyStep;
        for (unsigned w = 0; w < cfg.warmupRuns; ++w) {
            stack.trainer->restart();
            (void)runSim("core.warmup", machine, trace, *stack.steering,
                         *stack.scheduling, stack.trainer.get(),
                         cfg.trainChunk, warm_options);
        }
    }
    stack.trainer->restart();

    std::unique_ptr<PipelineChecker> checker;
    std::unique_ptr<IntervalProfiler> profiler;
    std::unique_ptr<TimedObserver> tchecker, tprofiler;
    SimOptions sim_options = cfg.simOptions;
    if (cfg.verify.checker) {
        PipelineCheckerOptions copt;
        copt.panicOnViolation = cfg.verify.panicOnViolation;
        checker =
            std::make_unique<PipelineChecker>(machine, trace, copt);
        tchecker = std::make_unique<TimedObserver>(*checker, HookChecker);
        sim_options.checker = tchecker.get();
    }
    if (cfg.profile.enabled) {
        IntervalProfilerOptions popt;
        popt.intervalCycles = cfg.profile.intervalCycles;
        profiler =
            std::make_unique<IntervalProfiler>(machine, trace, popt);
        tprofiler =
            std::make_unique<TimedObserver>(*profiler, HookProfiler);
        sim_options.observers.push_back(tprofiler.get());
    }

    PolicyOut out;
    out.sim = runSim("core.measure", machine, trace, *stack.steering,
                     *stack.scheduling, stack.trainer.get(),
                     cfg.trainChunk, std::move(sim_options));
    trainerChunks += stack.trainer->chunksAnalyzed();
    if (profiler) {
        out.intervals = profiler->takeSeries();
        if (cfg.profile.scoreCriticality) {
            Scope s("critpath.truth");
            s.span().instructions = trace.size();
            scoreCriticalityPredictions(trace, out.sim, machine,
                                        cfg.trainChunk);
        }
    }
    if (checker) {
        Scope s("verify.audit");
        s.span().instructions = trace.size();
        const VerifyReport audit =
            auditTiming(trace, out.sim.timing, machine);
        if (!audit.ok() && cfg.verify.panicOnViolation)
            CSIM_PANIC_F("post-run audit (%s, %s): %s",
                         machine.name().c_str(), policyName(kind),
                         audit.firstDetail.c_str());
    }
    {
        Scope s("critpath.analyze");
        s.span().instructions = trace.size();
        out.breakdown = analyzeFullRun(trace, out.sim, machine);
    }
    Scope s("policy.stack");
    stack.scheduling.reset();
    stack.steering.reset();
    stack.trainer.reset();
    stack.locPred.reset();
    stack.critPred.reset();
    return out;
}

AggregateResult
toAggregate(std::uint64_t instructions, Cycle cycles,
            const CpBreakdown &bd, std::uint64_t global_values,
            const StatsSnapshot &stats)
{
    AggregateResult r;
    r.instructions = instructions;
    r.cycles = cycles;
    for (std::size_t c = 0; c < numCpCategories; ++c)
        r.categoryCycles[c] = bd.cycles[c];
    r.contentionEventsCritical = bd.contentionEventsCritical;
    r.contentionEventsOther = bd.contentionEventsOther;
    r.fwdEventsLoadBal = bd.fwdEventsLoadBal;
    r.fwdEventsDyadic = bd.fwdEventsDyadic;
    r.fwdEventsOther = bd.fwdEventsOther;
    r.globalValues = global_values;
    r.stats.merge(stats);
    return r;
}

AggregateResult
tracedIdealCell(const Trace &trace, const MachineConfig &machine)
{
    UnifiedSteering steering(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimResult ref_run =
        runSim("core.measure", MachineConfig::monolithic(), trace,
               steering, age, nullptr, 0, SimOptions{});
    ListSchedResult sched;
    {
        Scope s("listsched.schedule");
        s.span().instructions = trace.size();
        sched = listSchedule(trace, ref_run.timing, machine);
    }
    Scope s("harness.aggregate");
    AggregateResult agg =
        toAggregate(sched.instructions, sched.cycles, CpBreakdown{},
                    sched.globalValues, ref_run.stats);
    ref_run = SimResult{};
    return agg;
}

void
tracedCheckOracle(const Trace &trace, const MachineConfig &machine,
                  PolicyKind kind, const ExperimentConfig &cfg,
                  std::uint64_t instructions, std::uint64_t cycles)
{
    const double cpi = instructions ?
        static_cast<double>(cycles) /
        static_cast<double>(instructions) : 0.0;
    ExperimentConfig bound_cfg = cfg;
    bound_cfg.verify = VerifyConfig{};

    const OracleCheck floor = checkCpiFloor(cpi, machine);
    if (!floor.ok)
        CSIM_FATAL_F("%s (%s, %s)", floor.detail.c_str(),
                     machine.name().c_str(), policyName(kind));
    const AggregateResult ideal = tracedIdealCell(trace, machine);
    const OracleCheck vs_ideal =
        checkCpiLowerBound(cpi, ideal.cpi(), cfg.verify.oracleRelTol,
                           "ideal list scheduler");
    if (!vs_ideal.ok)
        CSIM_FATAL_F("%s (%s, %s)", vs_ideal.detail.c_str(),
                     machine.name().c_str(), policyName(kind));
    if (machine.numClusters > 1) {
        const PolicyOut env = tracedRunPolicy(
            trace, monolithicEnvelope(machine), kind, bound_cfg);
        const OracleCheck vs_env = checkCpiLowerBound(
            cpi, env.sim.cpi(), cfg.verify.oracleRelTol,
            "monolithic-envelope");
        if (!vs_env.ok)
            CSIM_FATAL_F("%s (%s, %s)", vs_env.detail.c_str(),
                         machine.name().c_str(), policyName(kind));
    }
}

AggregateResult
tracedPolicyCell(const Trace &trace, const MachineConfig &machine,
                 PolicyKind kind, const ExperimentConfig &cfg)
{
    std::optional<PolicyOut> run;
    run.emplace(tracedRunPolicy(trace, machine, kind, cfg));
    if (cfg.verify.oracle && cfg.simOptions.phases.empty()) {
        Scope s("verify.oracle");
        tracedCheckOracle(trace, machine, kind, cfg,
                          run->sim.instructions, run->sim.cycles);
    }
    // Folding the run into the cell result and releasing the run's
    // timing records is harness work too.
    Scope s("harness.aggregate");
    AggregateResult agg =
        toAggregate(run->sim.instructions, run->sim.cycles,
                    run->breakdown, run->sim.globalValues,
                    run->sim.stats);
    agg.intervals = std::move(run->intervals);
    agg.phases = std::move(run->sim.phases);
    run.reset();
    return agg;
}

/** runRegionSampledCell for the benchmark's (valid) region config. */
AggregateResult
tracedRegionCell(const TraceSoA &soa, const MachineConfig &machine,
                 PolicyKind kind, const ExperimentConfig &cfg)
{
    ExperimentConfig rcfg = cfg;
    rcfg.regions = 0;
    rcfg.simOptions.phases.clear();
    if (cfg.regionWarmup > 0)
        rcfg.simOptions.phases.push_back(
            PhaseSpec{"warmup", cfg.regionWarmup, true});
    rcfg.simOptions.phases.push_back(PhaseSpec{"measure", 0, false});

    const std::uint64_t span = cfg.regionWarmup + cfg.regionLen;
    const std::uint64_t stride = soa.size() / cfg.regions;
    if (span > stride)
        CSIM_FATAL("traced region sampling: regions overlap");
    AggregateResult agg;
    for (std::uint64_t r = 0; r < cfg.regions; ++r) {
        std::optional<Trace> region;
        {
            Scope s("trace.extract");
            s.span().instructions = span;
            region.emplace(extractRegion(soa, r * stride, span));
        }
        std::optional<AggregateResult> res;
        res.emplace(tracedPolicyCell(*region, machine, kind, rcfg));
        {
            // Releasing the region is part of its extraction cost.
            Scope s("trace.extract");
            region.reset();
        }
        Scope s("harness.merge");
        agg.merge(*res);
        res.reset();
    }
    return agg;
}

// ---------------------------------------------------------------------
// Per-layer metrics from the span list.

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

struct Totals
{
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto clock0 = std::chrono::steady_clock::now();
    const std::uint64_t tick0 = ticks();
    std::string spans_path;
    // --spans PATH is this driver's own flag; the rest is shared.
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::string(argv[i]) == "--spans" && i + 1 < argc) {
            spans_path = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }
    const Args args =
        parseArgs(static_cast<int>(rest.size()), rest.data());
    calibrateReadCost();
    ScratchDir scratch(args.workdir);
    const std::vector<JobSpec> jobs = workloadJobs(args.workload);
    const ExperimentConfig cfg = workloadConfig(args);
    const std::vector<std::string> wls = traceWorkloads(args.workload);

    // Set-up, split by module.
    std::uint64_t mispredicts = 0, l1_misses = 0, trace_bytes = 0,
                  trace_insts = 0;
    TraceCache cache;
    std::vector<TraceSoA> stores;
    for (const std::string &wl : wls) {
        WorkloadConfig wcfg;
        wcfg.targetInstructions = cfg.instructions;
        wcfg.seed = args.seed;
        if (args.workload == Workload::StoreRegions) {
            const std::string path = scratch.file(wl + ".trc2");
            {
                Scope s("trace.store_build");
                const TraceStoreBuildResult b =
                    buildTraceStoreFile(wl, wcfg, path);
                if (!b.ok)
                    CSIM_FATAL_F("store build failed: %s", path.c_str());
                s.span().instructions = b.instructions;
            }
            TraceSoA soa;
            {
                Scope s("trace.store_load");
                const TraceIoStatus st = loadTraceStore(soa, path);
                if (st != TraceIoStatus::Ok)
                    CSIM_FATAL_F("store load failed: %s: %s",
                                 path.c_str(), traceIoStatusName(st));
            }
            stores.push_back(std::move(soa));
            continue;
        }
        Trace trace = [&] {
            Scope s("emu.build");
            Trace t = buildWorkloadTrace(wl, wcfg);
            s.span().instructions = t.size();
            return t;
        }();
        {
            Scope s("trace.link");
            s.span().instructions = trace.size();
            trace.linkProducers();
        }
        {
            Scope s("frontend.annotate");
            s.span().instructions = trace.size();
            mispredicts += annotateBranches(trace).mispredictions;
        }
        {
            Scope s("mem.annotate");
            s.span().instructions = trace.size();
            l1_misses += annotateMemory(trace).loadMisses;
        }
        {
            Scope s("trace.soa");
            s.span().instructions = trace.size();
            (void)trace.soa();
        }
        trace_bytes += trace.footprintBytes();
        trace_insts += trace.size();
        // The jobs read the harness's cached copy, as SweepRunner does.
        Scope s("harness.cache_fill");
        (void)cache.get(wl, wcfg);
    }

    // The jobs, then the merge and (checked_breakdown) the report.
    const double t_timed = monotonicSeconds();
    std::vector<AggregateResult> results(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobSpec &job = jobs[j];
        setCurrentJob(job.label.c_str());
        tracer.setJob(static_cast<int>(j));
        Scope s("harness.job");
        if (args.workload == Workload::StoreRegions) {
            const std::size_t w = static_cast<std::size_t>(
                std::find(wls.begin(), wls.end(), job.workload) -
                wls.begin());
            results[j] = tracedRegionCell(stores[w], job.machine,
                                          job.policy, cfg);
            continue;
        }
        std::shared_ptr<const Trace> trace = [&] {
            Scope g("harness.cache_get");
            WorkloadConfig wcfg;
            wcfg.targetInstructions = cfg.instructions;
            wcfg.seed = args.seed;
            return cache.get(job.workload, wcfg);
        }();
        results[j] = job.ideal
            ? tracedIdealCell(*trace, job.machine)
            : tracedPolicyCell(*trace, job.machine, job.policy, cfg);
    }
    setCurrentJob(nullptr);
    tracer.setJob(-1);
    std::vector<AggregateResult> cells(jobs.size());
    {
        Scope s("harness.merge");
        for (std::size_t j = 0; j < jobs.size(); ++j)
            cells[j].merge(results[j]);
    }
    if (args.workload == Workload::CheckedBreakdown) {
        Scope s("obs.report");
        std::vector<ChromeTraceRun> runs;
        for (std::size_t j = 0; j < jobs.size(); ++j)
            runs.push_back(
                ChromeTraceRun{jobs[j].label, cells[j].intervals, {}});
        std::ostringstream os;
        writeChromeTrace(os, runs);
    }
    const double t_end = monotonicSeconds();

    // Calibrate the counter against steady_clock over the process.
    const double ns_per_tick =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - clock0)
                .count()) /
        static_cast<double>(ticks() - tick0);
    const auto ns = [&](double t) { return t * ns_per_tick; };

    // Fold the spans.
    const std::vector<Span> &spans = tracer.spans();
    std::vector<std::uint64_t> child_ticks(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child_ticks[s.parent] += s.duration();
    const auto totals = [&](const char *name) {
        Totals t;
        for (const Span &s : spans) {
            if (std::string(s.name) != name)
                continue;
            t.ticks += s.duration();
            ++t.count;
            t.instructions += s.instructions;
            t.cycles += s.cycles;
        }
        return t;
    };
    std::uint64_t hook_calls[NumHooks] = {};
    double hook_ticks[NumHooks] = {};
    double core_self = 0;
    std::uint64_t core_insts = 0, core_cycles = 0, skip_cycles = 0,
                  stalls = 0, critical = 0, checked_cycles = 0,
                  profiled_cycles = 0;
    std::vector<double> job_ms;
    std::uint64_t job_ticks = 0, job_covered = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string name = s.name;
        if (name == "harness.job") {
            job_ms.push_back(ns(s.duration()) / 1e6);
            job_ticks += s.duration();
            job_covered += child_ticks[i];
        }
        if (name != "core.warmup" && name != "core.measure")
            continue;
        double hooks = 0;
        for (unsigned h = 0; h < NumHooks; ++h) {
            hook_calls[h] += s.hookCalls[h];
            hook_ticks[h] += s.hookEstimate(h);
            hooks += s.hookEstimate(h);
        }
        core_self += std::max(
            0.0, static_cast<double>(s.duration()) - hooks);
        core_insts += s.instructions;
        core_cycles += s.cycles;
        skip_cycles += s.skipCycles;
        stalls += s.steerStalls;
        critical += s.steerCritical;
        if (s.hookCalls[HookChecker])
            checked_cycles += s.cycles;
        if (s.hookCalls[HookProfiler])
            profiled_cycles += s.cycles;
    }
    const auto per_inst = [&](const char *name) {
        const Totals t = totals(name);
        return ratio(ns(t.ticks), static_cast<double>(t.instructions));
    };
    const auto total_ms = [&](const char *name) {
        return ns(totals(name).ticks) / 1e6;
    };
    const auto per_call = [&](Hook h) {
        return ratio(ns(hook_ticks[h]),
                     static_cast<double>(hook_calls[h]));
    };
    const Totals construct = totals("core.construct");
    const Totals teardown = totals("core.teardown");
    const Totals warm = totals("core.warmup");
    const Totals measure = totals("core.measure");
    const Totals oracle = totals("verify.oracle");
    const double steer_calls = static_cast<double>(hook_calls[HookSteer]);

    std::vector<std::pair<std::string, double>> m;
    const auto add = [&](const char *name, double v) {
        m.emplace_back(name, v);
    };
    add("emu.ns_per_inst", per_inst("emu.build"));
    add("trace.link_ns_per_inst", per_inst("trace.link"));
    add("trace.soa_ns_per_inst", per_inst("trace.soa"));
    add("trace.bytes_per_inst",
          ratio(static_cast<double>(trace_bytes),
                static_cast<double>(trace_insts)));
    add("trace.store_build_ns_per_inst", per_inst("trace.store_build"));
    add("trace.store_load_ms", total_ms("trace.store_load"));
    add("trace.extract_ns_per_inst", per_inst("trace.extract"));
    add("frontend.ns_per_inst", per_inst("frontend.annotate"));
    add("frontend.mispredicts_per_kinst",
          1000.0 * ratio(static_cast<double>(mispredicts),
                         static_cast<double>(trace_insts)));
    add("mem.ns_per_inst", per_inst("mem.annotate"));
    add("mem.l1_misses_per_kinst",
          1000.0 * ratio(static_cast<double>(l1_misses),
                         static_cast<double>(trace_insts)));
    add("core.construct_us",
          ratio(ns(construct.ticks + teardown.ticks) / 1e3,
                static_cast<double>(construct.count)));
    add("core.runs", static_cast<double>(warm.count + measure.count));
    add("core.warmup_ns_per_inst",
          ratio(ns(warm.ticks), static_cast<double>(warm.instructions)));
    add("core.measure_ns_per_inst",
          ratio(ns(measure.ticks),
                static_cast<double>(measure.instructions)));
    add("core.self_ns_per_inst",
          ratio(ns(core_self), static_cast<double>(core_insts)));
    add("core.ns_per_cycle",
          ratio(ns(core_self), static_cast<double>(core_cycles)));
    add("core.skip_cycle_frac",
          ratio(static_cast<double>(skip_cycles),
                static_cast<double>(core_cycles)));
    add("policy.steer_calls_per_inst",
          ratio(steer_calls, static_cast<double>(core_insts)));
    add("policy.steer_ns", per_call(HookSteer));
    add("policy.stall_frac",
          ratio(static_cast<double>(stalls), steer_calls));
    add("policy.prio_ns", per_call(HookPrio));
    add("policy.notify_ns", per_call(HookNotify));
    add("predict.critical_frac",
          ratio(static_cast<double>(critical),
                steer_calls - static_cast<double>(stalls)));
    add("critpath.train_ns_per_commit", per_call(HookCommit));
    add("critpath.chunks", static_cast<double>(trainerChunks));
    add("critpath.analyze_ns_per_inst", per_inst("critpath.analyze"));
    add("critpath.truth_ns_per_inst", per_inst("critpath.truth"));
    add("listsched.ns_per_inst", per_inst("listsched.schedule"));
    add("verify.checker_ns_per_cycle",
          ratio(ns(hook_ticks[HookChecker]),
                static_cast<double>(checked_cycles)));
    add("verify.audit_ns_per_inst", per_inst("verify.audit"));
    add("verify.oracle_ms_per_job",
          ratio(ns(oracle.ticks) / 1e6, static_cast<double>(oracle.count)));
    add("obs.profiler_ns_per_cycle",
          ratio(ns(hook_ticks[HookProfiler]),
                static_cast<double>(profiled_cycles)));
    add("obs.report_ms", total_ms("obs.report"));
    add("harness.cache_get_ms", total_ms("harness.cache_get"));
    add("harness.job_ms_p50", percentile(job_ms, 0.5));
    add("harness.job_ms_p90", percentile(job_ms, 0.9));
    add("harness.merge_ms", total_ms("harness.merge"));
    add("harness.unattributed_frac",
          ratio(static_cast<double>(job_ticks - job_covered),
                static_cast<double>(job_ticks)));

    JsonOut metrics;
    for (const auto &[name, value] : m)
        metrics.field(name, value);

    std::uint64_t instructions = 0, cycles = 0;
    std::vector<std::pair<std::string, std::string>> digests;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        instructions += cells[j].instructions;
        cycles += cells[j].cycles;
        digests.emplace_back(jobs[j].label, jobDigest(cells[j]));
    }

    if (!spans_path.empty()) {
        std::string out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out += JsonOut()
                       .field("id", static_cast<std::uint64_t>(i))
                       .field("name", s.name)
                       .field("start_ns", ns(s.start - tick0))
                       .field("end_ns", ns(s.end - tick0))
                       .raw("parent", std::to_string(s.parent))
                       .raw("job", std::to_string(s.job))
                       .str();
            out += '\n';
        }
        writeFile(spans_path, out);
    }

    writeFile(args.out,
              JsonOut()
                  .field("driver", "traced")
                  .field("workload", args.workloadName)
                  .field("seed", args.seed)
                  .raw("meta", buildInfoJson())
                  .field("timed_start_mono", t_timed)
                  .field("timed_s", t_end - t_timed)
                  .field("spans", static_cast<std::uint64_t>(spans.size()))
                  .field("missed_flushes", missedFlushes)
                  .field("instructions", instructions)
                  .field("cycles", cycles)
                  .field("peak_rss_bytes", peakRssBytes())
                  .raw("metrics", metrics.str())
                  .raw("jobs", jobsJson(digests))
                  .str());
    return 0;
}
