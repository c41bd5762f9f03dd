#include "obs/interval_profiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim {

const char *
cpiComponentName(CpiComponent c)
{
    switch (c) {
      case CpiComponent::Base:
        return "base";
      case CpiComponent::Window:
        return "window";
      case CpiComponent::SteerStall:
        return "steerStall";
      case CpiComponent::Bypass:
        return "bypass";
      case CpiComponent::Contention:
        return "contention";
      case CpiComponent::LoadImbalance:
        return "loadImbalance";
      case CpiComponent::Execute:
        return "execute";
      case CpiComponent::Memory:
        return "memory";
      case CpiComponent::Frontend:
        return "frontend";
      case CpiComponent::NumComponents:
        break;
    }
    CSIM_PANIC("cpiComponentName: bad component");
}

void
IntervalRecord::merge(const IntervalRecord &other)
{
    // Same nominal window across seeds; keep this record's start.
    cycles += other.cycles;
    for (std::size_t i = 0; i < numCpiComponents; ++i)
        components[i] += other.components[i];
    commits += other.commits;
    steers += other.steers;
    issued += other.issued;
    predictedCriticalSteers += other.predictedCriticalSteers;
    locLevelSum += other.locLevelSum;
    deniedIssue += other.deniedIssue;
    deniedCritical += other.deniedCritical;
    fetchStallCycles += other.fetchStallCycles;
    if (clusters.size() < other.clusters.size())
        clusters.resize(other.clusters.size());
    for (std::size_t c = 0; c < other.clusters.size(); ++c) {
        clusters[c].steered += other.clusters[c].steered;
        clusters[c].issued += other.clusters[c].issued;
        clusters[c].occupancySum += other.clusters[c].occupancySum;
    }
}

std::uint64_t
IntervalSeries::totalCycles() const
{
    std::uint64_t total = 0;
    for (const IntervalRecord &rec : records)
        total += rec.cycles;
    return total;
}

void
IntervalSeries::merge(const IntervalSeries &other)
{
    if (other.empty())
        return;
    if (empty()) {
        *this = other;
        return;
    }
    CSIM_ASSERT(intervalCycles == other.intervalCycles);
    CSIM_ASSERT(clusterIssueWidth == other.clusterIssueWidth);
    CSIM_ASSERT(windowPerCluster == other.windowPerCluster);
    mergeCount += other.mergeCount;
    const std::size_t common =
        std::min(records.size(), other.records.size());
    for (std::size_t i = 0; i < common; ++i)
        records[i].merge(other.records[i]);
    for (std::size_t i = common; i < other.records.size(); ++i)
        records.push_back(other.records[i]);
}

IntervalProfiler::IntervalProfiler(const MachineConfig &config,
                                   const Trace &trace,
                                   IntervalProfilerOptions options)
    : config_(config), trace_(trace), options_(options)
{
    CSIM_ASSERT(options_.intervalCycles >= 1);
    // A run over an empty trace returns before any observer hook
    // fires, so the geometry normally stamped by onRunStart must
    // already be in place: a series with intervalCycles == 0 trips
    // the merge asserts and zero-divides downstream normalizers.
    initSeriesGeometry();
}

void
IntervalProfiler::onRunStart(const CoreView &view)
{
    (void)view;
    series_ = IntervalSeries{};
    initSeriesGeometry();
    cur_ = IntervalRecord{};
    cur_.clusters.resize(config_.numClusters);
    nextCommit_ = 0;
    cycClusterIssued_.assign(config_.numClusters, 0);
    cycClusterDenied_.assign(config_.numClusters, 0);
    resetCycleState();
}

void
IntervalProfiler::onSteer(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);
    ++cur_.steers;
    cur_.locLevelSum += t.locLevel;
    if (t.predictedCritical)
        ++cur_.predictedCriticalSteers;
    if (t.cluster < cur_.clusters.size())
        ++cur_.clusters[t.cluster].steered;
    if (statLocSpectrum_)
        statLocSpectrum_->add(static_cast<double>(t.locLevel));
}

void
IntervalProfiler::onIssue(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);
    ++cur_.issued;
    ++cycIssued_;
    if (t.cluster < cur_.clusters.size()) {
        ++cur_.clusters[t.cluster].issued;
        ++cycClusterIssued_[t.cluster];
    }
}

void
IntervalProfiler::onIssueDenied(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);
    ++cur_.deniedIssue;
    ++cycDenied_;
    if (t.cluster < cycClusterDenied_.size())
        ++cycClusterDenied_[t.cluster];
    if (t.predictedCritical) {
        ++cur_.deniedCritical;
        ++cycDeniedCritical_;
    }
}

void
IntervalProfiler::onCommit(const CoreView &view, InstId id)
{
    (void)view;
    // Commit is in-order, so the ROB head is always the next trace id.
    nextCommit_ = id + 1;
    ++cur_.commits;
}

void
IntervalProfiler::onSteerStall(const CoreView &view, SteerStallCause cause)
{
    (void)view;
    cycSteerStalled_ = true;
    cycSteerStallCause_ = cause;
}

void
IntervalProfiler::onFetchStall(const CoreView &view)
{
    (void)view;
    ++cur_.fetchStallCycles;
}

void
IntervalProfiler::onCycleEnd(const CoreView &view)
{
    const CpiComponent comp = classifyCycle(view);
    ++cur_.components[static_cast<std::size_t>(comp)];
    ++cur_.cycles;
    for (ClusterId c = 0; c < config_.numClusters; ++c)
        cur_.clusters[c].occupancySum += view.windowOccupancy(c);
    if (cur_.cycles >= options_.intervalCycles)
        closeInterval(view.now() + 1);
    resetCycleState();
}

void
IntervalProfiler::onRunEnd(const CoreView &view)
{
    (void)view;
    if (cur_.cycles > 0)
        closeInterval(0);
}

CpiComponent
IntervalProfiler::classifyCycle(const CoreView &view) const
{
    // Denied-issue beats issued: even on a cycle that issued work, a
    // predicted-critical denial (or a denial with idle width elsewhere)
    // is the loss the paper's Figs. 5-6 attribute clustering to.
    if (cycDeniedCritical_ > 0)
        return CpiComponent::Contention;
    if (cycDenied_ > 0) {
        for (ClusterId c = 0; c < config_.numClusters; ++c) {
            if (cycClusterDenied_[c] == 0 &&
                cycClusterIssued_[c] < config_.cluster.issueWidth) {
                return CpiComponent::LoadImbalance;
            }
        }
    }
    if (cycIssued_ > 0)
        return CpiComponent::Base;

    // Zero-issue cycle. Structural back-pressure first.
    if (cycSteerStalled_) {
        return cycSteerStallCause_ == SteerStallCause::PolicyStall ?
            CpiComponent::SteerStall : CpiComponent::Window;
    }

    // Otherwise attribute by what the oldest uncommitted instruction
    // (the ROB head — the one every other in-flight op waits behind)
    // is blocked on.
    const InstId head = nextCommit_;
    if (head >= trace_.size())
        return CpiComponent::Base;
    const InstTiming &ht = view.timingOf(head);
    if (ht.dispatch == invalidCycle)
        return CpiComponent::Frontend;

    const Cycle now = view.now();
    if (ht.issue == invalidCycle) {
        // Waiting on operands: scan producers, worst blocker wins
        // (memory > bypass-in-flight > execution latency).
        bool saw_memory = false;
        bool saw_bypass = false;
        const TraceRecord &rec = trace_[head];
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = rec.prod[static_cast<std::size_t>(slot)];
            if (p == invalidInstId)
                continue;
            const InstTiming &pt = view.timingOf(p);
            if (pt.complete == invalidCycle || pt.complete > now) {
                const TraceRecord &prec = trace_[p];
                if (prec.isLoad() && prec.l1Miss)
                    saw_memory = true;
            } else if (slot != srcSlotMem &&
                       pt.cluster != ht.cluster &&
                       pt.complete + config_.fwdLatency > now) {
                // Result produced but still crossing clusters.
                saw_bypass = true;
            }
        }
        if (saw_memory)
            return CpiComponent::Memory;
        if (saw_bypass)
            return CpiComponent::Bypass;
        return CpiComponent::Execute;
    }
    if (ht.complete == invalidCycle || ht.complete > now) {
        const TraceRecord &rec = trace_[head];
        return rec.isLoad() && rec.l1Miss ? CpiComponent::Memory :
            CpiComponent::Execute;
    }
    // Issued and complete, awaiting commit bandwidth.
    return CpiComponent::Base;
}

void
IntervalProfiler::closeInterval(Cycle next_start)
{
    CSIM_ASSERT(cur_.componentSum() == cur_.cycles);
    if (statIntervals_)
        ++*statIntervals_;
    for (std::size_t i = 0; i < numCpiComponents; ++i) {
        if (statComponents_[i])
            *statComponents_[i] += cur_.components[i];
    }
    if (statPredCritSteers_)
        *statPredCritSteers_ += cur_.predictedCriticalSteers;
    if (statDenied_)
        *statDenied_ += cur_.deniedIssue;
    if (statDeniedCritical_)
        *statDeniedCritical_ += cur_.deniedCritical;
    series_.records.push_back(std::move(cur_));
    cur_ = IntervalRecord{};
    cur_.startCycle = next_start;
    cur_.clusters.resize(config_.numClusters);
}

void
IntervalProfiler::resetCycleState()
{
    cycIssued_ = 0;
    cycDenied_ = 0;
    cycDeniedCritical_ = 0;
    cycSteerStalled_ = false;
    cycSteerStallCause_ = SteerStallCause::RobFull;
    std::fill(cycClusterIssued_.begin(), cycClusterIssued_.end(), 0u);
    std::fill(cycClusterDenied_.begin(), cycClusterDenied_.end(), 0u);
}

IntervalSeries
IntervalProfiler::takeSeries()
{
    IntervalSeries out = std::move(series_);
    series_ = IntervalSeries{};
    initSeriesGeometry();
    return out;
}

void
IntervalProfiler::initSeriesGeometry()
{
    series_.intervalCycles = options_.intervalCycles;
    series_.clusterIssueWidth = config_.cluster.issueWidth;
    series_.windowPerCluster = config_.windowPerCluster;
}

void
IntervalProfiler::registerStats(StatsRegistry &registry)
{
    statIntervals_ = &registry.addCounter("profiler.intervals");
    for (std::size_t i = 0; i < numCpiComponents; ++i) {
        const CpiComponent c = static_cast<CpiComponent>(i);
        statComponents_[i] = &registry.addCounter(
            std::string("profiler.cycles.") + cpiComponentName(c));
    }
    statPredCritSteers_ =
        &registry.addCounter("profiler.steers.predictedCritical");
    // Ready instructions denied issue, counted once per cycle denied.
    statDenied_ = &registry.addCounter("profiler.issue.denied");
    statDeniedCritical_ =
        &registry.addCounter("profiler.issue.deniedCritical");
    // The LoC predictor's level of each instruction at steer time.
    statLocSpectrum_ = &registry.addDistribution(
        "profiler.loc.spectrum", 16, 0.0, 16.0);
}

} // namespace csim
