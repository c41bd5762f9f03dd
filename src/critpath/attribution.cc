#include "critpath/attribution.hh"

#include <span>

#include "common/logging.hh"

namespace csim {

CpBreakdown
analyzeFullRun(const Trace &trace, const SimResult &result,
               const MachineConfig &config)
{
    CSIM_ASSERT(result.timing.size() == trace.size());
    CriticalPathResult res = analyzeCriticalPath(
        trace, std::span<const InstTiming>(result.timing), config, 0);
    return res.breakdown;
}

std::vector<bool>
criticalityGroundTruth(const Trace &trace, const SimResult &result,
                       const MachineConfig &config,
                       std::uint64_t chunk_size)
{
    CSIM_ASSERT(chunk_size > 0);
    const std::uint64_t n = trace.size();
    std::vector<bool> critical(n, false);
    for (std::uint64_t begin = 0; begin < n; begin += chunk_size) {
        const std::uint64_t len = std::min(chunk_size, n - begin);
        CriticalPathResult res = analyzeCriticalPath(
            trace,
            std::span<const InstTiming>(result.timing.data() + begin,
                                        len),
            config, begin);
        for (std::uint64_t k = 0; k < len; ++k)
            if (res.criticalExec[k])
                critical[begin + k] = true;
    }
    return critical;
}

OnlineCriticalityTrainer::OnlineCriticalityTrainer(
    const Trace &trace, CriticalityPredictor *crit_pred,
    LocPredictor *loc_pred, std::uint64_t chunk_size)
    : trace_(trace), critPred_(crit_pred), locPred_(loc_pred),
      chunkSize_(chunk_size)
{
    CSIM_ASSERT(chunk_size > 0);
    buffer_.reserve(chunk_size);
}

void
OnlineCriticalityTrainer::registerStats(StatsRegistry &registry)
{
    // The trainer's own progress lives in plain members (the counters
    // predate the registry); expose them as live formulas so snapshots
    // always see the current values without double bookkeeping.
    registry.addFormula(
        "train.chunks", [this] { return static_cast<double>(chunks_); });
    registry.addFormula(
        "train.trainedTotal",
        [this] { return static_cast<double>(trainedTotal_); });
    // Training instructions whose E node was chunk-critical.
    registry.addFormula(
        "train.trainedCritical",
        [this] { return static_cast<double>(trainedCritical_); });
    if (critPred_)
        critPred_->attachStats(registry);
    if (locPred_)
        locPred_->attachStats(registry);
}

void
OnlineCriticalityTrainer::restart()
{
    chunkBegin_ = 0;
    buffer_.clear();
}

void
OnlineCriticalityTrainer::onCommit(const CoreView &view, InstId id)
{
    // Commits arrive strictly in order.
    CSIM_ASSERT(id == chunkBegin_ + buffer_.size());
    buffer_.push_back(view.timingOf(id));
    if (buffer_.size() >= chunkSize_)
        flush(view);
}

void
OnlineCriticalityTrainer::onRunEnd(const CoreView &view)
{
    if (!buffer_.empty())
        flush(view);
}

void
OnlineCriticalityTrainer::flush(const CoreView &view)
{
    (void)view;
    CriticalPathResult res = analyzeCriticalPath(
        trace_, std::span<const InstTiming>(buffer_), view.config(),
        chunkBegin_);
    for (std::size_t k = 0; k < buffer_.size(); ++k) {
        const bool crit = res.criticalExec[k];
        const Addr pc = trace_[chunkBegin_ + k].pc;
        if (critPred_)
            critPred_->train(pc, crit);
        if (locPred_)
            locPred_->train(pc, crit);
        ++trainedTotal_;
        if (crit)
            ++trainedCritical_;
    }
    ++chunks_;
    chunkBegin_ += buffer_.size();
    buffer_.clear();
}

} // namespace csim
