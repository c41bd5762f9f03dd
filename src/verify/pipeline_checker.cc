#include "verify/pipeline_checker.hh"

#include <map>
#include <utility>

#include "common/logging.hh"

namespace csim {

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::Monotone: return "monotone";
      case Invariant::Order: return "order";
      case Invariant::Occupancy: return "occupancy";
      case Invariant::Width: return "width";
      case Invariant::Rob: return "rob";
      case Invariant::Bypass: return "bypass";
      default:
        CSIM_PANIC("invariantName: bad invariant");
    }
}

void
VerifyReport::record(Invariant inv, std::string detail)
{
    ++byClass[static_cast<std::size_t>(inv)];
    if (firstDetail.empty())
        firstDetail = std::move(detail);
}

namespace {

std::string
cyc(Cycle c)
{
    return c == invalidCycle ? std::string("<unset>")
                             : std::to_string(c);
}

/** "inst 42: " prefix every violation message starts with. */
std::string
instPrefix(InstId id)
{
    return "inst " + std::to_string(id) + ": ";
}

} // anonymous namespace

PipelineChecker::PipelineChecker(const MachineConfig &config,
                                 const Trace &trace,
                                 PipelineCheckerOptions options)
    : config_(config), trace_(trace), options_(options)
{
    clusters_.resize(config_.numClusters);
}

void
PipelineChecker::violation(Invariant inv, std::string detail)
{
    detail = std::string("pipeline invariant [") + invariantName(inv) +
        "] violated: " + detail;
    if (statViolations_) {
        ++*statViolations_;
        ++*statByClass_[static_cast<std::size_t>(inv)];
    }
    if (options_.panicOnViolation)
        CSIM_PANIC_F("%s", detail.c_str());
    report_.record(inv, std::move(detail));
}

void
PipelineChecker::registerStats(StatsRegistry &registry)
{
    statCheckedInsts_ = &registry.addCounter("verify.checkedInstructions");
    statCheckedCycles_ = &registry.addCounter("verify.checkedCycles");
    statViolations_ = &registry.addCounter("verify.violations");
    for (std::size_t i = 0; i < numInvariants; ++i)
        statByClass_[i] = &registry.addCounter(
            std::string("verify.violation.") +
            invariantName(static_cast<Invariant>(i)));
}

void
PipelineChecker::onRunStart(const CoreView &view)
{
    (void)view;
    nextSteer_ = 0;
    nextCommit_ = 0;
    lastDispatch_ = 0;
    lastCommit_ = 0;
    inFlight_ = 0;
    steersThisCycle_ = 0;
    commitsThisCycle_ = 0;
    clusters_.assign(config_.numClusters, ClusterState{});
}

void
PipelineChecker::onSteer(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);

    if (id != nextSteer_)
        violation(Invariant::Order,
                  instPrefix(id) + "steered out of program order "
                  "(expected inst " + std::to_string(nextSteer_) + ")");
    nextSteer_ = id + 1;

    if (t.dispatch != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "dispatch stamp " + cyc(t.dispatch) +
                  " != steer cycle " + std::to_string(view.now()));
    if (t.fetch == invalidCycle ||
        t.dispatch == invalidCycle ||
        t.dispatch < t.fetch + config_.frontendDepth)
        violation(Invariant::Monotone,
                  instPrefix(id) + "dispatch " + cyc(t.dispatch) +
                  " precedes fetch " + cyc(t.fetch) + " + frontend depth " +
                  std::to_string(config_.frontendDepth));
    if (t.dispatch != invalidCycle && t.dispatch < lastDispatch_)
        violation(Invariant::Order,
                  instPrefix(id) + "dispatch " + cyc(t.dispatch) +
                  " earlier than an older instruction's (" +
                  std::to_string(lastDispatch_) + ")");
    if (t.dispatch != invalidCycle)
        lastDispatch_ = t.dispatch;

    if (++steersThisCycle_ > config_.dispatchWidth)
        violation(Invariant::Width,
                  instPrefix(id) + std::to_string(steersThisCycle_) +
                  " steers in one cycle exceed dispatch width " +
                  std::to_string(config_.dispatchWidth));

    if (t.cluster >= config_.numClusters) {
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " out of range");
        return;
    }
    ClusterState &cs = clusters_[t.cluster];
    ++cs.entered;
    if (cs.entered - cs.exited > config_.windowPerCluster)
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " window holds " +
                  std::to_string(cs.entered - cs.exited) +
                  " instructions, capacity " +
                  std::to_string(config_.windowPerCluster));

    if (++inFlight_ > config_.robEntries)
        violation(Invariant::Rob,
                  instPrefix(id) + std::to_string(inFlight_) +
                  " in-flight instructions exceed ROB capacity " +
                  std::to_string(config_.robEntries));
}

void
PipelineChecker::checkOperands(const CoreView &view, InstId id,
                               bool at_commit)
{
    (void)at_commit;
    const TraceRecord &rec = trace_[id];
    const InstTiming &t = view.timingOf(id);
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        const InstId p = rec.prod[slot];
        if (p == invalidInstId)
            continue;
        const InstTiming &pt = view.timingOf(p);
        if (pt.complete == invalidCycle) {
            violation(Invariant::Bypass,
                      instPrefix(id) + "issued before producer " +
                      std::to_string(p) + " (operand " +
                      std::to_string(slot) + ") was scheduled");
            continue;
        }
        const bool cross =
            slot != srcSlotMem && pt.cluster != t.cluster;
        const Cycle avail =
            pt.complete + (cross ? config_.fwdLatency : 0);
        if (t.ready == invalidCycle || t.ready < avail ||
            t.issue < avail)
            violation(Invariant::Bypass,
                      instPrefix(id) + "ready " + cyc(t.ready) +
                      "/issue " + cyc(t.issue) +
                      " precede operand " + std::to_string(slot) +
                      " availability " + std::to_string(avail) +
                      " (producer " + std::to_string(p) +
                      " completes " + cyc(pt.complete) +
                      (cross ? ", + cross-cluster forwarding)" : ")"));
    }
}

void
PipelineChecker::onIssue(const CoreView &view, InstId id)
{
    const TraceRecord &rec = trace_[id];
    const InstTiming &t = view.timingOf(id);

    if (t.issue != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "issue stamp " + cyc(t.issue) +
                  " != issue cycle " + std::to_string(view.now()));
    if (t.ready == invalidCycle || t.issue < t.ready)
        violation(Invariant::Monotone,
                  instPrefix(id) + "issue " + cyc(t.issue) +
                  " precedes ready " + cyc(t.ready));
    if (t.ready != invalidCycle && t.dispatch != invalidCycle &&
        t.ready < t.dispatch + 1)
        violation(Invariant::Monotone,
                  instPrefix(id) + "ready " + cyc(t.ready) +
                  " precedes dispatch " + cyc(t.dispatch) + " + 1");
    if (t.complete != t.issue + rec.execLat)
        violation(Invariant::Monotone,
                  instPrefix(id) + "complete " + cyc(t.complete) +
                  " != issue " + cyc(t.issue) + " + latency " +
                  std::to_string(rec.execLat));

    checkOperands(view, id, false);

    if (t.cluster >= config_.numClusters)
        return; // already flagged at steer
    ClusterState &cs = clusters_[t.cluster];
    ++cs.exited;
    if (cs.exited > cs.entered)
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) +
                  " issued more instructions than were steered in");

    ++cs.total;
    if (isIntClass(rec.cls))
        ++cs.intU;
    else if (isFpClass(rec.cls))
        ++cs.fpU;
    else
        ++cs.memU;
    if (cs.total > config_.cluster.issueWidth)
        violation(Invariant::Width,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " issued " +
                  std::to_string(cs.total) +
                  " instructions in one cycle, width " +
                  std::to_string(config_.cluster.issueWidth));
    if (cs.intU > config_.cluster.intPorts ||
        cs.fpU > config_.cluster.fpPorts ||
        cs.memU > config_.cluster.memPorts)
        violation(Invariant::Width,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) +
                  " exceeded a port-class bound (int " +
                  std::to_string(cs.intU) + "/" +
                  std::to_string(config_.cluster.intPorts) + ", fp " +
                  std::to_string(cs.fpU) + "/" +
                  std::to_string(config_.cluster.fpPorts) + ", mem " +
                  std::to_string(cs.memU) + "/" +
                  std::to_string(config_.cluster.memPorts) + ")");
}

void
PipelineChecker::onCommit(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);

    if (id != nextCommit_)
        violation(Invariant::Order,
                  instPrefix(id) + "committed out of program order "
                  "(expected inst " + std::to_string(nextCommit_) +
                  ")");
    nextCommit_ = id + 1;

    if (t.commit != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "commit stamp " + cyc(t.commit) +
                  " != commit cycle " + std::to_string(view.now()));
    if (t.commit != invalidCycle && t.commit < lastCommit_)
        violation(Invariant::Order,
                  instPrefix(id) + "commit " + cyc(t.commit) +
                  " earlier than an older instruction's (" +
                  std::to_string(lastCommit_) + ")");
    if (t.commit != invalidCycle)
        lastCommit_ = t.commit;

    // Full monotone chain, every stamp final.
    if (t.fetch == invalidCycle || t.dispatch == invalidCycle ||
        t.ready == invalidCycle || t.issue == invalidCycle ||
        t.complete == invalidCycle || t.commit == invalidCycle)
        violation(Invariant::Monotone,
                  instPrefix(id) + "committed with an unset stage "
                  "timestamp (fetch " + cyc(t.fetch) + ", dispatch " +
                  cyc(t.dispatch) + ", ready " + cyc(t.ready) +
                  ", issue " + cyc(t.issue) + ", complete " +
                  cyc(t.complete) + ", commit " + cyc(t.commit) + ")");
    else if (!(t.fetch <= t.dispatch && t.dispatch < t.ready &&
               t.ready <= t.issue && t.issue < t.complete &&
               t.complete < t.commit))
        violation(Invariant::Monotone,
                  instPrefix(id) + "stage timestamps not monotone "
                  "(fetch " + cyc(t.fetch) + " <= dispatch " +
                  cyc(t.dispatch) + " < ready " + cyc(t.ready) +
                  " <= issue " + cyc(t.issue) + " < complete " +
                  cyc(t.complete) + " < commit " + cyc(t.commit) +
                  ")");

    if (++commitsThisCycle_ > config_.commitWidth)
        violation(Invariant::Width,
                  instPrefix(id) + std::to_string(commitsThisCycle_) +
                  " commits in one cycle exceed commit width " +
                  std::to_string(config_.commitWidth));

    if (inFlight_ == 0)
        violation(Invariant::Rob,
                  instPrefix(id) + "committed with an empty ROB");
    else
        --inFlight_;

    ++report_.checkedInstructions;
    if (statCheckedInsts_)
        ++*statCheckedInsts_;
}

void
PipelineChecker::onCycleEnd(const CoreView &view)
{
    for (ClusterId c = 0; c < config_.numClusters; ++c) {
        ClusterState &cs = clusters_[c];
        const std::uint64_t balance = cs.entered - cs.exited;
        if (balance != view.windowOccupancy(c))
            violation(Invariant::Occupancy,
                      "cycle " + std::to_string(view.now()) +
                      ": cluster " + std::to_string(c) +
                      " occupancy " +
                      std::to_string(view.windowOccupancy(c)) +
                      " disagrees with enter/exit balance " +
                      std::to_string(balance));
        cs.total = cs.intU = cs.fpU = cs.memU = 0;
    }
    steersThisCycle_ = 0;
    commitsThisCycle_ = 0;
    ++report_.checkedCycles;
    if (statCheckedCycles_)
        ++*statCheckedCycles_;
}

VerifyReport
auditTiming(const Trace &trace, const std::vector<InstTiming> &timing,
            const MachineConfig &config)
{
    VerifyReport report;
    const std::size_t n = trace.size();
    if (timing.size() != n) {
        report.record(Invariant::Order,
                      "timing has " + std::to_string(timing.size()) +
                      " records for a trace of " + std::to_string(n));
        return report;
    }

    struct PortUse
    {
        unsigned total = 0;
        unsigned intU = 0;
        unsigned fpU = 0;
        unsigned memU = 0;
    };
    std::map<std::pair<ClusterId, Cycle>, PortUse> ports;
    std::map<Cycle, unsigned> commits_per, dispatches_per;
    /** cycle -> (window enters, window exits) per cluster. */
    std::vector<std::map<Cycle, std::pair<std::uint64_t,
                                          std::uint64_t>>>
        win_events(config.numClusters);
    /** cycle -> (dispatches, commits) for the ROB walk. */
    std::map<Cycle, std::pair<std::uint64_t, std::uint64_t>>
        rob_events;

    Cycle prev_dispatch = 0;
    Cycle prev_commit = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = trace[i];
        const InstTiming &t = timing[i];
        const std::string at = instPrefix(i);

        if (t.fetch == invalidCycle || t.dispatch == invalidCycle ||
            t.ready == invalidCycle || t.issue == invalidCycle ||
            t.complete == invalidCycle || t.commit == invalidCycle) {
            report.record(Invariant::Monotone,
                          at + "unset stage timestamp (fetch " +
                          cyc(t.fetch) + ", dispatch " +
                          cyc(t.dispatch) + ", ready " + cyc(t.ready) +
                          ", issue " + cyc(t.issue) + ", complete " +
                          cyc(t.complete) + ", commit " +
                          cyc(t.commit) + ")");
            continue;
        }
        if (t.cluster >= config.numClusters) {
            report.record(Invariant::Occupancy,
                          at + "cluster " + std::to_string(t.cluster) +
                          " out of range");
            continue;
        }

        if (t.dispatch < t.fetch + config.frontendDepth)
            report.record(Invariant::Monotone,
                          at + "dispatch " + cyc(t.dispatch) +
                          " precedes fetch " + cyc(t.fetch) +
                          " + frontend depth " +
                          std::to_string(config.frontendDepth));
        if (t.ready < t.dispatch + 1)
            report.record(Invariant::Monotone,
                          at + "ready " + cyc(t.ready) +
                          " precedes dispatch " + cyc(t.dispatch) +
                          " + 1");
        if (t.issue < t.ready)
            report.record(Invariant::Monotone,
                          at + "issue " + cyc(t.issue) +
                          " precedes ready " + cyc(t.ready));
        if (t.complete != t.issue + rec.execLat)
            report.record(Invariant::Monotone,
                          at + "complete " + cyc(t.complete) +
                          " != issue " + cyc(t.issue) + " + latency " +
                          std::to_string(rec.execLat));
        if (t.commit <= t.complete)
            report.record(Invariant::Monotone,
                          at + "commit " + cyc(t.commit) +
                          " does not follow complete " +
                          cyc(t.complete));

        if (t.dispatch < prev_dispatch)
            report.record(Invariant::Order,
                          at + "dispatch " + cyc(t.dispatch) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_dispatch) + ")");
        prev_dispatch = t.dispatch;
        if (t.commit < prev_commit)
            report.record(Invariant::Order,
                          at + "commit " + cyc(t.commit) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_commit) + ")");
        prev_commit = t.commit;

        ++dispatches_per[t.dispatch];
        ++commits_per[t.commit];

        PortUse &u = ports[{t.cluster, t.issue}];
        ++u.total;
        if (isIntClass(rec.cls))
            ++u.intU;
        else if (isFpClass(rec.cls))
            ++u.fpU;
        else
            ++u.memU;

        auto &we = win_events[t.cluster];
        ++we[t.dispatch].first;
        ++we[t.issue].second;
        ++rob_events[t.dispatch].first;
        ++rob_events[t.commit].second;

        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = rec.prod[slot];
            if (p == invalidInstId)
                continue;
            const InstTiming &pt = timing[p];
            if (pt.complete == invalidCycle)
                continue; // producer already flagged
            const bool cross =
                slot != srcSlotMem && pt.cluster != t.cluster;
            const Cycle avail =
                pt.complete + (cross ? config.fwdLatency : 0);
            if (t.ready < avail || t.issue < avail)
                report.record(Invariant::Bypass,
                              at + "ready " + cyc(t.ready) +
                              "/issue " + cyc(t.issue) +
                              " precede operand " +
                              std::to_string(slot) +
                              " availability " + std::to_string(avail) +
                              " (producer " + std::to_string(p) +
                              " completes " + cyc(pt.complete) +
                              (cross ? ", + cross-cluster forwarding)"
                                     : ")"));
        }
        ++report.checkedInstructions;
    }

    for (const auto &[key, u] : ports) {
        const std::string at = "cluster " +
            std::to_string(key.first) + " cycle " +
            std::to_string(key.second) + ": ";
        if (u.total > config.cluster.issueWidth)
            report.record(Invariant::Width,
                          at + std::to_string(u.total) +
                          " issues exceed width " +
                          std::to_string(config.cluster.issueWidth));
        if (u.intU > config.cluster.intPorts ||
            u.fpU > config.cluster.fpPorts ||
            u.memU > config.cluster.memPorts)
            report.record(Invariant::Width,
                          at + "port-class bound exceeded (int " +
                          std::to_string(u.intU) + "/" +
                          std::to_string(config.cluster.intPorts) +
                          ", fp " + std::to_string(u.fpU) + "/" +
                          std::to_string(config.cluster.fpPorts) +
                          ", mem " + std::to_string(u.memU) + "/" +
                          std::to_string(config.cluster.memPorts) +
                          ")");
    }
    for (const auto &[cycle, cnt] : commits_per)
        if (cnt > config.commitWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(cnt) +
                          " commits exceed commit width " +
                          std::to_string(config.commitWidth));
    for (const auto &[cycle, cnt] : dispatches_per)
        if (cnt > config.dispatchWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(cnt) +
                          " dispatches exceed dispatch width " +
                          std::to_string(config.dispatchWidth));

    // Window occupancy walk. Within a cycle the machine issues
    // (window exits) before it steers (window enters), so exits apply
    // first at equal cycles.
    for (ClusterId c = 0; c < config.numClusters; ++c) {
        std::int64_t occ = 0;
        for (const auto &[cycle, ev] : win_events[c]) {
            occ -= static_cast<std::int64_t>(ev.second);
            if (occ < 0) {
                report.record(Invariant::Occupancy,
                              "cluster " + std::to_string(c) +
                              " cycle " + std::to_string(cycle) +
                              ": more window exits than entries");
                occ = 0;
            }
            occ += static_cast<std::int64_t>(ev.first);
            if (occ > static_cast<std::int64_t>(
                          config.windowPerCluster))
                report.record(Invariant::Occupancy,
                              "cluster " + std::to_string(c) +
                              " cycle " + std::to_string(cycle) +
                              ": window holds " + std::to_string(occ) +
                              " instructions, capacity " +
                              std::to_string(config.windowPerCluster));
        }
    }

    // ROB walk. Commit frees its entry before the same cycle's steer
    // stage runs, so commits apply first at equal cycles.
    std::int64_t in_flight = 0;
    for (const auto &[cycle, ev] : rob_events) {
        in_flight -= static_cast<std::int64_t>(ev.second);
        if (in_flight < 0) {
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) +
                          ": more commits than dispatches");
            in_flight = 0;
        }
        in_flight += static_cast<std::int64_t>(ev.first);
        if (in_flight > static_cast<std::int64_t>(config.robEntries))
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(in_flight) +
                          " in-flight instructions exceed ROB "
                          "capacity " +
                          std::to_string(config.robEntries));
    }

    return report;
}

} // namespace csim
