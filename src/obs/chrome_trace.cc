#include "obs/chrome_trace.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/logging.hh"

namespace csim {
namespace {

/** Minimal JSON string escape (labels are machine/policy names, but a
 *  trace path or workload label could in principle carry anything). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/** Fixed-point with 3 decimals, locale-independent. */
std::string
fixed3(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

class EventList
{
  public:
    explicit EventList(std::ostream &os) : os_(os) { os_ << "["; }

    /** Begin one event object; the caller appends fields via raw(). */
    std::ostream &
    next()
    {
        if (!first_)
            os_ << ",";
        first_ = false;
        os_ << "\n{";
        return os_;
    }

    void endEvent() { os_ << "}"; }

    void finish() { os_ << "\n]"; }

  private:
    std::ostream &os_;
    bool first_ = true;
};

/**
 * A merged lane is the concatenation of several runs' decision
 * streams, each restarting at cycle 0. Sub-lane count = number of
 * those restarts, so every run's timeline gets its own
 * non-overlapping track.
 */
std::size_t
adaptiveSubLanes(const ChromeTraceRun &run)
{
    std::size_t lanes = 0;
    bool first = true;
    Cycle prev = 0;
    for (const AdaptiveLanePoint &p : run.adaptive) {
        if (first || p.startCycle <= prev)
            ++lanes;
        first = false;
        prev = p.startCycle;
    }
    return lanes;
}

void
emitMetadata(EventList &ev, unsigned pid, const ChromeTraceRun &run)
{
    ev.next() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
              << ",\"tid\":0,\"args\":{\"name\":\""
              << jsonEscape(run.label) << "\"}";
    ev.endEvent();
    const std::size_t clusters = run.series.records.empty() ?
        0 : run.series.records.front().clusters.size();
    for (std::size_t c = 0; c < clusters; ++c) {
        ev.next() << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                  << pid << ",\"tid\":" << c + 1
                  << ",\"args\":{\"name\":\"cluster" << c << "\"}";
        ev.endEvent();
    }
    const std::size_t lanes = adaptiveSubLanes(run);
    for (std::size_t l = 0; l < lanes; ++l) {
        std::ostream &os = ev.next();
        os << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << clusters + 1 + l
           << ",\"args\":{\"name\":\"adaptive";
        if (l)
            os << " run" << l + 1;
        os << "\"}";
        ev.endEvent();
    }
}

/**
 * Adaptive decision lane: one "X" slice per decision interval named by
 * the phase class (so the lane reads as a phase timeline), a "C"
 * counter track for the knob trajectories, and "i" instants marking
 * transitions and reverts. Rides on its own tracks after the cluster
 * lanes — one track per merged seed run (a merged cell's lane is the
 * seed runs' concatenated decision streams, each restarting at cycle
 * 0; a startCycle reset starts the next track). The knob counter
 * follows the first run only, so its trajectory stays monotonic in
 * time.
 */
void
emitAdaptiveLane(EventList &ev, unsigned pid, const ChromeTraceRun &run)
{
    if (run.adaptive.empty())
        return;
    const std::size_t clusters = run.series.records.empty() ?
        0 : run.series.records.front().clusters.size();
    std::uint64_t tid = clusters;
    bool first = true;
    Cycle prev_start = 0;
    for (const AdaptiveLanePoint &p : run.adaptive) {
        if (first || p.startCycle <= prev_start)
            ++tid;
        first = false;
        prev_start = p.startCycle;
        if (p.cycles == 0)
            continue;
        ev.next() << "\"name\":\"" << jsonEscape(p.phase)
                  << "\",\"ph\":\"X\",\"pid\":" << pid
                  << ",\"tid\":" << tid
                  << ",\"ts\":" << p.startCycle
                  << ",\"dur\":" << p.cycles
                  << ",\"args\":{\"stallThreshold\":"
                  << fixed3(p.stallThreshold)
                  << ",\"locLowCutoff\":" << p.locLowCutoff
                  << ",\"pressure\":" << fixed3(p.pressure) << "}";
        ev.endEvent();
        if (tid == clusters + 1) {
            ev.next() << "\"name\":\"adaptiveKnobs\",\"ph\":\"C\","
                      << "\"pid\":" << pid
                      << ",\"tid\":0,\"ts\":" << p.startCycle
                      << ",\"args\":{\"stallThreshold\":"
                      << fixed3(p.stallThreshold)
                      << ",\"locLowCutoff\":" << p.locLowCutoff
                      << ",\"pressure\":" << fixed3(p.pressure) << "}";
            ev.endEvent();
        }
        if (p.transitioned || p.reverted) {
            ev.next() << "\"name\":\""
                      << (p.reverted ? "revert" : "transition")
                      << "\",\"ph\":\"i\",\"pid\":" << pid
                      << ",\"tid\":" << tid
                      << ",\"ts\":" << p.startCycle + p.cycles
                      << ",\"s\":\"t\",\"args\":{\"phase\":\""
                      << jsonEscape(p.phase) << "\"}";
            ev.endEvent();
        }
    }
}

void
emitClusterSlices(EventList &ev, unsigned pid, const ChromeTraceRun &run)
{
    const IntervalSeries &series = run.series;
    const std::uint64_t runs_merged =
        series.mergeCount ? series.mergeCount : 1;
    for (const IntervalRecord &rec : series.records) {
        if (rec.cycles == 0)
            continue;
        // Merged records carry cycles summed over mergeCount runs;
        // render the per-run mean so the slice stays inside its
        // nominal interval window (ceil keeps short tails visible).
        const std::uint64_t dur =
            (rec.cycles + runs_merged - 1) / runs_merged;
        for (std::size_t c = 0; c < rec.clusters.size(); ++c) {
            const IntervalClusterLane &lane = rec.clusters[c];
            const double cycles = static_cast<double>(rec.cycles);
            const double util = series.clusterIssueWidth ?
                static_cast<double>(lane.issued) /
                (cycles * series.clusterIssueWidth) : 0.0;
            const double occ = series.windowPerCluster ?
                static_cast<double>(lane.occupancySum) /
                (cycles * series.windowPerCluster) : 0.0;
            ev.next() << "\"name\":\"interval\",\"ph\":\"X\",\"pid\":"
                      << pid << ",\"tid\":" << c + 1
                      << ",\"ts\":" << rec.startCycle
                      << ",\"dur\":" << dur
                      << ",\"args\":{\"issued\":" << lane.issued
                      << ",\"steered\":" << lane.steered
                      << ",\"issueUtil\":" << fixed3(util)
                      << ",\"windowOcc\":" << fixed3(occ) << "}";
            ev.endEvent();
        }
    }
}

void
emitCounters(EventList &ev, unsigned pid, const ChromeTraceRun &run)
{
    for (const IntervalRecord &rec : run.series.records) {
        if (rec.cycles == 0)
            continue;
        // CPI-stack counter track: per-component share of the
        // interval's cycles, stacked by the viewer.
        auto &os = ev.next();
        os << "\"name\":\"cpiStack\",\"ph\":\"C\",\"pid\":" << pid
           << ",\"tid\":0,\"ts\":" << rec.startCycle << ",\"args\":{";
        for (std::size_t i = 0; i < numCpiComponents; ++i) {
            if (i)
                os << ",";
            os << "\"" << cpiComponentName(static_cast<CpiComponent>(i))
               << "\":" << rec.components[i];
        }
        os << "}";
        ev.endEvent();
        const double steers = static_cast<double>(rec.steers);
        ev.next() << "\"name\":\"predictor\",\"ph\":\"C\",\"pid\":"
                  << pid << ",\"tid\":0,\"ts\":" << rec.startCycle
                  << ",\"args\":{\"predictedCriticalFrac\":"
                  << fixed3(steers ? rec.predictedCriticalSteers / steers
                                   : 0.0)
                  << ",\"locLevelAvg\":"
                  << fixed3(steers ? rec.locLevelSum / steers : 0.0)
                  << ",\"deniedIssue\":" << rec.deniedIssue
                  << ",\"deniedCritical\":" << rec.deniedCritical << "}";
        ev.endEvent();
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<ChromeTraceRun> &runs)
{
    os << "{\n\"displayTimeUnit\":\"ms\",\n\"traceEvents\":";
    EventList ev(os);
    unsigned pid = 1;
    for (const ChromeTraceRun &run : runs) {
        emitMetadata(ev, pid, run);
        emitClusterSlices(ev, pid, run);
        emitCounters(ev, pid, run);
        emitAdaptiveLane(ev, pid, run);
        ++pid;
    }
    ev.finish();
    os << "\n}\n";
}

void
writeChromeTraceFile(const std::string &path,
                     const std::vector<ChromeTraceRun> &runs)
{
    std::ofstream os(path);
    if (!os)
        CSIM_PANIC("writeChromeTraceFile: cannot open output file");
    writeChromeTrace(os, runs);
    os.flush();
    if (!os)
        CSIM_PANIC("writeChromeTraceFile: write failed");
}

} // namespace csim
