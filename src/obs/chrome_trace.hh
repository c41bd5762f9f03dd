/**
 * @file
 * Chrome trace-event export of interval-profiler series.
 *
 * Writes the JSON object format understood by chrome://tracing and
 * Perfetto: one process per profiled run (cell), one thread track per
 * cluster carrying a complete ("X") event per interval whose duration
 * is the interval's cycle span and whose args hold issue/occupancy
 * utilization, plus counter ("C") tracks for the CPI-stack components
 * and the predictor telemetry. Cycles are mapped 1:1 onto trace
 * microseconds, so the timeline ruler reads directly in cycles.
 *
 * Strings go through the shared jsonQuote() (obs/json_writer.hh); the
 * event layout is the emitter's own: one event per line and
 * utilization args as %.3f.
 */

#ifndef CSIM_OBS_CHROME_TRACE_HH
#define CSIM_OBS_CHROME_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/interval_profiler.hh"

namespace csim {

/**
 * One policy decision as a timeline lane point: a phase slice with the
 * knob values in force, plus transition/revert instants. Nothing in
 * the simulator produces lanes any more (the closed-loop adaptive
 * manager that did is gone); the renderer stays because the benchmark
 * drivers under perfbench/ aggregate-initialise ChromeTraceRun with
 * all three members.
 */
struct AdaptiveLanePoint
{
    /** First cycle of the interval the decision closed. */
    Cycle startCycle = 0;
    std::uint64_t cycles = 0;
    /** Phase-class name ("smooth", "memory", ...). */
    std::string phase;
    double stallThreshold = 0.0;
    std::uint64_t locLowCutoff = 0;
    /** Proactive pressure gate as a fraction of window capacity. */
    double pressure = 0.0;
    bool transitioned = false;
    bool reverted = false;
};

/** One run's series plus its display label ("gcc/4x2w/focused"). */
struct ChromeTraceRun
{
    std::string label;
    IntervalSeries series;
    /** Decision lane; empty for every run the simulator makes. */
    std::vector<AdaptiveLanePoint> adaptive;
};

/**
 * Write all runs into one trace: each run becomes a process (pid =
 * index + 1) named by its label. Emission is fully deterministic —
 * iteration order is the caller's run order, so byte-identical inputs
 * yield byte-identical traces.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<ChromeTraceRun> &runs);

/** Convenience wrapper: open `path` and write; panics on I/O failure. */
void writeChromeTraceFile(const std::string &path,
                          const std::vector<ChromeTraceRun> &runs);

} // namespace csim

#endif // CSIM_OBS_CHROME_TRACE_HH
