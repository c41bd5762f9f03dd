/**
 * @file
 * Per-instruction pipeline event tracing in gem5's O3PipeView text
 * format, which Konata and the gem5 o3-pipeview script can render.
 *
 * Each traced instruction emits one record:
 *
 *   O3PipeView:fetch:<cycle>:0x<pc>:0:<seq>:<disasm> [annotations]
 *   O3PipeView:decode:<cycle>
 *   O3PipeView:rename:<cycle>
 *   O3PipeView:dispatch:<cycle>
 *   O3PipeView:issue:<cycle>
 *   O3PipeView:complete:<cycle>
 *   O3PipeView:retire:<cycle>:store:0
 *
 * decode/rename are folded onto the steer (dispatch) cycle: the model
 * has no distinct decode/rename stages, and viewers require the full
 * stage set. The disasm field carries the cluster assignment and the
 * criticality snapshot ("c2 crit=1 loc=13"), which is exactly the
 * microscope needed to debug steering-policy losses instruction by
 * instruction. A [startInst, endInst) window keeps full-program traces
 * cheap to sample; an additional [startCycle, endCycle) window gates
 * on the fetch timestamp, so a pipeline trace can be cut to the same
 * cycle region as an interval-profiler record.
 */

#ifndef CSIM_OBS_PIPE_TRACE_HH
#define CSIM_OBS_PIPE_TRACE_HH

#include <cstdint>
#include <limits>
#include <ostream>

#include "core/timing.hh"
#include "trace/trace.hh"

namespace csim {

struct PipeTraceOptions
{
    /** First dynamic instruction traced. */
    std::uint64_t startInst = 0;
    /** One past the last dynamic instruction traced. */
    std::uint64_t endInst = std::numeric_limits<std::uint64_t>::max();
    /** First fetch cycle traced (both windows must admit a record). */
    Cycle startCycle = 0;
    /** One past the last fetch cycle traced. */
    Cycle endCycle = std::numeric_limits<Cycle>::max();
};

/**
 * Trace a finished run from its timing records: one record per
 * instruction inside both windows, in program order.
 */
void writePipeTrace(std::ostream &out, const Trace &trace,
                    const std::vector<InstTiming> &timing,
                    PipeTraceOptions options = PipeTraceOptions{});

} // namespace csim

#endif // CSIM_OBS_PIPE_TRACE_HH
