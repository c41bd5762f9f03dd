#include "obs/pipe_trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace csim {

namespace {

/** Emit the O3PipeView record of one retired instruction. */
void
writeRecord(std::ostream &out, InstId id, const TraceRecord &rec,
            const InstTiming &timing)
{
    // A retired instruction must have a complete, ordered lifecycle;
    // anything else is a core bug the tracer refuses to paper over.
    CSIM_ASSERT(timing.fetch != invalidCycle);
    CSIM_ASSERT(timing.fetch <= timing.dispatch);
    CSIM_ASSERT(timing.dispatch <= timing.issue);
    CSIM_ASSERT(timing.issue <= timing.complete);
    CSIM_ASSERT(timing.complete < timing.commit);

    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "O3PipeView:fetch:%" PRIu64 ":0x%08" PRIx64 ":0:%" PRIu64
        ":%s c%u crit=%d loc=%u\n"
        "O3PipeView:decode:%" PRIu64 "\n"
        "O3PipeView:rename:%" PRIu64 "\n"
        "O3PipeView:dispatch:%" PRIu64 "\n"
        "O3PipeView:issue:%" PRIu64 "\n"
        "O3PipeView:complete:%" PRIu64 "\n"
        "O3PipeView:retire:%" PRIu64 ":store:0\n",
        timing.fetch, rec.pc, id,
        std::string(opName(rec.op)).c_str(),
        static_cast<unsigned>(timing.cluster),
        timing.predictedCritical ? 1 : 0,
        static_cast<unsigned>(timing.locLevel),
        timing.dispatch, timing.dispatch, timing.dispatch,
        timing.issue, timing.complete, timing.commit);
    out << buf;
}

} // anonymous namespace

void
writePipeTrace(std::ostream &out, const Trace &trace,
               const std::vector<InstTiming> &timing,
               PipeTraceOptions options)
{
    CSIM_ASSERT(options.startInst <= options.endInst);
    CSIM_ASSERT(options.startCycle <= options.endCycle);
    CSIM_ASSERT(timing.size() >= trace.size());
    const std::uint64_t end = std::min<std::uint64_t>(
        options.endInst, trace.size());
    for (InstId id = options.startInst; id < end; ++id) {
        const InstTiming &t = timing[id];
        if (t.fetch < options.startCycle || t.fetch >= options.endCycle)
            continue;
        writeRecord(out, id, trace[id], t);
    }
}

} // namespace csim
