#include "mem/latency_annotator.hh"

#include "common/logging.hh"

namespace csim {

MemAnnotateResult
annotateMemory(Trace &trace)
{
    Cache l1;
    return annotateMemory(trace, l1);
}

MemAnnotateResult
annotateMemory(Trace &trace, Cache &l1)
{
    MemAnnotateResult res;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord rec = trace[i];
        if (rec.isLoad()) {
            bool hit = l1.access(rec.memAddr);
            trace.setL1Miss(i, !hit);
            const unsigned lat = l1LoadToUse + (hit ? 0 : l2MissLatency);
            static_assert(l1LoadToUse + l2MissLatency <= 255);
            trace.setExecLat(i, static_cast<std::uint8_t>(lat));
            if (!hit)
                ++res.loadMisses;
        } else if (rec.isStore()) {
            l1.access(rec.memAddr);
        }
    }

    res.l1 = l1.stats();
    return res;
}

} // namespace csim
