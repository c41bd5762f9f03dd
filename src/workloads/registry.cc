#include "workloads/registry.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "frontend/gshare.hh"
#include "obs/host_prof.hh"
#include "trace/trace_store.hh"

namespace csim {

namespace {

struct Entry
{
    const char *name;
    WorkloadPreparer preparer;
};

constexpr Entry entries[] = {
    {"bzip2", prepareBzip2},
    {"crafty", prepareCrafty},
    {"eon", prepareEon},
    {"gap", prepareGap},
    {"gcc", prepareGcc},
    {"gzip", prepareGzip},
    {"mcf", prepareMcf},
    {"parser", prepareParser},
    {"perl", preparePerl},
    {"twolf", prepareTwolf},
    {"vortex", prepareVortex},
    {"vpr", prepareVpr},
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : entries)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

WorkloadPreparer
workloadPreparer(const std::string &name)
{
    for (const Entry &e : entries)
        if (name == e.name)
            return e.preparer;
    CSIM_FATAL("unknown workload name");
}

Trace
buildWorkloadTrace(const std::string &name, const WorkloadConfig &cfg)
{
    return workloadPreparer(name)(cfg).emulator->run(
        cfg.targetInstructions);
}

namespace {

/**
 * The one trace-build loop: emulate a chunk, link its producers,
 * annotate branches (gshare) and loads (L1), hand it to `sink`. Each
 * pass's state lives across chunks, so the rows do not depend on the
 * chunk size. Returns the instructions the sink accepted; stops early
 * when the sink returns false.
 */
template <typename Sink>
std::uint64_t
buildChunks(const std::string &name, const WorkloadConfig &cfg,
            std::uint64_t chunkInstructions, Sink &&sink)
{
    CSIM_ASSERT(chunkInstructions > 0);
    PreparedWorkload w = workloadPreparer(name)(cfg);
    StreamingProducerLinker linker;
    GsharePredictor pred;
    Cache l1;

    std::uint64_t built = 0;
    while (built < cfg.targetInstructions && !w.emulator->done()) {
        const std::uint64_t want =
            std::min(chunkInstructions, cfg.targetInstructions - built);
        Trace chunk;
        chunk.reserve(want);
        {
            HOST_PROF_SCOPE("trace.emulate");
            if (w.emulator->runChunk(chunk, want) == 0)
                break;
        }
        {
            HOST_PROF_SCOPE("trace.linkProducers");
            linker.link(chunk, built);
        }
        {
            HOST_PROF_SCOPE("trace.annotateBranches");
            annotateBranches(chunk, pred);
        }
        {
            HOST_PROF_SCOPE("trace.annotateMemory");
            annotateMemory(chunk, l1);
        }
        if (!sink(chunk))
            break;
        built += chunk.size();
    }
    return built;
}

} // anonymous namespace

Trace
buildAnnotatedTrace(const std::string &name, const WorkloadConfig &cfg)
{
    HOST_PROF_SCOPE("trace.build");
    Trace trace;
    trace.reserve(cfg.targetInstructions);
    buildChunks(name, cfg, traceChunkInstructions,
                [&](const Trace &chunk) {
                    trace.appendRows(chunk.soa(), 0, chunk.size());
                    return true;
                });
    HOST_PROF_INSTRUCTIONS(trace.size());
    return trace;
}

TraceStoreBuildResult
buildTraceStoreFile(const std::string &name, const WorkloadConfig &cfg,
                    const std::string &path,
                    std::uint64_t chunkInstructions)
{
    HOST_PROF_SCOPE("trace.buildStore");
    TraceStoreWriter writer(path, cfg.targetInstructions);
    TraceStoreBuildResult res;
    // A failed append leaves the writer failed, so finalize() fails.
    res.instructions = buildChunks(
        name, cfg, chunkInstructions,
        [&](const Trace &chunk) { return writer.append(chunk); });
    if (!writer.finalize())
        return res;
    HOST_PROF_INSTRUCTIONS(res.instructions);
    res.ok = true;
    return res;
}

} // namespace csim
