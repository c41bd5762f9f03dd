/**
 * @file
 * Workload registry: name -> preparer, plus the standard preparation
 * pipeline (producer linking, branch annotation, cache annotation)
 * every consumer of a trace needs.
 */

#ifndef CSIM_WORKLOADS_REGISTRY_HH
#define CSIM_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

#include "frontend/branch_annotator.hh"
#include "mem/latency_annotator.hh"
#include "workloads/workload.hh"

namespace csim {

/** The 12 SPECint 2000 proxies, in the paper's plotting order. */
const std::vector<std::string> &workloadNames();

/** Paused-at-entry preparer for a named workload (streaming builds);
 *  fatals on an unknown name. */
WorkloadPreparer workloadPreparer(const std::string &name);

/** Build the raw (unannotated) trace for a named workload. */
Trace buildWorkloadTrace(const std::string &name,
                         const WorkloadConfig &cfg);

/**
 * Build a simulation-ready trace: emulate, link producers, annotate
 * branch mispredictions (gshare) and load latencies (L1 model). Runs
 * the same chunk loop as buildTraceStoreFile with an in-memory sink.
 */
Trace buildAnnotatedTrace(const std::string &name,
                          const WorkloadConfig &cfg);

/** Instructions per chunk of the trace-build loop. */
inline constexpr std::uint64_t traceChunkInstructions = 1u << 16;

/** Outcome of a streaming store build. */
struct TraceStoreBuildResult
{
    bool ok = false;
    /** Dynamic instructions written (may stop short at Halt). */
    std::uint64_t instructions = 0;
};

/**
 * Stream-build the annotated trace for a named workload directly into
 * a v2 trace store file: emulate, link producers and annotate in
 * bounded chunks, appending each chunk's columns to the store — peak
 * host memory is O(chunkInstructions), not O(targetInstructions).
 * Every pass (linking, gshare, L1) carries its state across chunks,
 * and buildAnnotatedTrace runs the same loop, so the stored trace is
 * the trace buildAnnotatedTrace returns for the same arguments.
 */
TraceStoreBuildResult
buildTraceStoreFile(const std::string &name, const WorkloadConfig &cfg,
                    const std::string &path,
                    std::uint64_t chunkInstructions =
                        traceChunkInstructions);

} // namespace csim

#endif // CSIM_WORKLOADS_REGISTRY_HH
