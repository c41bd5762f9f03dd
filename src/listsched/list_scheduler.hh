/**
 * @file
 * The idealized list scheduler of paper Sec. 2.2.
 *
 * Performs steering and instruction scheduling in a single pass with a
 * global (monolithic) view of all in-flight instructions and exact
 * future knowledge within each region: instructions are prioritised by
 * the dataflow height emanating from them, with precedence for the
 * backward slice of the region-terminating mispredicted branch, and
 * placed so consumers collocate with producers when profitable. The
 * schedule honours the real machine's constraints: per-cluster issue
 * width and int/fp/mem ports, the inter-cluster forwarding latency,
 * the front-end dispatch times observed on the 1x8w machine, and the
 * branch-misprediction redirect latency between regions.
 *
 * Priority variants implement the Sec. 4 study: exact dataflow height
 * (the oracle), LoC (average past criticality) and binary criticality.
 */

#ifndef CSIM_LISTSCHED_LIST_SCHEDULER_HH
#define CSIM_LISTSCHED_LIST_SCHEDULER_HH

#include <cstdint>

#include "core/machine_config.hh"
#include "core/timing.hh"
#include "listsched/region.hh"
#include "predict/criticality_predictor.hh"
#include "predict/loc_predictor.hh"
#include "trace/trace.hh"

namespace csim {

struct ListSchedOptions
{
    enum class Priority
    {
        DataflowHeight,   ///< oracle: exact height + mispredict slice
        Loc,              ///< likelihood of criticality (Sec. 4)
        BinaryCritical,   ///< Fields-style binary criticality (Sec. 4)
    };

    Priority priority = Priority::DataflowHeight;
    /** Required for Priority::Loc. */
    const LocPredictor *locPred = nullptr;
    /** Required for Priority::BinaryCritical. */
    const CriticalityPredictor *critPred = nullptr;
};

struct ListSchedResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t regions = 0;
    /** Values delivered across clusters (for the traffic stat). */
    std::uint64_t globalValues = 0;

    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
            static_cast<double>(instructions) : 0.0;
    }
};

/**
 * List-schedule the trace onto the given machine.
 *
 * @param trace Annotated, producer-linked trace.
 * @param ref_timing Per-instruction timing of a reference 1x8w run
 *        (supplies the dispatch/fetch constraints).
 * @param config Target machine geometry; its robEntries bound the
 *        scheduling scope (the longest region).
 */
ListSchedResult listSchedule(const Trace &trace,
                             const std::vector<InstTiming> &ref_timing,
                             const MachineConfig &config,
                             const ListSchedOptions &options =
                                 ListSchedOptions{});

} // namespace csim

#endif // CSIM_LISTSCHED_LIST_SCHEDULER_HH
