/**
 * @file
 * Trace store v2 (`.trc2`): the columnar, mmap-able binary trace
 * format, and the only on-disk trace format.
 *
 * The store writes the *columns* themselves: the on-disk layout after
 * the header is exactly a Trace's twelve columns (five 8-byte columns,
 * then seven byte columns, each 8-byte aligned), so loading is one
 * mmap + header validation and the mapping itself backs a zero-copy
 * TraceSoA. Pages are faulted in only as the timing
 * core touches them, which is what lets region-sampled runs over a
 * multi-hundred-MB store stay within a small resident set.
 *
 * Writing is streaming-friendly: TraceStoreWriter preallocates the
 * column layout for a declared capacity and pwrite()s each appended
 * chunk's column slices at their final offsets, so build-side memory
 * is O(chunk). finalize() stamps the real instruction count (and the
 * producer-link total the timing core needs to size its waiter pool)
 * into the header.
 *
 * All multi-byte fields are little-endian; the header carries an
 * endianness tag and loads reject foreign byte order with
 * TraceIoStatus::BadEndianness instead of misinterpreting.
 */

#ifndef CSIM_TRACE_TRACE_STORE_HH
#define CSIM_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <string>

#include "trace/trace_soa.hh"

namespace csim {

/** Result of a load attempt. */
enum class TraceIoStatus
{
    Ok,
    CannotOpen,
    BadMagic,
    /** A "csimtrc" file of another format version (e.g. the retired
     *  v1 AoS format, magic "csimtrc\0"), or a v2 header carrying a
     *  flag bit this build does not define. */
    BadVersion,
    Truncated,
    /** File (or host) byte order does not match little-endian. */
    BadEndianness,
};

const char *traceIoStatusName(TraceIoStatus s);

/** Metadata of a loaded store (for stats and diagnostics). */
struct TraceStoreInfo
{
    std::uint64_t instructions = 0;
    /** Also the bytes kept mmap-ed for the view's lifetime. */
    std::uint64_t fileBytes = 0;
};

/**
 * Incremental v2 writer: declare a capacity, append trace chunks, then
 * finalize. Columns live at capacity-sized fixed offsets, so chunks
 * land at their final position without buffering the whole trace.
 * The file is invalid until finalize() returns true.
 */
class TraceStoreWriter
{
  public:
    TraceStoreWriter(const std::string &path,
                     std::uint64_t capacityInstructions);
    ~TraceStoreWriter();

    TraceStoreWriter(const TraceStoreWriter &) = delete;
    TraceStoreWriter &operator=(const TraceStoreWriter &) = delete;

    /** False after any I/O error (subsequent calls are no-ops). */
    bool ok() const { return fd_ >= 0 && !failed_; }

    /**
     * Append one chunk's records as column slices. Producer links must
     * already be global (relative to the whole stored trace, not the
     * chunk). Returns false on I/O error or capacity overflow.
     */
    bool append(const Trace &chunk);

    /** Stamp the header with the real count and close. */
    bool finalize();

    std::uint64_t written() const { return written_; }

  private:
    int fd_ = -1;
    bool failed_ = false;
    bool finalized_ = false;
    std::string path_;
    std::uint64_t capacity_ = 0;
    std::uint64_t written_ = 0;
    std::uint64_t producerLinks_ = 0;
};

/**
 * Write a whole in-memory trace as one v2 store: a TraceStoreWriter
 * sized to the trace, one append, finalize.
 * @return true on success.
 */
bool saveTraceStore(const Trace &trace, const std::string &path);

/**
 * Load (mmap + validate) a v2 store as a zero-copy column view: the
 * returned TraceSoA's columns point into the mapping, which stays
 * alive as long as the view (or anything holding its keepalive) does.
 * A header carrying any flag bit is a format this build cannot read
 * (BadVersion). @param[out] soa Replaced on success; untouched
 * otherwise.
 */
TraceIoStatus loadTraceStore(TraceSoA &soa, const std::string &path,
                             TraceStoreInfo *info = nullptr);

/**
 * Copy rows [base, base+len) of a column view into a standalone
 * trace, column slice by column slice, remapping producer links into region-local indices
 * (links reaching before the region become invalidInstId — the
 * operand was ready at dispatch, exactly the semantics of a link
 * reaching before a trace window). Only the touched rows' pages of an
 * mmap-backed view are faulted in. The result is wellFormed() only if
 * the view's rows are: loadTraceStore does not check row contents, so
 * a tampered store yields forward or out-of-range links here. Callers
 * must check wellFormed() before handing the result to TimingSim.
 */
Trace extractRegion(const TraceSoA &soa, std::uint64_t base,
                    std::uint64_t len);

} // namespace csim

#endif // CSIM_TRACE_TRACE_STORE_HH
