/**
 * @file
 * Structured live-run telemetry: an NDJSON event ledger with periodic
 * wall-clock heartbeats and a provenance manifest.
 *
 * A RunLedger streams one JSON object per line to a file while a bench
 * runs (`--ledger-out`), so a multi-minute sweep is observable *while*
 * it runs (tools/sweep_monitor.py tails the file) and leaves a replay-
 * able record when it dies (every event is also copied into the crash
 * flight recorder's ring).
 *
 * Event lines have a fixed envelope:
 *
 *   {"ledger":1,"seq":N,"kind":"<kind>","wall":{...},"payload":{...}}
 *
 * and a hard determinism contract: everything under "payload" is a
 * pure function of the declared experiment — byte-identical across
 * sweep worker-thread counts — while everything nondeterministic
 * (timestamps, RSS, host MIPS, ETA, thread counts, the file order of
 * concurrently emitted events) lives under "wall" or in wall-only
 * events. This is the same deterministic-vs-wall-clock split the JSON
 * report's "host" blocks use (docs/SCHEMA.md). Two designated
 * exceptions inside the head event's provenance payload — "cmdline"
 * and "env" — describe the invocation itself and differ between a
 * --threads 1 and a --threads 4 run by construction;
 * tools/check_ledger.py strips exactly those before its cross-thread
 * diff.
 *
 * Kinds: "head" (provenance manifest), "sweepBegin", "jobBegin",
 * "jobEnd" (one (cell, seed) unit), "cellEnd" (merged cell, emitted in
 * deterministic merge order), "sweepEnd", "traces" (content hashes of
 * every annotated trace built), "benchEnd", and the wall-only
 * "heartbeat" emitted by a sampler thread.
 */

#ifndef CSIM_OBS_RUN_LEDGER_HH
#define CSIM_OBS_RUN_LEDGER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stats_registry.hh"

namespace csim {

class JsonWriter;

/** The ledger's own NDJSON schema version (head payload). */
inline constexpr int ledgerSchemaVersion = 1;

/**
 * Where this run came from: enough to reproduce the report from its
 * header alone. Deterministic fields (gitSha, buildType, buildFlags,
 * hostProf) identify the code; instance fields (cmdline, env) identify
 * the invocation and are the two designated nondeterministic keys.
 */
struct Provenance
{
    std::string gitSha;
    std::string buildType;
    std::string buildFlags;
    bool hostProf = false;
    std::string cmdline;
    /** The CSIM_* environment overrides that were set, name-sorted. */
    std::vector<std::pair<std::string, std::string>> env;
};

/** Provenance of this process: build-time identity (baked in by CMake)
 *  plus the given command line and the live CSIM_* environment. */
Provenance collectProvenance(const std::string &cmdline);

/** Write the provenance keys (gitSha, buildType, buildFlags, hostProf,
 *  cmdline, env) into an open object: the ledger head and the bench
 *  report's "provenance" block share these bytes. */
void writeProvenanceFields(JsonWriter &w, const Provenance &prov);

/** Quote argv into one shell-pasteable replay command. */
std::string replayCommandLine(int argc, char **argv);

/**
 * FNV-1a digest of a stats snapshot's canonical rendering (names,
 * kinds, %.12g values, distribution buckets, in registration order).
 * Ledger events carry this 16-hex-digit digest instead of the full
 * snapshot, so a jobEnd line stays grep-able while still committing
 * to every stat byte.
 */
std::string statsDigest(const StatsSnapshot &snap);

/**
 * Live progress counters shared by the sweep runner (writer) and the
 * heartbeat sampler (reader). Monotonic, relaxed atomics: heartbeats
 * are wall-clock telemetry, not part of the deterministic record.
 */
struct LedgerProgress
{
    std::atomic<std::uint64_t> jobsTotal{0};
    std::atomic<std::uint64_t> jobsDone{0};
    std::atomic<std::uint64_t> instructionsDone{0};
};

class RunLedger
{
  public:
    /**
     * Open `path` for writing (fatal when the file cannot be created:
     * an unwritable ledger path must fail at startup, not after the
     * sweep) and emit the head event with the provenance manifest.
     */
    RunLedger(std::string path, std::string benchmark,
              const Provenance &provenance);

    /** Stops the heartbeat sampler and closes the stream. */
    ~RunLedger();

    RunLedger(const RunLedger &) = delete;
    RunLedger &operator=(const RunLedger &) = delete;

    const std::string &path() const { return path_; }
    LedgerProgress &progress() { return progress_; }

    /**
     * Start the wall-clock heartbeat sampler: every `period_ms` it
     * emits a heartbeat event with jobs done/total, committed
     * instructions, host MIPS over the ledger's lifetime, an ETA
     * extrapolated from job completion, and current RSS.
     */
    void startHeartbeat(unsigned period_ms);

    /** Stop the sampler (idempotent; also called by the destructor). */
    void stopHeartbeat();

    // -- Event emitters. Thread-safe; every line is flushed so tailers
    //    and post-crash readers see complete events.

    void sweepBegin(std::uint64_t sweep, std::uint64_t cells,
                    std::uint64_t jobs, unsigned threads);
    void jobBegin(std::uint64_t sweep, const std::string &cell,
                  std::uint64_t seed, const std::string &config_digest);
    void jobEnd(std::uint64_t sweep, const std::string &cell,
                std::uint64_t seed, std::uint64_t instructions,
                std::uint64_t cycles, const std::string &stats_digest);
    void cellEnd(std::uint64_t sweep, const std::string &cell,
                 std::uint64_t seeds, std::uint64_t instructions,
                 std::uint64_t cycles, const std::string &stats_digest);
    void sweepEnd(std::uint64_t sweep, std::uint64_t cells,
                  std::uint64_t jobs, double wall_seconds);

    /** Content hashes of every annotated trace built (name-sorted). */
    void traceHashes(
        const std::vector<std::pair<std::string, std::string>> &hashes);

    void benchEnd(std::uint64_t grids, std::uint64_t runs,
                  std::uint64_t scalars, double wall_seconds);

    /** Next sweep index for this ledger (sweepBegin/sweepEnd pairing
     *  is the caller's job; benches run sweeps sequentially). */
    std::uint64_t nextSweepIndex();

  private:
    /** Writes the fields of one already-open JSON object. */
    using FieldsFn = std::function<void(JsonWriter &)>;

    /** Emit one event line: the envelope (seq, wall offset) around the
     *  fields `payload` and `wall` write (null: no extra fields). */
    void emit(const char *kind, const FieldsFn &payload,
              const FieldsFn &wall = nullptr);

    void emitHeartbeat();
    double elapsedSeconds() const;

    const std::string path_;
    const std::string benchmark_;

    std::mutex mutex_; ///< serializes line emission
    std::ofstream out_;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_;

    LedgerProgress progress_;
    std::atomic<std::uint64_t> sweepCounter_{0};

    std::thread heartbeat_;
    std::mutex heartbeatMutex_;
    std::condition_variable heartbeatCv_;
    bool heartbeatStop_ = false;
};

} // namespace csim

#endif // CSIM_OBS_RUN_LEDGER_HH
