#include "obs/run_ledger.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"

namespace csim {

Provenance
collectProvenance(const std::string &cmdline)
{
    Provenance prov;
#ifdef CSIM_GIT_SHA
    prov.gitSha = CSIM_GIT_SHA;
#else
    prov.gitSha = "unknown";
#endif
#ifdef CSIM_BUILD_TYPE
    prov.buildType = CSIM_BUILD_TYPE;
#else
    prov.buildType = "unknown";
#endif
#ifdef CSIM_BUILD_FLAGS
    prov.buildFlags = CSIM_BUILD_FLAGS;
#else
    prov.buildFlags = "";
#endif
    prov.hostProf = HostProf::compiledIn();
    prov.cmdline = cmdline;
    // The fixed list of environment knobs the simulator honors; an
    // unset variable is omitted (set-to-empty is a real override).
    for (const char *name :
         {"CSIM_LOG", "CSIM_STATS_FILTER", "CSIM_THREADS"}) {
        if (const char *value = std::getenv(name))
            prov.env.emplace_back(name, value);
    }
    return prov;
}

void
writeProvenanceFields(JsonWriter &w, const Provenance &prov)
{
    w.key("gitSha").value(prov.gitSha);
    w.key("buildType").value(prov.buildType);
    w.key("buildFlags").value(prov.buildFlags);
    w.key("hostProf").value(prov.hostProf);
    w.key("cmdline").value(prov.cmdline);
    w.key("env").beginObject();
    for (const auto &[name, value] : prov.env)
        w.key(name).value(value);
    w.endObject();
}

std::string
replayCommandLine(int argc, char **argv)
{
    std::string cmd;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            cmd += ' ';
        const std::string arg = argv[i];
        const bool plain =
            !arg.empty() &&
            arg.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "0123456789._,/=+:@%-") == std::string::npos;
        if (plain) {
            cmd += arg;
        } else {
            cmd += '\'';
            for (char c : arg) {
                if (c == '\'')
                    cmd += "'\\''";
                else
                    cmd += c;
            }
            cmd += '\'';
        }
    }
    return cmd;
}

std::string
statsDigest(const StatsSnapshot &snap)
{
    std::uint64_t h = fnv1aOffset;
    char buf[64];
    for (const auto &[name, value] : snap.entries()) {
        h = fnv1a64(name, h);
        std::snprintf(buf, sizeof(buf), "=%d:%.12g;",
                      static_cast<int>(value.kind), value.value);
        h = fnv1a64(buf, h);
        for (std::uint64_t b : value.buckets) {
            std::snprintf(buf, sizeof(buf), "%" PRIu64 ",", b);
            h = fnv1a64(buf, h);
        }
    }
    return fnvHex(h);
}

RunLedger::RunLedger(std::string path, std::string benchmark,
                     const Provenance &provenance)
    : path_(std::move(path)), benchmark_(std::move(benchmark)),
      out_(path_, std::ios::trunc),
      start_(std::chrono::steady_clock::now())
{
    if (!out_)
        CSIM_FATAL_F("%s: cannot open --ledger-out path '%s'",
                     benchmark_.c_str(), path_.c_str());
    emit("head", [&](JsonWriter &w) {
        w.key("benchmark").value(benchmark_);
        w.key("ledgerSchemaVersion").value(ledgerSchemaVersion);
        w.key("provenance").beginObject();
        writeProvenanceFields(w, provenance);
        w.endObject();
    });
}

RunLedger::~RunLedger()
{
    stopHeartbeat();
}

double
RunLedger::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
RunLedger::emit(const char *kind, const FieldsFn &payload,
                const FieldsFn &wall)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.key("ledger").value(ledgerSchemaVersion);
    w.key("seq").value(seq_++);
    w.key("kind").value(kind);
    // Every event is stamped with its wall offset; extra wall fields
    // (heartbeat samples, sweep wall times) follow it.
    w.key("wall").beginObject();
    w.key("tMs").value(elapsedSeconds() * 1e3);
    if (wall)
        wall(w);
    w.endObject();
    w.key("payload").beginObject();
    if (payload)
        payload(w);
    w.endObject();
    w.endObject();

    const std::string text = line.str();
    out_ << text << '\n';
    out_.flush();
    if (!out_)
        CSIM_FATAL_F("%s: failed writing ledger '%s'",
                     benchmark_.c_str(), path_.c_str());
    // The ledger line doubles as the flight-recorder breadcrumb: a
    // crash dump replays exactly what the ledger last saw.
    FlightRecorder::note(text.c_str());
}

namespace {

double
cpiOf(std::uint64_t instructions, std::uint64_t cycles)
{
    return instructions ? static_cast<double>(cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
}

} // anonymous namespace

void
RunLedger::sweepBegin(std::uint64_t sweep, std::uint64_t cells,
                      std::uint64_t jobs, unsigned threads)
{
    emit("sweepBegin",
         [&](JsonWriter &w) {
             w.key("sweep").value(sweep);
             w.key("cells").value(cells);
             w.key("jobs").value(jobs);
         },
         // Worker-thread count varies by invocation: wall side.
         [&](JsonWriter &w) {
             w.key("threads").value(std::uint64_t{threads});
         });
}

void
RunLedger::jobBegin(std::uint64_t sweep, const std::string &cell,
                    std::uint64_t seed,
                    const std::string &config_digest)
{
    emit("jobBegin", [&](JsonWriter &w) {
        w.key("sweep").value(sweep);
        w.key("cell").value(cell);
        w.key("seed").value(seed);
        w.key("configDigest").value(config_digest);
    });
}

void
RunLedger::jobEnd(std::uint64_t sweep, const std::string &cell,
                  std::uint64_t seed, std::uint64_t instructions,
                  std::uint64_t cycles, const std::string &stats_digest)
{
    emit("jobEnd", [&](JsonWriter &w) {
        w.key("sweep").value(sweep);
        w.key("cell").value(cell);
        w.key("seed").value(seed);
        w.key("instructions").value(instructions);
        w.key("cycles").value(cycles);
        w.key("cpi").value(cpiOf(instructions, cycles));
        w.key("statsDigest").value(stats_digest);
    });
}

void
RunLedger::cellEnd(std::uint64_t sweep, const std::string &cell,
                   std::uint64_t seeds, std::uint64_t instructions,
                   std::uint64_t cycles,
                   const std::string &stats_digest)
{
    emit("cellEnd", [&](JsonWriter &w) {
        w.key("sweep").value(sweep);
        w.key("cell").value(cell);
        w.key("seeds").value(seeds);
        w.key("instructions").value(instructions);
        w.key("cycles").value(cycles);
        w.key("cpi").value(cpiOf(instructions, cycles));
        w.key("statsDigest").value(stats_digest);
    });
}

void
RunLedger::sweepEnd(std::uint64_t sweep, std::uint64_t cells,
                    std::uint64_t jobs, double wall_seconds)
{
    emit("sweepEnd",
         [&](JsonWriter &w) {
             w.key("sweep").value(sweep);
             w.key("cells").value(cells);
             w.key("jobs").value(jobs);
         },
         [&](JsonWriter &w) {
             w.key("wallSeconds").value(wall_seconds);
         });
}

void
RunLedger::traceHashes(
    const std::vector<std::pair<std::string, std::string>> &hashes)
{
    emit("traces", [&](JsonWriter &w) {
        w.key("traces").beginArray();
        for (const auto &[key, hash] : hashes) {
            w.beginObject();
            w.key("key").value(key);
            w.key("hash").value(hash);
            w.endObject();
        }
        w.endArray();
    });
}

void
RunLedger::benchEnd(std::uint64_t grids, std::uint64_t runs,
                    std::uint64_t scalars, double wall_seconds)
{
    emit("benchEnd",
         [&](JsonWriter &w) {
             w.key("grids").value(grids);
             w.key("runs").value(runs);
             w.key("scalars").value(scalars);
         },
         [&](JsonWriter &w) {
             w.key("wallSeconds").value(wall_seconds);
         });
}

std::uint64_t
RunLedger::nextSweepIndex()
{
    return sweepCounter_.fetch_add(1, std::memory_order_relaxed);
}

void
RunLedger::emitHeartbeat()
{
    const double elapsed = elapsedSeconds();
    const std::uint64_t done =
        progress_.jobsDone.load(std::memory_order_relaxed);
    const std::uint64_t total =
        progress_.jobsTotal.load(std::memory_order_relaxed);
    const std::uint64_t instructions =
        progress_.instructionsDone.load(std::memory_order_relaxed);
    const double mips = elapsed > 0.0
        ? static_cast<double>(instructions) / elapsed / 1e6 : 0.0;
    // ETA extrapolates the mean job latency so far onto the backlog;
    // 0 until the first job lands (no basis) or once the sweep drains.
    const double eta = done > 0 && total > done
        ? elapsed / static_cast<double>(done) *
            static_cast<double>(total - done)
        : 0.0;
    const HostMemoryStats mem = sampleHostMemory();

    emit("heartbeat", nullptr, [&](JsonWriter &w) {
        w.key("jobsDone").value(done);
        w.key("jobsTotal").value(total);
        w.key("instructions").value(instructions);
        w.key("hostMips").value(mips);
        w.key("etaSeconds").value(eta);
        w.key("rssBytes").value(mem.currentRssBytes);
    });
}

void
RunLedger::startHeartbeat(unsigned period_ms)
{
    CSIM_ASSERT(period_ms > 0);
    stopHeartbeat();
    {
        std::lock_guard<std::mutex> lock(heartbeatMutex_);
        heartbeatStop_ = false;
    }
    heartbeat_ = std::thread([this, period_ms] {
        std::unique_lock<std::mutex> lock(heartbeatMutex_);
        for (;;) {
            if (heartbeatCv_.wait_for(
                    lock, std::chrono::milliseconds(period_ms),
                    [this] { return heartbeatStop_; }))
                return;
            lock.unlock();
            emitHeartbeat();
            lock.lock();
        }
    });
}

void
RunLedger::stopHeartbeat()
{
    {
        std::lock_guard<std::mutex> lock(heartbeatMutex_);
        heartbeatStop_ = true;
    }
    heartbeatCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

} // namespace csim
