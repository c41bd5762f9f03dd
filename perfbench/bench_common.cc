#include "bench_common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "obs/run_ledger.hh"
#include "workloads/registry.hh"

namespace perfbench {

using namespace csim;

namespace {

// Run lengths. One process of each workload spends 0.5-2 host seconds
// in its timed phase on a 4-vCPU container, so a run holds ten or more
// launches, with the split between layers that README.md describes.
constexpr std::uint64_t gridInstructions = 40000;
constexpr std::uint64_t idealInstructions = 60000;
constexpr std::uint64_t storeInstructions = 600000;
constexpr unsigned storeRegions = 300;
constexpr std::uint64_t storeRegionWarmup = 500;
constexpr std::uint64_t storeRegionLen = 1000;
constexpr std::uint64_t checkedInstructions = 50000;

[[noreturn]] void
usage(const char *prog, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s --workload "
                 "policy_grid|ideal_sweep|store_regions|"
                 "checked_breakdown --seed N --out PATH --workdir DIR "
                 "[--stall-threshold X]\n",
                 prog, why.c_str(), prog);
    std::exit(2);
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19)
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

// Scratch-directory cleanup state. Fixed-size C strings so the signal
// handler can unlink without allocating.
constexpr std::size_t maxScratchFiles = 16;
constexpr std::size_t maxPathLen = 1024;
char scratchDirPath[maxPathLen] = {};
char scratchFiles[maxScratchFiles][maxPathLen] = {};
std::atomic<std::size_t> scratchFileCount{0};
std::atomic<const char *> currentJob{nullptr};

/** Async-signal-safe: unlink the registered files, then the dir. */
void
removeScratch()
{
    const std::size_t n = scratchFileCount.load();
    for (std::size_t i = 0; i < n; ++i)
        ::unlink(scratchFiles[i]);
    if (scratchDirPath[0] != '\0')
        ::rmdir(scratchDirPath);
}

void
crashHook(const char *reason)
{
    const char *job = currentJob.load();
    std::fprintf(stderr, "perfbench: job '%s' failed: %s\n",
                 job ? job : "(setup)", reason);
    removeScratch();
}

void
signalHandler(int sig)
{
    removeScratch();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

/** The four machines of every sweep: 1x8w, 2x4w, 4x2w, 8x1w. */
std::vector<MachineConfig>
allMachines()
{
    return {MachineConfig::monolithic(), MachineConfig::clustered(2),
            MachineConfig::clustered(4), MachineConfig::clustered(8)};
}

} // anonymous namespace

Args
parseArgs(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "perfbench";
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(prog, "missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--workload") {
            a.workloadName = v;
            have_workload = true;
            if (v == "policy_grid")
                a.workload = Workload::PolicyGrid;
            else if (v == "ideal_sweep")
                a.workload = Workload::IdealSweep;
            else if (v == "store_regions")
                a.workload = Workload::StoreRegions;
            else if (v == "checked_breakdown")
                a.workload = Workload::CheckedBreakdown;
            else
                usage(prog, "unknown workload '" + v + "'");
        } else if (arg == "--seed") {
            if (!parseU64(v, a.seed))
                usage(prog, "malformed seed '" + v + "'");
            have_seed = true;
        } else if (arg == "--out") {
            a.out = v;
        } else if (arg == "--workdir") {
            a.workdir = v;
        } else if (arg == "--stall-threshold") {
            char *end = nullptr;
            a.stallThreshold = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.stallThreshold >= 0.0) ||
                a.stallThreshold > 1.0)
                usage(prog, "malformed stall threshold '" + v + "'");
        } else {
            usage(prog, "unknown flag '" + arg + "'");
        }
    }
    if (!have_workload || !have_seed || a.out.empty() ||
        a.workdir.empty())
        usage(prog, "--workload, --seed, --out and --workdir are "
                    "required");
    return a;
}

ExperimentConfig
workloadConfig(const Args &args)
{
    ExperimentConfig cfg;
    cfg.seeds = {args.seed};
    cfg.instructions = traceInstructions(args.workload);
    cfg.stallThreshold = args.stallThreshold;
    switch (args.workload) {
      case Workload::PolicyGrid:
      case Workload::IdealSweep:
        break;
      case Workload::StoreRegions:
        cfg.regions = storeRegions;
        cfg.regionWarmup = storeRegionWarmup;
        cfg.regionLen = storeRegionLen;
        break;
      case Workload::CheckedBreakdown:
        // What a bench binary's --profile --check sets.
        cfg.verify.checker = true;
        cfg.verify.oracle = true;
        cfg.profile.enabled = true;
        break;
    }
    return cfg;
}

std::vector<std::string>
traceWorkloads(Workload w)
{
    switch (w) {
      case Workload::PolicyGrid:
        return {"bzip2", "crafty", "gcc", "gzip", "twolf", "vpr"};
      case Workload::IdealSweep:
        return workloadNames();
      case Workload::StoreRegions:
        return {"mcf", "parser"};
      case Workload::CheckedBreakdown:
        return {"gcc", "mcf", "vpr"};
    }
    CSIM_PANIC("traceWorkloads: bad workload");
}

std::uint64_t
traceInstructions(Workload w)
{
    switch (w) {
      case Workload::PolicyGrid: return gridInstructions;
      case Workload::IdealSweep: return idealInstructions;
      case Workload::StoreRegions: return storeInstructions;
      case Workload::CheckedBreakdown: return checkedInstructions;
    }
    CSIM_PANIC("traceInstructions: bad workload");
}

std::vector<JobSpec>
workloadJobs(Workload w)
{
    std::vector<JobSpec> jobs;
    const auto add = [&](const std::string &wl, const MachineConfig &m,
                         bool ideal, PolicyKind policy) {
        SweepCell cell;
        cell.workload = wl;
        cell.machine = m;
        cell.mode = ideal ? CellMode::Ideal : CellMode::Timing;
        cell.policy = policy;
        jobs.push_back(JobSpec{cell.label(), wl, m, ideal, policy});
    };
    switch (w) {
      case Workload::PolicyGrid:
        for (const std::string &wl : traceWorkloads(w))
            for (const MachineConfig &m : allMachines())
                for (PolicyKind p :
                     {PolicyKind::Focused, PolicyKind::FocusedLoc,
                      PolicyKind::FocusedLocStall,
                      PolicyKind::FocusedLocStallProactive})
                    add(wl, m, false, p);
        break;
      case Workload::IdealSweep:
        for (const std::string &wl : traceWorkloads(w))
            for (const MachineConfig &m : allMachines())
                add(wl, m, true, PolicyKind::Focused);
        break;
      case Workload::StoreRegions:
        for (const std::string &wl : traceWorkloads(w))
            for (unsigned n : {4u, 8u})
                add(wl, MachineConfig::clustered(n), false,
                    PolicyKind::FocusedLocStallProactive);
        break;
      case Workload::CheckedBreakdown:
        for (const std::string &wl : traceWorkloads(w))
            for (unsigned n : {4u, 8u})
                add(wl, MachineConfig::clustered(n), false,
                    PolicyKind::Focused);
        break;
    }
    return jobs;
}

SweepSpec
workloadSweep(const Args &args)
{
    CSIM_ASSERT(args.workload != Workload::StoreRegions);
    SweepSpec spec;
    spec.cfg = workloadConfig(args);
    for (const JobSpec &job : workloadJobs(args.workload)) {
        if (job.ideal)
            spec.addIdeal(job.workload, job.machine);
        else
            spec.addTiming(job.workload, job.machine, job.policy);
    }
    return spec;
}

std::string
jobDigest(const AggregateResult &res)
{
    char buf[64];
    std::string text;
    std::snprintf(buf, sizeof(buf), "inst=%" PRIu64 ";cyc=%" PRIu64 ";cp=",
                  res.instructions, res.cycles);
    text += buf;
    for (std::uint64_t c : res.categoryCycles) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64 ",", c);
        text += buf;
    }
    text += ";stats=" + statsDigest(res.stats);
    return fnvHex(fnv1a64(text));
}

ScratchDir::ScratchDir(const std::string &workdir)
{
    path_ = workdir + "/scratch-" + std::to_string(::getpid());
    if (path_.size() + 64 >= maxPathLen)
        CSIM_FATAL_F("perfbench: work dir path too long: %s",
                     workdir.c_str());
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
    if (ec)
        CSIM_FATAL_F("perfbench: cannot create %s: %s", path_.c_str(),
                     ec.message().c_str());
    std::snprintf(scratchDirPath, maxPathLen, "%s", path_.c_str());
    setCrashHook(crashHook);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT, SIGTERM,
                    SIGINT})
        std::signal(sig, signalHandler);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    scratchDirPath[0] = '\0';
    scratchFileCount.store(0);
}

std::string
ScratchDir::file(const std::string &name)
{
    const std::string p = path_ + "/" + name;
    const std::size_t i = scratchFileCount.load();
    if (i >= maxScratchFiles || p.size() >= maxPathLen)
        CSIM_FATAL_F("perfbench: too many scratch files (%s)", p.c_str());
    std::snprintf(scratchFiles[i], maxPathLen, "%s", p.c_str());
    scratchFileCount.store(i + 1);
    return p;
}

void
setCurrentJob(const char *label)
{
    currentJob.store(label);
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

JsonOut::JsonOut() : body_("{") {}

void
JsonOut::key(const std::string &k)
{
    if (!first_)
        body_ += ", ";
    first_ = false;
    body_ += "\"" + k + "\": ";
}

JsonOut &
JsonOut::field(const std::string &k, const std::string &value)
{
    key(k);
    body_ += '"';
    for (char c : value) {
        if (c == '"' || c == '\\')
            body_ += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            body_ += c;
    }
    body_ += '"';
    return *this;
}

JsonOut &
JsonOut::field(const std::string &k, const char *value)
{
    return field(k, std::string(value));
}

JsonOut &
JsonOut::field(const std::string &k, double value)
{
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
    return *this;
}

JsonOut &
JsonOut::field(const std::string &k, std::uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonOut &
JsonOut::field(const std::string &k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonOut &
JsonOut::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

std::string
jobsJson(const std::vector<std::pair<std::string, std::string>> &jobs)
{
    std::string s = "[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            s += ", ";
        s += JsonOut()
                 .field("label", jobs[i].first)
                 .field("digest", jobs[i].second)
                 .str();
    }
    return s + "]";
}

std::string
buildInfoJson()
{
    const Provenance prov = collectProvenance("");
    return JsonOut()
        .field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()))
        .field("build_type", prov.buildType)
        .field("git_sha", prov.gitSha)
        .field("host_prof", prov.hostProf)
        .field("sweep_threads", std::uint64_t{1})
        .str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::trunc);
    os << text << '\n';
    os.close();
    if (!os)
        CSIM_FATAL_F("perfbench: cannot write %s", path.c_str());
}

} // namespace perfbench
