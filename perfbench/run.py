#!/usr/bin/env python3
"""Simulator benchmark: build the drivers, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: policy_grid, ideal_sweep, store_regions, checked_breakdown
(README.md says why each exists). The seed picks the workload inputs:
every trace the workload builds is synthesized with it.

--trace 0 launches the timed driver once, with one sweep worker thread,
for --seconds. It sets up and runs every job repeatedly and times each
job and set-up on its own in process CPU seconds, right after a run of
a fixed calibration kernel. Every end-to-end time is the median of the
item's time over the kernel's, scaled to a reference kernel time.
--trace 1 alternates timed and traced launches and reports the median
of each per-layer metric over the traced launches, plus the tracing
overhead against the timed launches' first passes.

Every job's result digest is checked: every pass and launch must agree,
the traced driver must equal the timed one, and for the seeds in
reference_digests.json every digest must equal the stored one. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it carry the host/build identity and the digests.

Everything is built and written under .bench_build/ at the repository
root; each driver process keeps its trace stores in its own scratch
directory there, removed on every exit path.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("policy_grid", "ideal_sweep", "store_regions",
             "checked_breakdown")
DRIVER_TIMEOUT_S = 90
# Reference CPU time of one calibration-kernel run (timed.cc): times are
# reported as they would read on a host that runs the kernel this fast.
REFERENCE_CALIBRATION_S = 2.0e-3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="run.py",
        usage="python3 perfbench/run.py --workload {%s} --seed N "
              "--seconds S --trace {0,1}" % ",".join(WORKLOADS))
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Only the perturbation self-test sets this (selftest.py).
    p.add_argument("--stall-threshold", default=None,
                   help=argparse.SUPPRESS)
    a = p.parse_args(argv)
    if not a.seed.isdigit() or len(a.seed) > 18:
        p.error(f"malformed seed {a.seed!r}: want a non-negative integer")
    a.seed = str(int(a.seed))
    if a.seconds < 1:
        p.error("--seconds must be >= 1")
    return a


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are missing; run from a "
             "checkout of the repository")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)
    if not os.path.isfile(cache):
        os.makedirs(BUILD, exist_ok=True)
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code where no git metadata exists (a plain checkout)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def launch(driver, args, tag, seconds=0):
    """Run one driver process; return (report or None, stderr text).
    The timed driver measures until `seconds` have gone by since it
    started."""
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"{driver}-{args.workload}-{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, f"perfbench_{driver}"),
           "--workload", args.workload, "--seed", args.seed,
           "--out", out, "--workdir", WORK]
    if driver == "timed":
        cmd += ["--seconds", str(seconds)]
    else:
        cmd += ["--spans", os.path.join(
            WORK, f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.stall_threshold is not None:
        cmd += ["--stall-threshold", args.stall_threshold]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=seconds + DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = ""
    finally:
        # Also reached when run.py itself is interrupted: never leave
        # a driver running behind.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        # The driver removes its scratch directory itself; this catches
        # a process killed before its handlers could run.
        shutil.rmtree(os.path.join(WORK, f"scratch-{proc.pid}"),
                      ignore_errors=True)
    report = None
    if proc.returncode == 0 and os.path.exists(out):
        with open(out) as f:
            report = json.load(f)
        os.remove(out)
    return report, err


def load_references(workload, seed):
    path = os.path.join(HERE, "reference_digests.json")
    with open(path) as f:
        refs = json.load(f)
    w = refs["workloads"].get(workload)
    if w is None or seed not in w["seeds"]:
        return None
    return dict(zip(w["labels"], w["seeds"][seed]))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def job_failures(report, expected):
    """Failed job runs of one timed or traced report: a job whose first
    digest differs from the expected one fails in every pass; otherwise
    each later pass that disagrees with the first fails."""
    passes = report.get("passes", 0) + 1
    labels = [j["label"] for j in report["jobs"]]
    digests = dict(zip(labels, (j["digest"] for j in report["jobs"])))
    unstable = dict(zip(labels, report.get("unstable", [])))
    failed = 0
    for label, want in expected.items():
        if digests.get(label) != want:
            failed += passes
        else:
            failed += int(unstable.get(label, 0))
    return len(expected) * passes, failed


def reference_s(times, cals):
    """An item's time in reference seconds: the median, over its runs,
    of its CPU time divided by that of the calibration-kernel run just
    before it, times the kernel's reference time. Contention for the
    host slows the item and the kernel alike, so the ratio holds."""
    return median([t / c for t, c in zip(times, cals)]) * \
        REFERENCE_CALIBRATION_S


def pass_reference_s(report):
    """One pass's time in reference seconds: the sum over its items."""
    return sum(reference_s(times, cals) for times, cals in
               zip(zip(*report["pass_s"]), zip(*report["pass_cal_s"])))


def main(argv):
    # SIGTERM unwinds like Ctrl-C, so launch() reaps its driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    build()
    refs = load_references(args.workload, args.seed)

    attempted = failed = 0
    first_digests = {}
    timed, traced = [], []
    crashed = False
    deadline = time.monotonic() + args.seconds
    n = 0
    while not crashed:
        # --trace 0: one timed launch measures the whole run. --trace 1:
        # timed and traced launches alternate, each timed launch making
        # its minimum number of passes.
        drivers = ["timed"] if args.trace == 0 else ["timed", "traced"]
        for driver in drivers:
            seconds = args.seconds if args.trace == 0 else 0
            report, err = launch(driver, args, n, seconds)
            n += 1
            if report is None:
                sys.stderr.write(err)
                crashed = True
                jobs = len(first_digests) or len(refs or {}) or 1
                attempted += jobs
                failed += jobs
                break
            if not first_digests:
                first_digests = {j["label"]: j["digest"]
                                 for j in report["jobs"]}
            tried, bad = job_failures(report, refs or first_digests)
            attempted += tried
            failed += bad
            (timed if driver == "timed" else traced).append(report)
        if args.trace == 0 or time.monotonic() >= deadline:
            break

    meta = timed[0]["meta"] if timed else {}
    meta = dict(meta, source_digest=source_digest(),
                launches_timed=len(timed), launches_traced=len(traced),
                timed_passes=sum(r["passes"] for r in timed),
                reference_seed=refs is not None)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# digests " + json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "jobs": first_digests}, sort_keys=True))
    error_rate = failed / attempted if attempted else 1.0
    print(f"# error_rate {error_rate:.6g} ({failed} of {attempted} jobs)")
    if timed:
        # Below 1 when the process waited for a CPU while timed: the
        # share of wall time the host actually ran it.
        print("# cpu_per_wall %.4f" % (
            sum(sum(p) for r in timed for p in r["pass_s"] + r["pass_cal_s"])
            / sum(w for r in timed for w in r["pass_wall_s"])))
    if traced:
        # A nonzero missed-flush count means the trainer's flush cadence
        # changed and critpath.train_ns_per_commit is a biased sample.
        print("# traced spans %d missed_flushes %d" % (
            traced[0]["spans"], max(r["missed_flushes"] for r in traced)))

    metrics = {}
    if timed and args.trace == 0:
        r = timed[0]
        pass_s = pass_reference_s(r)
        setup_s = reference_s(r["setup_s"], r["setup_cal_s"])
        # The same pass in plain CPU seconds, for the record.
        raw_pass_s = sum(median(t) for t in zip(*r["pass_s"]))
        print("# host_mips_unscaled %.6g calibration_ms_median %.4g" % (
            r["instructions"] / raw_pass_s / 1e6,
            1e3 * median([c for p in r["pass_cal_s"] for c in p])))
        metrics = {
            "host_mips": r["instructions"] / pass_s / 1e6,
            "run_cpu_s": setup_s + pass_s,
            "setup_s": setup_s,
            "peak_rss_mib": r["peak_rss_bytes"] / 2**20,
            "sim_cpi": r["cycles"] / r["instructions"],
        }
    elif traced:
        names = traced[0]["metrics"].keys()
        metrics = {k: median([r["metrics"][k] for r in traced])
                   for k in names}
        # The traced driver makes one pass per process, right after
        # set-up: compare it with the timed driver's first (warm-up) pass.
        metrics["harness.trace_overhead_frac"] = (
            median([r["timed_s"] for r in traced]) /
            median([r["warmup_wall_s"] for r in timed]) - 1.0)
    wanted = [m["name"] for m in
              (bench["end_to_end"] if args.trace == 0
               else bench["per_layer"])]
    missing = [k for k in wanted if k not in metrics]
    if missing and not crashed:
        fail(f"driver did not report {missing}")
    result = {
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
