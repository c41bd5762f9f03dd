#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Command-line hygiene: an unknown workload, a malformed seed or a
   missing flag exits non-zero with a usage line, from run.py and from
   both drivers.
2. Result check: a one-knob perturbation that changes simulated
   behaviour (stall-over-steer threshold 0.30 -> 0.34) is reported as
   failed policy_grid jobs, and only stall-over-steer jobs change.
   0.30 -> 0.31 is not a perturbation at all: the LoC estimate the
   threshold is compared with is level/15, and no level lies in
   [0.30, 0.31), so those digests must still match.
3. Store hygiene: a driver killed by a fatal signal while its trace
   stores exist leaves no scratch directory behind.
4. Outside a checkout (only BENCHMARK.json and perfbench/), run.py
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import run  # noqa: E402

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_py(*argv, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def cli_checks():
    base = ["--seconds", "1", "--trace", "0"]
    for argv, what in [
            (["--workload", "nope", "--seed", "1"] + base,
             "unknown workload"),
            (["--workload", "policy_grid", "--seed", "x"] + base,
             "non-numeric seed"),
            (["--workload", "policy_grid", "--seed", "-1"] + base,
             "negative seed"),
            (["--workload", "policy_grid", "--seed", "1.5"] + base,
             "fractional seed"),
            (["--workload", "policy_grid"] + base, "missing seed")]:
        r = run_py(*argv)
        check(r.returncode != 0 and "usage:" in r.stderr,
              f"run.py rejects {what} with a usage line")
    for driver in ("timed", "traced"):
        exe = os.path.join(run.BUILD, f"perfbench_{driver}")
        for argv, what in [
                (["--workload", "nope", "--seed", "1"], "unknown workload"),
                (["--workload", "policy_grid", "--seed", "1x"],
                 "malformed seed"),
                (["--bogus", "1"], "unknown flag")]:
            r = subprocess.run([exe, *argv, "--out", "/dev/null",
                                "--workdir", run.WORK],
                               capture_output=True, text=True)
            check(r.returncode != 0 and "usage:" in r.stderr,
                  f"{driver} driver rejects {what} with a usage line")


def digests_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("# digests "):
            return json.loads(line[len("# digests "):])["jobs"]
    return {}


def perturbation_checks():
    refs = run.load_references("policy_grid", "1")
    check(refs is not None, "seed 1 has reference digests")
    r = run_py("--workload", "policy_grid", "--seed", "1",
               "--seconds", "1", "--trace", "0",
               "--stall-threshold", "0.34")
    res = last_json(r.stdout)
    changed = [label for label, digest in digests_line(r.stdout).items()
               if digest != refs.get(label)]
    check(r.returncode == 0 and res is not None and not res["correct"]
          and res["failed"] > 0,
          "stall threshold 0.34 is reported as failed jobs "
          f"(got {res and (res['failed'], res['attempted'])})")
    check(bool(changed) and all("+stall" in label for label in changed),
          f"only stall-over-steer jobs changed ({len(changed)} of "
          f"{len(refs)})")
    r = run_py("--workload", "policy_grid", "--seed", "1",
               "--seconds", "1", "--trace", "0",
               "--stall-threshold", "0.31")
    res = last_json(r.stdout)
    check(r.returncode == 0 and res is not None and res["correct"] and
          res["failed"] == 0,
          "stall threshold 0.31 (same LoC level) changes no digest")


def store_hygiene_checks():
    for sig in (signal.SIGSEGV, signal.SIGTERM):
        out = os.path.join(run.WORK, "selftest.json")
        proc = subprocess.Popen(
            [os.path.join(run.BUILD, "perfbench_timed"),
             "--workload", "store_regions", "--seed", "1",
             "--out", out, "--workdir", run.WORK],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        scratch = os.path.join(run.WORK, f"scratch-{proc.pid}")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and proc.poll() is None:
            if os.path.isdir(scratch) and any(
                    n.endswith(".trc2") for n in os.listdir(scratch)):
                break
            time.sleep(0.005)
        had_store = os.path.isdir(scratch) and bool(os.listdir(scratch))
        proc.send_signal(sig)
        proc.wait()
        check(had_store and proc.returncode == -sig and
              not os.path.exists(scratch),
              f"{signal.Signals(sig).name} mid-build removes the store "
              "directory")


def outside_checkout_check():
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    t0 = time.monotonic()
    r = run_py("--workload", "policy_grid", "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=bare)
    check(r.returncode != 0 and not r.stdout.strip() and
          time.monotonic() - t0 < 180,
          "run.py outside a checkout exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    run.build()
    cli_checks()
    perturbation_checks()
    store_hygiene_checks()
    outside_checkout_check()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
