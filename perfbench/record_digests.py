#!/usr/bin/env python3
"""Regenerate reference_digests.json: one timed launch per (workload,
seed) for the default seeds, recording every job's result digest.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter simulated results, and say
so in the change: run.py counts every job whose digest differs from the
stored one as failed.
"""

import json
import os
import sys
from types import SimpleNamespace

sys.dont_write_bytecode = True
import run  # noqa: E402

DEFAULT_SEEDS = range(32)


def main():
    run.build()
    out = {
        "about": "Per-job result digests (instructions, cycles, "
                 "critical-path category cycles, deterministic stats) "
                 "for the default seeds; written by record_digests.py.",
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        labels, seeds = None, {}
        for seed in DEFAULT_SEEDS:
            args = SimpleNamespace(workload=workload, seed=str(seed),
                                   stall_threshold=None)
            report, _, _, err = run.launch("timed", args, "ref")
            if report is None:
                sys.stderr.write(err)
                run.fail(f"{workload} seed {seed} failed")
            jobs = report["jobs"]
            if labels is None:
                labels = [j["label"] for j in jobs]
            if [j["label"] for j in jobs] != labels:
                run.fail(f"{workload}: job list depends on the seed")
            seeds[str(seed)] = [j["digest"] for j in jobs]
            print(f"{workload} seed {seed}: {len(jobs)} jobs",
                  file=sys.stderr)
        out["workloads"][workload] = {"labels": labels, "seeds": seeds}
    # One line per seed keeps a digest change readable in a diff.
    lines = ["{", f'"about": {json.dumps(out["about"])},',
             '"workloads": {']
    for w, (workload, data) in enumerate(out["workloads"].items()):
        lines.append(f'{json.dumps(workload)}: {{"labels": '
                     f'{json.dumps(data["labels"])}, "seeds": {{')
        items = list(data["seeds"].items())
        for i, (seed, digests) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append(f'{json.dumps(seed)}: {json.dumps(digests)}'
                         f'{comma}')
        lines.append("}}" + ("," if w + 1 < len(out["workloads"]) else ""))
    lines += ["}", "}"]
    path = os.path.join(run.HERE, "reference_digests.json")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
