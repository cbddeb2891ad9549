#!/usr/bin/env python3
"""Regression gate on the benchmark's deterministic counts.

    python3 tools/bench_gate.py            # check against tools/bench_gate.json
    python3 tools/bench_gate.py --record   # rewrite tools/bench_gate.json

Runs `python3 perfbench/run.py --seed 7 --seconds 1 --small` from the
repository root: `twophase` with --trace 1 and with --trace 0, and `restart`
with --trace 1. Each of these counts repeats exactly for a seed (see
perfbench/test_determinism.py), so the check is for equality, not within a
bound. A change that moves one on purpose records the new expectation in the
same change and says which counts moved and why.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTATION = os.path.join(HERE, "bench_gate.json")
SEED = 7

# workload -> (counts from the --trace 1 run, counts from the --trace 0 run)
GATE = {
    "twophase": ([
        "log.bytes_per_action",
        "log.forces_per_action",
        "recovery.entries_examined",
        "recovery.data_entries_read",
        "stable.read_mb_per_restart",
        "residency.reads_per_fault",
        "residency.faults_per_action",
        "residency.evictions_per_action",
        "tpc.msgs_per_action",
    ], ["space_amp"]),
    # Only the chain-walk counts: no read gear can change them.
    "restart": (["recovery.entries_examined", "recovery.data_entries_read"], []),
}


def run(workload, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.rstrip("\n").splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("bench_gate: %s --trace %d failed its oracle (%d of %d failed)"
                 % (workload, trace, result["failed"], result["attempted"]))
    return result["metrics"]


def measure():
    counts = {}
    for workload, (traced, untraced) in GATE.items():
        counts[workload] = {}
        for trace, names in ((1, traced), (0, untraced)):
            if not names:
                continue
            metrics = run(workload, trace)
            for name in names:
                counts[workload][name] = metrics[name]["value"]
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the measured counts as the new expectation")
    args = parser.parse_args()

    counts = measure()
    if args.record:
        with open(EXPECTATION, "w") as f:
            json.dump({"seed": SEED, "counts": counts}, f, indent=2, sort_keys=True)
            f.write("\n")
        print("bench_gate: recorded %s" % os.path.relpath(EXPECTATION, ROOT))
        return

    with open(EXPECTATION) as f:
        expected = json.load(f)["counts"]
    mismatches = 0
    for workload, names in counts.items():
        for name, got in names.items():
            want = expected.get(workload, {}).get(name)
            ok = got == want
            mismatches += not ok
            print("%-4s %-9s %-32s expected %-22r got %r"
                  % ("ok" if ok else "FAIL", workload, name, want, got))
    if mismatches:
        sys.exit("bench_gate: %d count(s) differ from %s"
                 % (mismatches, os.path.relpath(EXPECTATION, ROOT)))
    print("bench_gate: every count matches")


if __name__ == "__main__":
    main()
