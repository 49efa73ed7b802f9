"""Self-test of the frns benchmark.

    python3 perfbench/selftest.py

Run from a checkout, like run.py.  It checks three things and exits 0
only when all hold:

1. smoke: one pass of every workload, each invocation in a fresh
   interpreter, passes every output check;
2. a deliberately wrong reference energy makes the failed share of a
   solve_2d pass non-zero;
3. two traced runs of solve_2d with the same seed report identical counts.
"""

import json
import os
import shutil
import sys

import run
import workloads


def _fresh_dir(name):
    path = os.path.join(run.RUN_DIR, "selftest", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def smoke():
    ok = True
    for name, workload in workloads.WORKLOADS.items():
        seconds, _, records = run.wall_pass(workload, 0, _fresh_dir(name))
        attempted, failed, messages, _ = run.tally([(0, records)])
        print(f"smoke {name}: {attempted - failed}/{attempted} passed in {seconds:.2f} s")
        for msg in messages:
            print(f"  FAIL {msg}")
        ok = ok and failed == 0
    return ok


def wrong_reference():
    ref = workloads.REFERENCES[("solve", workloads.CFG_2D)]
    saved = ref["energy"]
    ref["energy"] = saved * (1.0 + 1e-6)
    try:
        _, _, records = run.wall_pass(workloads.WORKLOADS["solve_2d"], 0, _fresh_dir("wrong"))
    finally:
        ref["energy"] = saved
    attempted, failed, messages, _ = run.tally([(0, records)])
    print(f"wrong reference: failed share {failed}/{attempted} ({messages[:1]})")
    return failed > 0


def trace_counts_repeat():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        # everything but times and the CPU-time-based efficiency is a count
        # or a ratio of counts
        counts = [m["name"] for m in json.load(f)["per_layer"]
                  if m["unit"] != "s" and m["name"] != "solver.sweep_parallel_eff"]
    workload = workloads.WORKLOADS["solve_2d"]
    first, second = (
        run.traced_run(workload, 0, _fresh_dir(f"trace{i}"))[0] for i in (1, 2))
    differ = {name: (first[name], second[name]) for name in counts if first[name] != second[name]}
    print(f"traced counts repeat: {len(counts) - len(differ)}/{len(counts)} identical {differ or ''}")
    return not differ


def main():
    if not os.path.isfile(os.path.join(run.ROOT, "src", "frns", "cli.py")):
        print(f"no frns sources under {run.ROOT}/src: run from a full checkout", file=sys.stderr)
        return 2
    results = [smoke(), wrong_reference(), trace_counts_repeat()]
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
