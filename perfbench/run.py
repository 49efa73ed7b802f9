"""frns benchmark: run one workload through the public CLI and report metrics.

    python3 perfbench/run.py --workload solve_2d --seed 0 --seconds 60 --trace 0

Run it from a checkout of the repository (it imports ``src/frns`` of the
checkout and nothing installed).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A readable summary goes to standard
error, and the full record (every sample, tail percentiles, host facts,
failures) to ``.perfbench_run/<workload>-seed<N>-trace<T>/record.json``.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_invocation, output_digests  # noqa: E402

SETUP_SAMPLES = 3           # fresh `import frns.cli` samples per traced run
# Warm passes per cycle take at least this share of the cycle's fresh pass
# time.  It gives diagnostics, whose warm pass is 15x shorter than its
# fresh one, several warm samples per cycle, and the other workloads one.
WARM_SHARE = 0.4
INVOCATION_TIMEOUT_S = 120  # a run must end within 180 s
# BLAS/OpenMP pools pinned to one thread: the benchmark runs one closed-loop
# client on a 2-core host, and the sweep's own --jobs 2 uses both cores.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.path.join(ROOT, "src"),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


# ---------------------------------------------------------------------------
# host facts


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def host_record(seed):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        caches[f"L{level} {kind}"] = _read(os.path.join(base, index, "size"))

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "thread_pins": {k: CHILD_ENV[k] for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement


def time_to_ready(*args):
    """Seconds from spawning a fresh interpreter running worker.py until it
    reports ready (see worker.py)."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=CHILD_ENV,
                         capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{out.stderr}")
    return float(out.stdout.split()[-1]) - t0


def _run_child(argv, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, wall s, peak RSS kB,
    timed out).  os.wait4 gives this child's own peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, wall >= INVOCATION_TIMEOUT_S


def wall_pass(workload, seed, out_dir):
    """One pass, each invocation as ``python -m frns.cli`` in a fresh
    interpreter.  Returns (wall s, peak RSS kB over the pass, records)."""
    total, peak, records = 0.0, 0, []
    for i, inv in enumerate(workload.invocations):
        inv_dir = os.path.join(out_dir, f"inv{i}")
        os.makedirs(inv_dir)
        stdout_path = os.path.join(out_dir, f"inv{i}.stdout")
        stderr_path = os.path.join(out_dir, f"inv{i}.stderr")
        code, wall, rss_kb, timed_out = _run_child(
            [sys.executable, "-m", "frns.cli", *inv.argv(seed, inv_dir)], stdout_path, stderr_path)
        with open(stdout_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        if timed_out:
            failures = [f"timed out after {INVOCATION_TIMEOUT_S} s"]
        elif "Traceback (most recent call last)" in stderr:
            failures = ["raised: " + stderr.strip().splitlines()[-1]]
        else:
            failures = check_invocation(inv, inv_dir, stdout, code)
        records.append({"exit": code, "failures": failures, "digests": output_digests(inv_dir)})
        shutil.rmtree(inv_dir)
        total += wall
        peak = max(peak, rss_kb)
    return total, peak, records


def tally(passes):
    """(attempted, failed, failure messages, exit-code counts) over the
    (seed, records) passes of one run.  Besides each invocation's own
    checks, the files in workloads.IDENTICAL_FILES must repeat byte for
    byte across passes with the same seed."""
    first = {}
    attempted = failed = 0
    messages, exits = [], {}
    for p, (seed, records) in enumerate(passes):
        for i, rec in enumerate(records):
            failures = list(rec["failures"])
            for name, digest in rec["digests"].items():
                ref = first.setdefault((seed, i, name), digest)
                if digest != ref:
                    failures.append(f"{name} differs from the first pass with seed {seed}")
            attempted += 1
            failed += bool(failures)
            messages += [f"pass {p} invocation {i}: {msg}" for msg in failures]
            exits[str(rec["exit"])] = exits.get(str(rec["exit"]), 0) + 1
    return attempted, failed, messages, exits


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it
    (none below 11 samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "samples": samples}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.4g}"] = ordered[n - 11]
    return out


class WarmWorker:
    """A worker process that has imported frns and run one discarded warm-up
    pass; each ``run_pass`` asks it for one timed in-process pass."""

    def __init__(self, workload, seed, out_dir):
        self._stderr = open(os.path.join(out_dir, "warm.stderr"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve", ROOT, workload.name, str(seed), out_dir],
            cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)
        try:
            self.warmup = self._reply()["records"]
        except BaseException:
            self.close()
            raise

    def _reply(self):
        killer = threading.Timer(INVOCATION_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        if not line:
            raise RuntimeError(f"warm worker died or timed out; see {self._stderr.name}")
        return json.loads(line)

    def run_pass(self, seed):
        self.proc.stdin.write(f"pass {seed}\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return reply["seconds"], reply["records"]

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self._stderr.close()


def timed_run(workload, seed, seconds, out_dir):
    """The warm worker's import and warm-up pass, then cycles while another
    cycle is expected to end within ``seconds`` of the start.  A cycle is
    one set-up sample, one fresh-interpreter pass, and warm passes until
    they have taken WARM_SHARE of the fresh pass's time (at least one).
    Interleaving the three makes every metric sample the whole run, so a
    slow phase of the host weighs the same on each.  Cycle k runs the
    program with ``--seed seed + k``: the restarts' work depends on the
    seed, and each run's medians then cover several seeds."""
    deadline = time.perf_counter() + seconds
    worker = WarmWorker(workload, seed, out_dir)
    passes = [(seed, worker.warmup)]
    setup, wall, warm, rss, cycles = [], [], [], [], []
    try:
        while not cycles or time.perf_counter() + statistics.median(cycles) <= deadline:
            t0 = time.perf_counter()
            pass_seed = seed + len(cycles)
            # after the worker's import, so bytecode and file caches are warm
            setup.append(time_to_ready("setup", ROOT, workload.name))
            fresh_s, peak_kb, records = wall_pass(workload, pass_seed, out_dir)
            wall.append(fresh_s)
            rss.append(peak_kb / 1024.0)
            passes.append((pass_seed, records))
            warm_total = 0.0
            while warm_total == 0.0 or warm_total < WARM_SHARE * fresh_s:
                warm_s, records = worker.run_pass(pass_seed)
                warm.append(warm_s)
                passes.append((pass_seed, records))
                warm_total += warm_s
            cycles.append(time.perf_counter() - t0)
    finally:
        worker.close()

    attempted, failed, messages, exits = tally(passes)
    stats = {
        "wall_s": summarize(wall),
        "warm_s": summarize(warm),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize(rss),
    }
    metrics = {name: s["median"] for name, s in stats.items()}
    metrics["ok_share"] = 1.0 - failed / attempted
    return metrics, attempted, failed, {
        "stats": stats, "failures": messages, "exit_codes": exits,
        "failed_share": failed / attempted}


def traced_run(workload, seed, out_dir):
    code, _, _, timed_out = _run_child(
        [sys.executable, WORKER, "trace", ROOT, workload.name, str(seed), out_dir],
        os.path.join(out_dir, "trace.stdout"), os.path.join(out_dir, "trace.stderr"))
    if code != 0 or timed_out:
        raise RuntimeError(f"trace worker failed (exit {code}); see {out_dir}/trace.stderr")
    imports = [time_to_ready("import", ROOT) for _ in range(SETUP_SAMPLES)]
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as f:
        trace = json.load(f)
    attempted, failed, messages, exits = tally(trace["passes"])
    metrics = dict(trace["metrics"])
    metrics["cli.import_s"] = statistics.median(imports)
    return metrics, attempted, failed, {
        "import_samples": imports, "breakdown": trace["breakdown"],
        "failures": messages, "exit_codes": exits, "failed_share": failed / attempted}


# ---------------------------------------------------------------------------
# entry point


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "frns", "cli.py")):
        print(f"no frns sources under {ROOT}/src: run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(RUN_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if args.trace:
        metrics, attempted, failed, detail = traced_run(workload, args.seed, out_dir)
    else:
        metrics, attempted, failed, detail = timed_run(workload, args.seed, args.seconds, out_dir)
    declared = _declared_metrics(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 2

    record = {"workload": workload.name, "why": workload.why, "trace": args.trace,
              "seconds": args.seconds, "host": host_record(args.seed),
              "metrics": metrics, **detail}
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted - failed}/{attempted} invocations passed; exit codes {detail['exit_codes']}",
          file=sys.stderr)
    for msg in detail["failures"][:20]:
        print(f"  FAIL {msg}", file=sys.stderr)
    for name, s in detail.get("stats", {}).items():
        tail = ", ".join(f"{k} {v:.4g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name}: median {s['median']:.4g} over n={s['n']}{'; ' + tail if tail else ''}",
              file=sys.stderr)
    for key, rows in detail.get("breakdown", {}).items():
        if isinstance(rows, list):
            print(f"  {key}: " + ", ".join(f"{k} {v:.3f}" for k, v in rows[:8]), file=sys.stderr)
    print(f"  record: {os.path.relpath(out_dir, ROOT)}/record.json", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
