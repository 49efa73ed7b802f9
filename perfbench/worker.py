"""Child process of the frns benchmark.  Not a user entry point.

    python worker.py import ROOT
    python worker.py setup  ROOT WORKLOAD
    python worker.py serve  ROOT WORKLOAD SEED OUT_DIR      (then "pass SEED" lines)
    python worker.py trace  ROOT WORKLOAD SEED OUT_DIR

``import`` and ``setup`` print ``time.monotonic()`` (a clock shared by all
processes on Linux) once frns is imported, or once the workload's first
solver call is ready; the parent subtracts its own reading taken before
the spawn.  ``serve`` runs warm passes on request (see ``_serve``);
``trace`` writes ``result.json`` into OUT_DIR.
Top-level imports are kept to the standard minimum so they add little to
the measured set-up.
"""

import json
import os
import sys
import time


def _import_frns(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import frns.cli

    expected = os.path.join(os.path.realpath(root), "src", "frns")
    if os.path.dirname(os.path.realpath(frns.cli.__file__)) != expected:
        raise SystemExit(f"frns imported from {frns.cli.__file__}, expected {expected}")
    return frns.cli


def _setup(root, workload):
    cli = _import_frns(root)
    from frns.operator import Grid, build_symbol
    from frns.solver import grid_for_eps
    from workloads import WORKLOADS

    cfg_path, kind = WORKLOADS[workload].setup
    model, settings = cli.build_config(cli.load_config(os.path.join(root, cfg_path)))
    n = model.frac.n_dim
    if kind == "sweep":
        grid = grid_for_eps(model, settings.sweep_eps[0], settings.sweep_points_per_dim)
    elif settings.half_length > 0.0:
        grid = Grid(n, settings.points_per_dim, settings.half_length)
    else:
        grid = grid_for_eps(model, model.eps, settings.points_per_dim)
    build_symbol(grid, model.frac)


# ---------------------------------------------------------------------------
# in-process passes


def run_pass(cli, workload, seed, out_dir):
    """One pass of the workload through ``frns.cli.main``.  Returns
    (seconds in main, [per-invocation record])."""
    import contextlib
    import io
    import shutil

    from workloads import check_invocation, output_digests

    total = 0.0
    records = []
    for i, inv in enumerate(workload.invocations):
        inv_dir = os.path.join(out_dir, f"inv{i}")
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(inv.argv(seed, inv_dir))
            failures = []
        except SystemExit as exc:  # argparse rejects the argv
            code, failures = exc.code, [f"exit {exc.code} from argument parsing"]
        except Exception as exc:  # the pass continues; the failure is counted
            code, failures = None, [f"raised {type(exc).__name__}: {exc}"]
        total += time.perf_counter() - t0
        if not failures:
            failures = check_invocation(inv, inv_dir, buf.getvalue(), code)
        records.append({"exit": code, "failures": failures, "digests": output_digests(inv_dir)})
        shutil.rmtree(inv_dir, ignore_errors=True)
    return total, records


def _serve(root, workload_name, seed, out_dir):
    """Import frns, run one discarded warm-up pass with ``seed``, then run
    one timed pass per "pass SEED" line on stdin, answering each with one
    JSON line."""
    from workloads import WORKLOADS

    cli = _import_frns(root)
    workload = WORKLOADS[workload_name]
    _, records = run_pass(cli, workload, seed, out_dir)
    print(json.dumps({"seconds": None, "records": records}), flush=True)
    for line in sys.stdin:
        command, _, pass_seed = line.partition(" ")
        if command != "pass":
            break
        seconds, records = run_pass(cli, workload, int(pass_seed), out_dir)
        print(json.dumps({"seconds": seconds, "records": records}), flush=True)


# ---------------------------------------------------------------------------
# traced run


def _median_time(fn, reps):
    import statistics

    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _micro_cases(root, seed):
    """Single calls to public functions on fixed inputs, as
    (metric name, callable, repetitions).  Building the inputs includes
    one 2D ground-state solve, the input of decay_fit."""
    import numpy as np

    import frns.cli as cli
    from frns import extension, model, operator, solver, specfun

    from workloads import CFG_1D, CFG_2D

    def load(path):
        return cli.build_config(cli.load_config(os.path.join(root, path)))

    cfg2, settings2 = load(CFG_2D)
    cfg1, _ = load(CFG_1D)

    def field(cfg, n):
        grid = solver.grid_for_eps(cfg, cfg.eps, n)
        return operator.Field(grid=grid, values=solver.default_init(cfg, grid))

    u128, u256, u1d = field(cfg2, 128), field(cfg2, 256), field(cfg1, 1024)
    t128, t256, t1d = (operator.build_symbol(u.grid, c.frac)
                       for u, c in ((u128, cfg2), (u256, cfg2), (u1d, cfg1)))
    mask256 = model.lambda_mask(cfg2, u256.grid)
    g64 = operator.Grid(2, 64, 10.0)
    bump64 = operator.Field(grid=g64, values=np.exp(-g64.radii() ** 2))
    result = {}

    def solve_2d():
        result["res"] = solver.ground_state(
            cfg2, u128.grid, tolerances=settings2.tolerances,
            restarts=settings2.restarts, seed=seed)

    cases = (
        ("operator.apply_128_s", lambda: operator.apply_operator(u128, t128), 50),
        ("operator.apply_256_s", lambda: operator.apply_operator(u256, t256), 30),
        ("operator.apply_1d_s", lambda: operator.apply_operator(u1d, t1d), 200),
        ("operator.quad_form_256_s", lambda: operator.operator_quadratic_form(u256, t256), 30),
        ("model.g_eval_256_s", lambda: model.g_eval(cfg2, mask256, u256.values), 30),
        ("model.validate_s", lambda: model.validate_config(cfg2), 30),
        ("solver.nehari_scale_256_s", lambda: solver.nehari_scale(u256, cfg2), 5),
        ("extension.extend_conormal_64_s",
         lambda: extension.conormal_derivative(extension.extend(bump64, cfg2.frac), cfg2.frac), 10),
        ("specfun.kappa_s_s", lambda: specfun.kappa_s(cfg2.frac.s), 10),
        ("solver.decay_fit_s", lambda: solver.decay_fit(result["res"]), 20),
    )
    return solve_2d, cases


def _trace(root, workload_name, seed, out_dir):
    import tracer as tr
    from workloads import WORKLOADS

    cli = _import_frns(root)
    workload = WORKLOADS[workload_name]
    solve_2d, cases = _micro_cases(root, seed)

    solve_2d()
    micro = {name: _median_time(fn, reps) for name, fn, reps in cases}

    _, warmup = run_pass(cli, workload, seed, out_dir)
    untraced_s, untraced = run_pass(cli, workload, seed, out_dir)

    tracer = tr.Tracer()
    tracer.install()
    traced_s, traced = run_pass(cli, workload, seed, out_dir)
    workload_spans = len(tracer.spans)
    # the micro cases once more under the tracer (with the same fixed
    # calls on every workload), so every layer has spans and counts
    solve_2d()
    for _, fn, _ in cases:
        fn()

    metrics = tr.layer_metrics(tracer.spans, tracer.ffts)
    metrics.update(micro)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = workload_spans
    workload_part = tracer.spans[:workload_spans]
    breakdown = {
        "workload_self_s_by_layer": tr.self_time_by(workload_part, lambda r: r[tr.LAYER]),
        "workload_self_s_by_span": tr.self_time_by(workload_part, lambda r: r[tr.NAME])[:15],
        "workload_self_s_by_parent": tr.self_time_by(
            workload_part,
            lambda r: f"{r[tr.NAME]} <- {r[tr.PARENT][tr.NAME] if r[tr.PARENT] else '-'}")[:15],
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
    }
    tr.write_spans(tracer.spans, os.path.join(out_dir, "spans.csv"))
    return {"metrics": metrics, "breakdown": breakdown,
            "passes": [[seed, records] for records in (warmup, untraced, traced)]}


def main(argv):
    mode, root = argv[0], argv[1]
    if mode == "import":
        _import_frns(root)
        print(time.monotonic(), flush=True)
        return
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "setup":
        _setup(root, argv[2])
        print(time.monotonic(), flush=True)
        return
    workload, seed, out_dir = argv[2], int(argv[3]), argv[4]
    if mode == "serve":
        _serve(root, workload, seed, out_dir)
    elif mode == "trace":
        with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as f:
            json.dump(_trace(root, workload, seed, out_dir), f)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
