"""Span tracer for the benchmark's traced run.

Nothing here runs unless a traced run installs it.  ``install`` replaces
every public frns function on the module attributes through which the
layers call each other (``frns.solver.apply_operator``,
``frns.cli.extend``, ...) and on its own module, plus ``brentq`` where an
frns module holds it, with a wrapper that records a span: name, layer,
start, end, parent span and thread.  The ``numpy.fft`` and ``scipy.fft``
entry points, and any frns module global bound to one of them, get a
counting wrapper instead (no span), so FFT time stays in the calling
layer's self time and ``operator.fft_calls`` keeps counting after a move
between FFT libraries.

Spans stay in memory until ``write_spans`` at the end of the run.
"""

import csv
import functools
import math
import threading
import time
import types

LAYERS = ("cli", "solver", "model", "operator", "extension", "specfun")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
# spans that also record thread CPU time (for the parallel efficiency)
CPU_SPANS = ("solver.ground_state", "solver.autonomous_ground_state")

NAME, LAYER, START, END, PARENT, THREAD, CPU = range(7)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, layer, start, end, parent span, thread, cpu_s]
        self.ffts = []      # (points, bytes, real) per FFT call
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def span_wrapper(self, fn, name, layer):
        spans, main_stack, cpu = self.spans, self._main_stack, name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to the span that the main
            # thread has open (the sweep that submitted it)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [name, layer, time.perf_counter(), 0.0, parent,
                   threading.get_ident(), time.thread_time() if cpu else 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = time.perf_counter()
                if cpu:
                    rec[CPU] = time.thread_time() - rec[CPU]

        return traced

    def fft_wrapper(self, fn, name):
        ffts, real = self.ffts, "rfft" in name

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            # points of the real-space array: the input of a forward real
            # transform, the output of every other transform
            points = a.size if name.startswith("rfft") else out.size
            ffts.append((points, a.nbytes + out.nbytes, real))
            return out

        return counted

    def install(self):
        """Wrap the frns layer boundaries and the FFT entry points."""
        import importlib

        import numpy.fft
        import scipy.fft
        import scipy.optimize

        replaced = {}
        for lib in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                orig = getattr(lib, fname)
                wrapped = replaced.get(id(orig)) or self.fft_wrapper(orig, fname)
                replaced[id(orig)] = wrapped
                setattr(lib, fname, wrapped)
        for layer in LAYERS:
            mod = importlib.import_module(f"frns.{layer}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif obj is scipy.optimize.brentq:
                    setattr(mod, attr, self.span_wrapper(obj, f"{layer}.brentq", layer))
                elif (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                      and obj.__module__.startswith("frns.")):
                    owner = obj.__module__.split(".")[1]
                    name = f"{owner}.{obj.__name__}"
                    setattr(mod, attr, self.span_wrapper(obj, name, owner))


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span: duration minus the union of its children's
    intervals (children on pool threads can overlap each other)."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    out = []
    for rec in spans:
        kids = children.get(id(rec))
        covered = 0.0
        if kids:
            covered = _union_length(
                [(max(lo, rec[START]), min(hi, rec[END])) for lo, hi in kids])
        out.append(rec[END] - rec[START] - covered)
    return out


def _peak_concurrency(intervals):
    events = sorted([(lo, 1) for lo, _ in intervals] + [(hi, -1) for _, hi in intervals])
    peak = cur = 0
    for _, step in events:
        cur += step
        peak = max(peak, cur)
    return peak


def layer_metrics(spans, ffts):
    """Per-layer metrics from spans and FFT counts.  Ratios come with their
    base counts as separate metrics."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for rec, s in zip(spans, selfs) if rec[LAYER] == layer)
        m[f"{layer}.calls"] = sum(
            1 for rec in spans
            if rec[LAYER] == layer and (rec[PARENT] is None or rec[PARENT][LAYER] != layer)
        )

    def count(name, parent_layer=None, parent_name=None):
        return sum(
            1 for rec in spans if rec[NAME] == name
            and (parent_layer is None or (rec[PARENT] is not None and rec[PARENT][LAYER] == parent_layer))
            and (parent_name is None or (rec[PARENT] is not None and rec[PARENT][NAME] == parent_name))
        )

    def outer_time(names):
        return sum(rec[END] - rec[START] for rec in spans
                   if rec[NAME] in names and (rec[PARENT] is None or rec[PARENT][NAME] not in names))

    m["cli.config_s"] = outer_time(("cli.load_config", "cli.build_config"))
    m["cli.write_s"] = outer_time(("cli.write_csv", "cli.write_svg", "cli.write_manifest"))

    m["operator.fft_calls"] = len(ffts)
    m["operator.fft_bytes"] = sum(b for _, b, _ in ffts)
    m["operator.fft_flops"] = sum(
        (2.5 if real else 5.0) * n * math.log2(n) for n, _, real in ffts if n > 1
    )

    m["model.g_eval_calls"] = count("model.g_eval")
    m["model.G_eval_calls"] = count("model.G_eval")

    grad = count("operator.apply_operator", parent_layer="solver")
    nehari = count("solver.brentq")
    nehari_g = count("model.g_eval", parent_name="solver.brentq")
    m["solver.gradient_evals"] = grad
    m["solver.nehari_solves"] = nehari
    m["solver.nehari_g_evals"] = nehari_g
    m["solver.trials_per_iteration"] = nehari / grad if grad else 0.0
    m["solver.g_evals_per_nehari_solve"] = nehari_g / nehari if nehari else 0.0
    solves = [rec for rec in spans if rec[NAME] in CPU_SPANS]
    m["solver.iteration_s"] = (sum(r[END] - r[START] for r in solves) / grad) if grad else 0.0
    intervals = [(r[START], r[END]) for r in solves]
    if intervals:
        m["solver.sweep_parallel_eff"] = sum(r[CPU] for r in solves) / (
            _peak_concurrency(intervals) * _union_length(intervals))
    else:
        m["solver.sweep_parallel_eff"] = 0.0
    return m


def self_time_by(spans, key):
    """Summed self time grouped by key(span), largest first."""
    acc = {}
    for rec, s in zip(spans, self_times(spans)):
        k = key(rec)
        acc[k] = acc.get(k, 0.0) + s
    return sorted(acc.items(), key=lambda kv: -kv[1])


def write_spans(spans, path):
    ids = {id(rec): i for i, rec in enumerate(spans)}
    threads = {}
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("id", "name", "layer", "start_s", "end_s", "parent", "thread"))
        for i, rec in enumerate(spans):
            parent = ids[id(rec[PARENT])] if rec[PARENT] is not None else ""
            thread = threads.setdefault(rec[THREAD], len(threads))
            w.writerow((i, rec[NAME], rec[LAYER], f"{rec[START]:.9f}", f"{rec[END]:.9f}", parent, thread))
