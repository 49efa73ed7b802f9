"""params.cores and params.parallel_map, the program's one use of threads.

`cores()` and `threading.Thread` are patched so that no test starts more
than a few real threads."""

import os
import sys
import threading
import time

import numpy as np
import pytest

import frns.params as params
from frns.cli import build_config, load_config
from frns.operator import estimate_s_star
from frns.params import parallel_map

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = [os.path.join(REPO, "configs", name)
           for name in ("double_well_2d.cfg", "single_well_1d.cfg")]


class CountingThread(threading.Thread):
    """Counts the threads made and refuses the ninth, so that a helper
    that ignored `len(items)` fails here instead of making 10**6."""

    made = 0

    def __init__(self, *args, **kwargs):
        if type(self).made >= 8:
            raise RuntimeError("more than 8 threads made")
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def threads(monkeypatch):
    """Counts the threads parallel_map makes."""
    monkeypatch.setattr(CountingThread, "made", 0)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    return CountingThread


def test_cores_is_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert params.cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert params.cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert params.cores() == 1


def test_results_come_back_in_input_order(monkeypatch, threads):
    # the first items finish last, so completion order is not input order
    monkeypatch.setattr(params, "cores", lambda: 3)

    def slow_square(x):
        time.sleep(0.002 * (6 - x))
        return x * x

    assert parallel_map(slow_square, range(6)) == [x * x for x in range(6)]
    assert threads.made == 2


@pytest.mark.parametrize("items", [1, 2, 5])
def test_never_more_threads_than_items(monkeypatch, threads, items):
    monkeypatch.setattr(params, "cores", lambda: 10**6)
    assert parallel_map(lambda x: -x, range(items)) == [-x for x in range(items)]
    assert threads.made == items - 1
    assert parallel_map(lambda x: -x, range(items), workers=2) == [-x for x in range(items)]
    assert threads.made == items - 1 + min(2, items) - 1


def test_one_core_starts_no_thread(monkeypatch, threads):
    monkeypatch.setattr(params, "cores", lambda: 1)
    callers = set()

    def record(x):
        callers.add(threading.get_ident())
        return x + 1

    assert parallel_map(record, range(4)) == [1, 2, 3, 4]
    assert parallel_map(record, range(4), workers=1) == [1, 2, 3, 4]
    assert parallel_map(record, []) == []
    assert threads.made == 0
    assert callers == {threading.get_ident()}


def test_lowest_failing_index_is_raised_after_every_item(monkeypatch, threads):
    # item 5 fails at once, item 3 later; every item still runs
    monkeypatch.setattr(params, "cores", lambda: 2)
    ran = []

    def fail_at_3_and_5(x):
        if x == 3:
            time.sleep(0.01)
        ran.append(x)
        if x in (3, 5):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 3"):
        parallel_map(fail_at_3_and_5, range(8))
    assert sorted(ran) == list(range(8))
    assert threads.made == 1


def test_each_item_runs_once_under_contention(monkeypatch):
    # more threads than cores, switching every microsecond: every item is
    # still handed out exactly once
    monkeypatch.setattr(params, "cores", lambda: 6)
    calls = [0] * 300
    lock = threading.Lock()

    def count(x):
        with lock:
            calls[x] += 1
        return sum(range(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel_map(count, range(300))
    finally:
        sys.setswitchinterval(interval)
    assert out == [sum(range(x)) for x in range(300)]
    assert calls == [1] * 300


def test_workers_run_in_the_callers_errstate(monkeypatch):
    # numpy 2's errstate is a context variable: a thread started without
    # a copy of the caller's context would only warn on the overflow.  The
    # barrier makes both threads hold an item at once.
    monkeypatch.setattr(params, "cores", lambda: 2)
    both = threading.Barrier(2, timeout=10)

    def overflow(_):
        both.wait()
        try:
            np.float64(1e308) * 10.0
        except FloatingPointError:
            return "raised", threading.get_ident()
        return "passed", threading.get_ident()

    with np.errstate(over="raise"):
        out = parallel_map(overflow, range(2))
    assert [verdict for verdict, _ in out] == ["raised", "raised"]
    assert len({ident for _, ident in out}) == 2


@pytest.mark.parametrize("path", CONFIGS, ids=["2d", "1d"])
def test_s_star_quotients_do_not_depend_on_the_thread_count(monkeypatch, path):
    frac = build_config(load_config(path))[0].frac
    out = {}
    for n in (1, 2):
        monkeypatch.setattr(params, "cores", lambda: n)
        out[n] = estimate_s_star(frac)
    assert out[1]["quotients"] == out[2]["quotients"]
    assert out[1]["estimate"] == out[2]["estimate"]
