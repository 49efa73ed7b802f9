"""Brent root finder (params.brentq) against scipy.optimize.brentq.

The port must reproduce scipy's iterates bit for bit: every comparison
below records the points at which each implementation evaluates f and
requires the same sequence and the same root, on the two equations the
package solves (Nehari mismatch and penalization threshold) and on
analytic functions.
"""

import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import frns.params as params
import frns.solver as solver
from frns.cli import build_config, load_config
from frns.solver import NehariMoments, NehariProblem, default_init, grid_for_eps
from frns.params import brentq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = [os.path.join(REPO, "configs", name)
           for name in ("double_well_2d.cfg", "single_well_1d.cfg")]


def compare_with_scipy(f, a, b, **kwargs):
    """Root from both implementations; asserts equal roots and iterates."""
    seen, seen_ref = [], []
    root = brentq(lambda x: seen.append(x) or f(x), a, b, **kwargs)
    ref = scipy_brentq(lambda x: seen_ref.append(x) or f(x), a, b, **kwargs)
    assert seen == seen_ref
    assert root == ref
    return root


@pytest.fixture
def twin_calls(monkeypatch):
    """Route the package's brentq calls through compare_with_scipy."""
    calls = []

    def twin(f, a, b, **kwargs):
        calls.append((a, b))
        return compare_with_scipy(f, a, b, **kwargs)

    # the threshold solve runs in params, the Nehari scaling in solver
    monkeypatch.setattr(params, "brentq", twin)
    monkeypatch.setattr(solver, "brentq", twin)
    return calls


@pytest.mark.parametrize("path", CONFIGS, ids=["2d", "1d"])
def test_threshold_equation_matches_scipy(path, twin_calls):
    cfg, _ = build_config(load_config(path))
    # build_config solves the threshold equation, validate_config again
    assert len(twin_calls) == 2
    assert cfg.pen.a > 0.0


@pytest.mark.parametrize("path", CONFIGS, ids=["2d", "1d"])
def test_nehari_mismatch_matches_scipy(path, twin_calls):
    cfg, settings = build_config(load_config(path))
    grid = grid_for_eps(cfg, cfg.eps, settings.points_per_dim)
    problem = NehariProblem.penalized(cfg, grid)
    a, outside = cfg.pen.a, ~problem.in_lambda
    start = default_init(cfg, grid)
    twin_calls.clear()
    t0, _ = problem.nehari_scale(start)
    # the start bump is far below a outside Lambda_eps; raise the outside
    # values to [0, 3 a / t0] so that the truncated branch acts at the root
    lifted = start.copy()
    lifted[outside] = np.random.default_rng(1).uniform(0.0, 3.0 * a / t0, int(outside.sum()))
    t1, _ = problem.nehari_scale(lifted)
    assert len(twin_calls) == 2
    linear = int(np.sum(outside & (t1 * lifted >= a)))
    assert 0 < linear < int(outside.sum())
    assert t1 * NehariMoments(problem, lifted).max_out >= a


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
], ids=["cubic", "cos"])
@pytest.mark.parametrize("tols", [
    {},
    {"xtol": 1e-300, "rtol": 8.9e-16, "maxiter": 200},
], ids=["defaults", "nehari_tols"])
def test_analytic_roots_match_scipy(f, a, b, tols):
    root = compare_with_scipy(f, a, b, **tols)
    assert abs(f(root)) < 1e-12


def test_seeded_families_match_scipy():
    # roots at random places, so that the interpolation, extrapolation
    # and bisection branches and the step-acceptance test all take turns
    rng = np.random.default_rng(0)
    for r, c0, c1 in rng.uniform(-2.0, 2.0, (300, 3)):
        compare_with_scipy(
            lambda x: (x - r) * (1.0 + c0 * c0 + c1 * c1 * x * x), -3.0, 3.0)
        compare_with_scipy(
            lambda x: math.tanh(5.0 * (x - r)) + 1e-3 * c0 * (x - r) ** 3, -3.0, 3.0,
            xtol=1e-300, rtol=8.9e-16, maxiter=200)


def test_endpoint_root_returns_endpoint():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_value_raises():
    with pytest.raises(ValueError):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 2.0)


def test_maxiter_exhausted_raises():
    with pytest.raises(RuntimeError):
        brentq(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=2)
