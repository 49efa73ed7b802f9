"""Model layer: potential family, penalized nonlinearity, threshold root,
and the energy and gradient that the solver's problem object builds
from them."""

import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import bisect

from frns.specfun import FracParams
from frns.operator import Grid
from frns.model import G_eval, g_eval, lambda_mask, potential_on_grid, potential_values
from frns.params import (
    AssumptionError,
    ModelConfig,
    NonlinearitySpec,
    PenalizationSpec,
    PotentialSpec,
    solve_penalization_threshold,
    validate_config,
)
from frns.solver import AutonomousConfig, NehariProblem, grid_for_eps
from frns.cli import build_config, load_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = [os.path.join(REPO, "configs", name)
           for name in ("double_well_2d.cfg", "single_well_1d.cfg")]


FRAC = FracParams(s=0.5, m=1.0, n_dim=2)
NL = NonlinearitySpec(lam=1.0, p=3.0, ar_theta=3.0, q=3.5)
POT = PotentialSpec(
    V1=0.2,
    V0=0.2,
    M_points=((-1.0, 0.0), (1.0, 0.0)),
    lambda_center=(0.0, 0.0),
    lambda_radius=2.5,
)


def default_config(eps=0.25, kappa=10.0):
    a = solve_penalization_threshold(FRAC, NL, POT.V1, kappa)
    return ModelConfig(frac=FRAC, eps=eps, potential=POT, nonlin=NL,
                       pen=PenalizationSpec(kappa=kappa, a=a))


class TestPotential:
    def test_wells_reach_the_depth(self):
        for mp in POT.M_points:
            v = potential_values(POT, np.array([mp[0]]), np.array([mp[1]]))
            assert v[0] == pytest.approx(-0.2, abs=1e-14)

    def test_bounded_between_minus_v0_and_v1_minus_v0(self):
        xs = np.linspace(-6, 6, 121)
        X, Y = np.meshgrid(xs, xs)
        v = potential_values(POT, X, Y)
        assert np.min(v) >= -0.2 - 1e-14
        assert np.max(v) <= -0.2 + POT.barrier + 1e-14

    @pytest.mark.parametrize("pot", [
        POT,
        replace(POT, lambda_radius=1.5),  # the sphere passes 0.5 from a well, on the ramp
        PotentialSpec(V1=0.2, V0=0.2, M_points=((0.3,), (-0.1,)), lambda_center=(0.05,),
                      lambda_radius=1.0),
    ], ids=["2d", "2d_on_ramp", "1d"])
    def test_boundary_min_is_the_minimum_on_the_sphere(self, pot):
        # the closed form is exact: no sample of the sphere reads lower, and
        # a dense one comes within its spacing squared
        c, R = pot.lambda_center, pot.lambda_radius
        if len(c) == 1:
            sphere = (np.array([c[0] - R, c[0] + R]),)
        else:
            phi = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
            sphere = (c[0] + R * np.cos(phi), c[1] + R * np.sin(phi))
        sampled = float(np.min(potential_values(pot, *sphere)))
        exact = pot.boundary_min()
        assert -0.2 < exact <= sampled + 1e-15
        assert sampled - exact < 1e-8

    def test_lambda_membership(self):
        assert POT.in_lambda(np.array([0.0]), np.array([0.0]))[0]
        assert not POT.in_lambda(np.array([3.0]), np.array([0.0]))[0]

    def test_validate_accepts_default(self):
        validate_config(default_config())

    def test_validate_rejects_well_outside_lambda(self):
        bad_pot = PotentialSpec(
            V1=0.2, V0=0.2, M_points=((4.0, 0.0),),
            lambda_center=(0.0, 0.0), lambda_radius=2.5,
        )
        a = solve_penalization_threshold(FRAC, NL, 0.2, 10.0)
        with pytest.raises(AssumptionError):
            cfg = ModelConfig(frac=FRAC, eps=0.25, potential=bad_pot, nonlin=NL,
                              pen=PenalizationSpec(kappa=10.0, a=a))
            validate_config(cfg)

    def test_validate_rejects_depth_at_or_above_m2s(self):
        bad_pot = PotentialSpec(
            V1=1.0, V0=1.0, M_points=((-1.0, 0.0),),
            lambda_center=(0.0, 0.0), lambda_radius=2.5,
        )
        with pytest.raises(AssumptionError):
            a = solve_penalization_threshold(FRAC, NL, 1.0, 10.0)
            cfg = ModelConfig(frac=FRAC, eps=0.25, potential=bad_pot, nonlin=NL,
                              pen=PenalizationSpec(kappa=10.0, a=a))
            validate_config(cfg)


class TestPenalizationThreshold:
    def test_root_by_independent_bisection(self):
        # f(a) + a^{2*-1} = (V1/kappa) a, smallest positive root
        kappa, V1 = 10.0, 0.2
        a = solve_penalization_threshold(FRAC, NL, V1, kappa)

        def mismatch(t):
            return NL.f(t) + t ** (FRAC.two_star - 1.0) - (V1 / kappa) * t

        ref = bisect(mismatch, 1e-12, 1.0, xtol=1e-15)
        assert a == pytest.approx(ref, rel=1e-9)
        assert abs(mismatch(a)) < 1e-12

    def test_root_decreases_with_kappa(self):
        roots = [solve_penalization_threshold(FRAC, NL, 0.2, k)
                 for k in (5.0, 10.0, 40.0)]
        assert roots[0] > roots[1] > roots[2] > 0

    def test_pure_power_closed_form(self):
        # with f = lam t^{p-1}, p = 3, the defining equation
        # lam a^2 + a^3 = (V1/kappa) a reduces to a quadratic in a
        frac = FracParams(s=0.5, m=1.0, n_dim=2)
        nl = NonlinearitySpec(lam=2.0, p=3.0, ar_theta=3.0, q=3.5)
        a = solve_penalization_threshold(frac, nl, 0.3, 8.0)
        lam, ratio = 2.0, 0.3 / 8.0
        root = 0.5 * (-lam + np.sqrt(lam * lam + 4.0 * ratio))
        assert a == pytest.approx(root, rel=1e-12)


class TestPenalizedNonlinearity:
    def test_g_matches_f_inside(self):
        cfg = default_config()
        t = np.linspace(0.0, 2.0, 50)
        inside = np.ones_like(t, dtype=bool)
        ref = NL.f(t) + np.maximum(t, 0.0) ** 3
        assert np.allclose(g_eval(cfg, inside, t), ref, rtol=1e-14)

    def test_g_linear_above_a_outside(self):
        cfg = default_config()
        a = cfg.pen.a
        t = np.array([2 * a, 10 * a, 1.0])
        outside = np.zeros_like(t, dtype=bool)
        ref = (cfg.potential.V1 / cfg.pen.kappa) * t
        assert np.allclose(g_eval(cfg, outside, t), ref, rtol=1e-14)

    def test_g_continuous_at_seam(self):
        cfg = default_config()
        a = cfg.pen.a
        outside = np.zeros(1, dtype=bool)
        lo = g_eval(cfg, outside, np.array([a * (1 - 1e-9)]))[0]
        hi = g_eval(cfg, outside, np.array([a * (1 + 1e-9)]))[0]
        assert hi == pytest.approx(lo, rel=1e-6)

    def test_g_vanishes_for_nonpositive(self):
        cfg = default_config()
        t = np.array([-1.0, -1e-8, 0.0])
        for mask in (np.ones_like(t, dtype=bool), np.zeros_like(t, dtype=bool)):
            assert np.all(g_eval(cfg, mask, t) == 0.0)

    def test_g_over_t_nondecreasing(self):
        # (g4): g(x, t)/t nondecreasing in t > 0
        cfg = default_config()
        t = np.geomspace(1e-6, 10.0, 400)
        for mask_val in (True, False):
            mask = np.full_like(t, mask_val, dtype=bool)
            ratio = g_eval(cfg, mask, t) / t
            assert np.all(np.diff(ratio) >= -1e-14)

    def test_g_bounded_by_penalty_slope_outside(self):
        # (g2): g <= (V1/kappa) t outside Lambda for all t
        cfg = default_config()
        t = np.geomspace(1e-8, 100.0, 300)
        outside = np.zeros_like(t, dtype=bool)
        bound = (cfg.potential.V1 / cfg.pen.kappa) * t
        assert np.all(g_eval(cfg, outside, t) <= bound * (1 + 1e-12))

    def test_G_is_primitive_of_g(self):
        cfg = default_config()
        for mask_val in (True, False):
            for t_end in (0.5 * cfg.pen.a, 3.0 * cfg.pen.a, 1.5):
                mask = np.array([mask_val])
                ref, err = quad(
                    lambda tt: g_eval(cfg, mask, np.array([tt]))[0], 0.0, t_end,
                    points=[cfg.pen.a], limit=200,
                )
                assert err < 1e-12
                got = G_eval(cfg, mask, np.array([t_end]))[0]
                assert got == pytest.approx(ref, rel=1e-10)


def _g_all_pow(config, in_lambda, t):
    """g(x, t) with every entry, zeros and negatives too, through pow."""
    nl, pot, pen = config.nonlin, config.potential, config.pen
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    full = nl.f(tp) + tp ** (config.two_star - 1.0)
    linear = (pot.V1 / pen.kappa) * t
    outside_high = np.logical_and(np.logical_not(in_lambda), t >= pen.a)
    return np.where(outside_high, linear, full)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_g_skipping_pow_on_nonpositive_is_bit_equal(path):
    # g_eval takes pow only where t > 0; the values must not move
    cfg, _ = build_config(load_config(path))
    grid = grid_for_eps(cfg, cfg.eps, 64)
    mask = lambda_mask(cfg, grid)
    a = cfg.pen.a
    rng = np.random.default_rng(0)
    t = rng.permutation(np.linspace(-a, 3.0 * a, grid.total_points)).reshape(grid.shape)
    t.flat[::4] = 0.0
    t.flat[1] = a
    outside = np.logical_not(mask)
    assert np.any(t < 0.0) and np.any(t == 0.0)
    assert np.any(mask & (t > 0.0)) and np.any(outside & (t == a))
    assert np.any(outside & (t > a))
    assert np.array_equal(g_eval(cfg, mask, t), _g_all_pow(cfg, mask, t))


class TestEnergyAndGradient:
    def test_gradient_matches_directional_derivative(self):
        grid = Grid(2, 64, 12.0)
        problems = (
            NehariProblem.penalized(default_config(), grid),
            NehariProblem.autonomous(AutonomousConfig(mu=-0.2, frac=FRAC, nonlin=NL), grid),
        )
        rng = np.random.default_rng(42)
        for problem in problems:
            for _ in range(5):
                u = np.abs(rng.standard_normal(grid.shape))
                v = rng.standard_normal(grid.shape)
                d = 1e-6
                fd = (problem.energy(u + d * v) - problem.energy(u - d * v)) / (2 * d)
                pairing = grid.spacing**2 * np.sum(problem.gradient(u) * v)
                assert pairing == pytest.approx(fd, rel=1e-6)

    def test_mountain_pass_geometry_along_a_ray(self):
        # J(t u) rises from 0, peaks, then goes to -infinity
        grid = Grid(2, 64, 12.0)
        problem = NehariProblem.penalized(default_config(), grid)
        r2 = grid.radii(center=(-4.0, 0.0)) ** 2
        u = np.exp(-r2 / 2.0)
        ts = np.linspace(0.01, 8.0, 120)
        vals = np.array([problem.energy(t * u) for t in ts])
        # J(t u) from the quadratic form of u alone matches the direct value
        quad = problem.quadratic(u)
        scaled = np.array([problem.energy(u, quad, t) for t in ts])
        assert np.allclose(scaled, vals, rtol=1e-12, atol=0.0)
        assert vals[0] > 0.0
        assert np.max(vals) > vals[0]
        assert vals[-1] < 0.0

    def test_potential_on_grid_scales_with_eps(self):
        cfg = default_config(eps=0.5)
        # h = 0.25 so the blown-up well at x = -2 lands exactly on the lattice
        grid = Grid(2, 64, 8.0)
        V = potential_on_grid(cfg, grid)
        # the well at (-1, 0) appears at x = -2 in blown-up coordinates
        ax = grid.axis()
        i = np.argmin(np.abs(ax + 2.0))
        j = np.argmin(np.abs(ax))
        assert V[i, j] == pytest.approx(-0.2, abs=1e-10)

    def test_lambda_mask_radius(self):
        cfg = default_config(eps=0.5)
        grid = Grid(2, 64, 10.0)
        mask = lambda_mask(cfg, grid)
        r = grid.radii()
        assert np.all(mask[r < 4.9])
        assert not np.any(mask[r > 5.1])
