"""Solver layer: Nehari scaling, constrained descent, levels, decay fit,
trace-constant estimate and the concentration sweep helpers."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frns.specfun import FracParams, sobolev_trace_constant
from frns.operator import Field, Grid, estimate_s_star, half_spectrum
from frns.params import (
    ModelConfig,
    NonlinearitySpec,
    PotentialSpec,
)
from frns.solver import (
    NehariMoments,
    NehariProblem,
    NoBracketError,
    NoPositivePartError,
    SolveResult,
    Tolerances,
    autonomous_ground_state,
    concentration_sweep,
    decay_annulus,
    decay_fit,
    default_init,
    dist_to_wells,
    gaussian_bump,
    grid_for_eps,
    ground_state,
    mp_threshold,
    nehari_scale,
    verify_solution_region,
    zeta_constant,
)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CFG_1D = os.path.join(CONFIGS, "single_well_1d.cfg")
CFG_2D = os.path.join(CONFIGS, "double_well_2d.cfg")
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
    return ModelConfig(frac=FRAC, eps=eps, potential=POT, nonlin=NL, kappa=kappa)


@pytest.fixture(scope="module")
def solved():
    """One converged 64^2 penalized solve shared across the module."""
    cfg = default_config()
    grid = Grid(2, 64, 18.0)
    res = ground_state(cfg, grid)
    return cfg, grid, res


class TestNehariScale:
    def test_scaling_covariance(self):
        # t_{cu} = t_u / c: the Nehari point of a rescaled field rescales back
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        u = Field(grid=grid, values=default_init(cfg, grid))
        t1 = nehari_scale(u, cfg)
        u3 = Field(grid=grid, values=3.0 * u.values)
        t3 = nehari_scale(u3, cfg)
        assert t3 == pytest.approx(t1 / 3.0, rel=1e-12)

    def test_tiny_field_keeps_scale_covariance(self):
        # at amplitude 1e-60 the root is near t = 1e60, where the mismatch
        # and its slopes are so small that brentq's extrapolation
        # denominator underflows to 0 and it bisects
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        problem = NehariProblem.penalized(cfg, grid)
        t1 = NehariMoments(problem, gaussian_bump(grid, (-4.0, 0.0))).scale()[0]
        amp = 1e-60
        t = NehariMoments(problem, gaussian_bump(grid, (-4.0, 0.0), amplitude=amp)).scale()[0]
        assert t * amp == pytest.approx(t1, rel=1e-12)

    @pytest.mark.parametrize("amp", [1e-80, 1e-100, 1e-150, 1e-160])
    def test_overflowing_power_leaves_no_bracket(self, amp):
        # the root t ~ 1/amp takes t^(2* - 2) and t^(2*) past the largest
        # float, where Python's pow raises rather than return inf; at
        # 1e-160 it lies past the scan's end 2^(1023/2)
        grid = Grid(2, 64, 18.0)
        problem = NehariProblem.penalized(default_config(), grid)
        u = gaussian_bump(grid, (-4.0, 0.0), amplitude=amp)
        with pytest.raises(NoBracketError, match="no Nehari bracket"):
            NehariMoments(problem, u).scale()

    def test_root_short_of_overflow_is_bracketed(self):
        # at s = 0.99999, 2*_s = 200000: the scan's first step 2^(512/199998)
        # takes t^(2* - 2) to 2^512 and a second would take it to 2^1024,
        # past the largest float; the scan ends at 2^(1023/199998) instead,
        # so the 64^2 start's root, where t^(2* - 2) is about 6e170, is found
        frac = FracParams(s=0.99999, m=1.0, n_dim=2)
        cfg = ModelConfig(frac=frac, eps=0.25, potential=POT, nonlin=NL, kappa=10.0)
        grid = Grid(2, 64, 18.0)
        problem = NehariProblem.penalized(cfg, grid)
        t, level = NehariMoments(problem, default_init(cfg, grid)).scale()
        assert 1.0017760 < t < 1.0035553
        assert np.isfinite(level)

    def test_autonomous_closed_form(self):
        # for g(t) = lam t^2 + t^3 the Nehari equation is a quadratic in t:
        # t^2 B + t A - Q = 0 with A = lam sum u^3 h^N, B = sum u^4 h^N,
        # Q = <Au, u> - V0 ||u||^2
        grid = Grid(2, 64, 12.0)
        vals = gaussian_bump(grid, (0.3, -0.5), width=1.3)
        u = Field(grid=grid, values=vals)
        t = NehariMoments(NehariProblem.autonomous(default_config(), grid), vals).scale()[0]
        from frns.operator import apply_operator, build_symbol, inner

        table = build_symbol(grid, FRAC)
        hN = grid.spacing**2
        Q = inner(apply_operator(u, table), u) - 0.2 * hN * float(np.sum(vals**2))
        A = NL.lam * hN * float(np.sum(vals**3))
        B = hN * float(np.sum(vals**4))
        root = (-A + np.sqrt(A * A + 4.0 * B * Q)) / (2.0 * B)
        assert t == pytest.approx(root, rel=1e-12)

    def test_moments_match_pointwise(self):
        # the moment mismatch and J(t u) against the grid sums, at t where
        # the truncated set outside Lambda_eps is empty, partial and full
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        penalized = NehariProblem.penalized(cfg, grid)
        autonomous = NehariProblem.autonomous(cfg, grid)
        a, outside = cfg.a, ~penalized.in_lambda
        rng = np.random.default_rng(9)
        u = gaussian_bump(grid, (-4.0, 0.0))
        # outside Lambda_eps: values in [a/2, 4a] on a third of the points,
        # negative values (which must not count) on another third, zeros
        draw = rng.uniform(0.5 * a, 4.0 * a, grid.shape)
        pick = rng.integers(0, 3, grid.shape)
        u[outside] = np.choose(pick, (draw, -draw, 0.0))[outside]
        w = u[outside & (u > 0.0)]
        ts = (0.5 * a / w.max(), a / np.median(w), 1.01 * a / w.min())
        linear = [int(np.sum(outside & (t * u >= a))) for t in ts]
        assert linear[0] == 0 and 0 < linear[1] < w.size and linear[2] == w.size
        hN = grid.spacing**2
        for problem in (penalized, autonomous):
            moments = NehariMoments(problem, u)
            quad = problem.quadratic(u)
            for t in ts:
                pointwise = quad - hN * float(np.sum(problem.g(t * u) * u)) / t
                assert moments.mismatch(t) == pytest.approx(pointwise, rel=1e-12)
                assert moments.energy(t) == pytest.approx(
                    problem.energy(u, quad, t), rel=1e-12)
                # Lambda is the whole box: nothing truncated at any t
                if problem is autonomous:
                    assert moments._split(t)[2] == 0

    def test_kept_spectrum_gives_the_gradient_of_the_scaled_field(self):
        # the descent takes J'(t u) from the half spectrum of u that the
        # Nehari scaling transformed, scaled by t
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        problem = NehariProblem.penalized(cfg, grid)
        u = gaussian_bump(grid, (-4.0, 0.0))
        moments = NehariMoments(problem, u)
        t, _ = moments.scale()
        direct = problem.gradient(t * u)
        reused = problem.gradient(t * u, t * moments.vhat)
        assert np.max(np.abs(reused - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_rejects_nonpositive_field(self):
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        u = Field(grid=grid, values=-np.ones(grid.shape))
        with pytest.raises(NoPositivePartError):
            nehari_scale(u, cfg)


class ExtractedMoments(NehariMoments):
    """NehariMoments by boolean extraction and pow: the sums run over the
    values u > 0 taken out inside and outside Lambda, the sorted outside
    values are built from those, and `scale` and `energy` are inherited."""

    def __init__(self, problem, u_vals):
        pos = u_vals > 0.0
        inside = np.logical_and(pos, problem.in_lambda)
        if not inside.any():
            raise NoPositivePartError("no u > 0 inside Lambda")
        self.problem = problem
        self.vhat = half_spectrum(u_vals, problem.table.even_axes)
        self.quad = problem.quadratic(u_vals, self.vhat)
        self.exponents = [e for _, e in problem.config.terms]
        u_in, w_in = u_vals[inside], problem.weight[inside]
        out = np.logical_and(pos, np.logical_not(problem.in_lambda))
        self.u_out, self.w_out = u_vals[out], problem.weight[out]
        self.sums_in = tuple(float(np.sum(w_in * u_in**e)) for e in self.exponents)
        self.sums = tuple(s_in + float(np.sum(self.w_out * self.u_out**e))
                          for s_in, e in zip(self.sums_in, self.exponents))
        self.max_out = float(np.max(self.u_out, initial=0.0))

    def _split(self, t):
        cfg = self.problem.config
        if t * self.max_out < cfg.a:
            return self.sums, 0.0, 0
        order = np.argsort(self.u_out)
        w, mult = self.u_out[order], self.w_out[order]
        k = int(np.searchsorted(w, cfg.a / t))
        lin = slice(k, None)
        return (tuple(s_in + float(np.sum((mult * w**e)[:k]))
                      for s_in, e in zip(self.sums_in, self.exponents)),
                float(np.sum((mult * w * w)[lin])), float(np.sum(mult[lin])))


class TestMomentsAgainstExtraction:
    """The dot-product moments against `ExtractedMoments`, the sums over
    extracted positive values with pow."""

    @staticmethod
    def cases():
        """(name, problem, candidate): a descent iterate on the block of the
        2D config's descent, that iterate with its outside values lifted
        so that the truncated branch acts at the root, a field with
        negative values, and non-integer p and 2*."""
        from frns.cli import build_config, load_config
        from frns.solver import _nehari_cg

        cfg, settings = build_config(load_config(CFG_2D))
        grid = grid_for_eps(cfg, cfg.eps, settings.points_per_dim)
        problem = NehariProblem.penalized(cfg, grid).even_block((1,))
        start = grid.block(default_init(cfg, grid), (1,))
        u = _nehari_cg(problem, start, Tolerances(max_iterations=3))[0]
        t0 = NehariMoments(problem, u).scale()[0]
        outside = ~problem.in_lambda
        lifted = u.copy()
        lifted[outside] = np.random.default_rng(1).uniform(0.0, 3.0 * cfg.a / t0,
                                                           int(outside.sum()))
        signed = u - 0.1 * np.max(u) * np.cos(np.arange(u.size).reshape(u.shape))
        frac = FracParams(s=0.3, m=1.0, n_dim=2)
        odd = ModelConfig(frac=frac, eps=0.25, potential=POT,
                          nonlin=NonlinearitySpec(lam=1.0, p=2.5, ar_theta=2.5, q=2.7),
                          kappa=10.0)
        grid64 = Grid(2, 64, 18.0)
        odd_u = gaussian_bump(grid64, (-4.0, 0.0)) - 0.05
        return [("iterate", problem, u), ("truncated", problem, lifted),
                ("signed", problem, signed),
                ("non_integer", NehariProblem.penalized(odd, grid64), odd_u)]

    def test_sums_scale_and_level_match(self):
        acted = {}
        for name, problem, u in self.cases():
            new, ref = NehariMoments(problem, u), ExtractedMoments(problem, u)
            for key in ("sums_in", "sums", "max_out"):
                assert getattr(new, key) == pytest.approx(getattr(ref, key), rel=1e-13), \
                    (name, key)
            t, E = new.scale()
            t_ref, E_ref = ref.scale()
            assert t == pytest.approx(t_ref, rel=1e-13), name
            assert E == pytest.approx(E_ref, rel=1e-13), name
            acted[name] = t * new.max_out >= problem.config.a
        assert acted["truncated"] and not acted["iterate"]

    def test_split_and_energy_on_both_sides_of_the_seam(self):
        # t * max(u outside) / a from 0.5 (the full sums) to 1e6 (the
        # masked ones): the lifted iterate, and the field of
        # test_nehari_scan_has_no_fixed_bound, whose outside part dominates
        scan = 0.01171875 * (
            gaussian_bump(GRID_32, (0.0, 0.0), width=0.8125, amplitude=0.05078125)
            + gaussian_bump(GRID_32, (13.0, 0.0), amplitude=14.0))
        truncated = {name: (problem, u) for name, problem, u in self.cases()}["truncated"]
        for problem, u in (truncated, (PROBLEMS_32["penalized"], scan)):
            new, ref = NehariMoments(problem, u), ExtractedMoments(problem, u)
            for ratio in (0.5, 1.0, 1.5, 4.0, 100.0, 1e4, 1e6):
                t = ratio * problem.config.a / new.max_out
                split, want = new._split(t), ref._split(t)
                for got, expected in zip(split[0] + split[1:], want[0] + want[1:]):
                    assert got == pytest.approx(expected, rel=1e-13), ratio
                assert new.energy(t) == pytest.approx(ref.energy(t), rel=1e-12), ratio
                if ratio != 1.0:
                    assert (split[2] > 0.0) == (ratio > 1.0), ratio

    def test_no_positive_part_exactly_when_none_inside(self):
        cfg = default_config()
        grid = Grid(2, 64, 18.0)
        problem = NehariProblem.penalized(cfg, grid)
        inside = problem.in_lambda
        bump = gaussian_bump(grid, (-4.0, 0.0))
        fields = {
            "negative": -bump,
            "zero": np.zeros(grid.shape),
            "outside_only": np.where(inside, -bump, 1.0),
            "one_inside": np.where(inside, 0.0, 1.0),
            "subnormal_inside": np.where(inside, 0.0, 1.0),
            "bump": bump,
        }
        fields["one_inside"][grid.points_per_dim // 2, grid.points_per_dim // 2] = 0.5
        # u^(2*) underflows to 0, yet u > 0: no error
        fields["subnormal_inside"][grid.points_per_dim // 2, grid.points_per_dim // 2] = 5e-324
        raised = {}
        for name, u in fields.items():
            for moments in (NehariMoments, ExtractedMoments):
                try:
                    moments(problem, u)
                    raised.setdefault(name, []).append(False)
                except NoPositivePartError:
                    raised.setdefault(name, []).append(True)
            assert raised[name] == [not np.any(u[inside] > 0.0)] * 2, name


class TestGroundState:
    def test_converges_below_threshold(self, solved):
        cfg, grid, res = solved
        assert res.converged
        assert 0.0 < res.energy < mp_threshold(cfg)
        assert res.nehari_residual <= 1e-10
        assert res.grad_residual <= 1e-6

    def test_energy_matches_direct_evaluation(self, solved):
        # the descent tracks E as J(t u) from the quadratic form of u
        cfg, grid, res = solved
        direct = NehariProblem.penalized(cfg, grid).energy(res.field.values)
        assert res.energy == pytest.approx(direct, rel=1e-12)

    def test_nonnegative_field(self, solved):
        _, _, res = solved
        assert float(np.min(res.field.values)) >= -1e-12

    def test_argmax_near_a_well(self, solved):
        cfg, _, res = solved
        # blown-up wells sit at (+-1, 0)/eps = (+-4, 0)
        wells = tuple(tuple(c / cfg.eps for c in mp) for mp in cfg.potential.M_points)
        assert dist_to_wells(res.argmax_point, wells) < 1.0

    def test_stays_below_penalization_threshold(self, solved):
        cfg, _, res = solved
        report = verify_solution_region(res, cfg)
        assert report["below_threshold"]
        assert report["max_outside_lambda"] < cfg.a

    def test_deterministic_for_fixed_seed(self, solved):
        cfg, grid, res = solved
        res2 = ground_state(cfg, grid)
        assert res2.energy == res.energy
        assert np.array_equal(res2.field.values, res.field.values)

    def test_first_failed_line_search_ends_the_descent(self, monkeypatch):
        import frns.solver as solver

        # no descent reaches grad = 1e-16.  A line search along the
        # steepest direction (beta = 0) that rejects all 40 trial steps
        # leaves u, the gradient and the direction unchanged, so another
        # search could only retry smaller steps: it ends the run.  The run
        # on the block even in y ends so above tol.grad, and the descent
        # continues on the full grid, whose run ends the same way
        searches, runs = [], []
        real_direction, real_search, real_cg = (
            solver._descent_direction, solver._line_search, solver._nehari_cg)

        def direction(*args):
            out = real_direction(*args)
            searches.append([out[2], None])
            return out

        def search(*args):
            found = real_search(*args)
            searches[-1][1] = found is None
            return found

        def cg(*args):
            searches.clear()
            out = real_cg(*args)
            runs.append((out[2], [tuple(s) for s in searches]))
            return out

        monkeypatch.setattr(solver, "_descent_direction", direction)
        monkeypatch.setattr(solver, "_line_search", search)
        monkeypatch.setattr(solver, "_nehari_cg", cg)
        res = ground_state(default_config(), Grid(2, 64, 18.0),
                           tolerances=Tolerances(grad=1e-16))
        assert not res.converged and res.descents == (((1,), True),)
        assert len(runs) == 2 and res.iterations == runs[0][0] + runs[1][0]
        for _, run in runs:
            failed_steepest = [i for i, (beta, failed) in enumerate(run) if failed and beta == 0.0]
            assert failed_steepest == [len(run) - 1]

    def test_failed_cg_search_is_retried_along_the_steepest_direction(self, monkeypatch):
        import frns.solver as solver

        # reject the first line search along a CG direction (beta > 0):
        # the same iteration searches again along P pg, and the descent
        # goes on to converge at the level of the unforced descent
        betas, searches = [], []
        real_direction, real_search = solver._descent_direction, solver._line_search

        def direction(*args):
            out = real_direction(*args)
            betas.append(out[2])
            return out

        def search(problem, u, d, E, step):
            searches.append((betas[-1], u))
            if betas[-1] > 0.0 and sum(b > 0.0 for b, _ in searches) == 1:
                return None
            return real_search(problem, u, d, E, step)

        monkeypatch.setattr(solver, "_descent_direction", direction)
        monkeypatch.setattr(solver, "_line_search", search)
        res = ground_state(default_config(), Grid(2, 64, 18.0))
        k = next(i for i, (b, _) in enumerate(searches) if b > 0.0)
        assert searches[k + 1][0] == 0.0 and searches[k + 1][1] is searches[k][1]
        assert res.converged
        assert res.energy == pytest.approx(0.458183, abs=1e-6)

    def test_best_descent_packages_only_the_winner(self, monkeypatch):
        import frns.solver as solver

        # converged beats a lower unconverged level; a later start wins
        # when it is lower by 1e-9 relative, not when it is 1 ulp lower
        # (a round-off tie keeps the earlier start)
        winner = 2.0 * (1.0 - 1e-9)
        runs = iter([("a", 1.0, 5, False, None, "A"), ("b", 2.0, 6, True, None, "B"),
                     ("c", winner, 7, True, None, "C"),
                     ("d", np.nextafter(winner, 0.0), 8, True, None, "D"),
                     ("e", 0.5, 9, False, None, "E")])
        packaged = []
        monkeypatch.setattr(solver, "_descend", lambda problem, start, tol: next(runs))
        monkeypatch.setattr(solver, "_package_result",
                            lambda problem, *best, descents: packaged.append(best) or descents)
        problem = NehariProblem.autonomous(default_config(), Grid(2, 32, 4.0))
        descents = solver._best_descent(problem, [np.ones((32, 32))] * 5, None)
        # only the winner is packaged, with every start's record
        assert packaged == [("c", winner, 7, True, None)]
        assert descents == ("A", "B", "C", "D", "E")

    def test_start_at_each_well_finds_the_lower_basin(self):
        # the well at (-1.9, 0), near the edge of Lambda, has a higher
        # basin than the one at (1, 0); the first-well start stays in it
        pot = replace(POT, M_points=((-1.9, 0.0), (1.0, 0.0)))
        cfg = replace(default_config(), potential=pot)
        grid = Grid(2, 64, 18.0)
        first = ground_state(cfg, grid, init=default_init(cfg, grid, 0))
        res = ground_state(cfg, grid)
        assert first.converged and res.converged
        assert first.energy == pytest.approx(0.463361, abs=1e-6)
        assert first.argmax_point[0] < 0.0
        assert res.energy == pytest.approx(0.458183, abs=1e-6)
        assert res.argmax_point[0] > 0.0


class TestOneActiveSet:
    """The step and the KKT residual split the grid into the same active
    and free points; the CG direction restarts at P pg.  The directions
    are taken on the full grid, whose grid sums weight every point 1."""

    @staticmethod
    def full_grid_problem(grid):
        return NehariProblem.autonomous(default_config(), grid)

    def test_step_uses_the_residual_active_set(self):
        import frns.solver as solver
        from frns.operator import spectral_multiply

        grid = Grid(2, 32, 18.0)
        u = gaussian_bump(grid, (0.0, 0.0), width=2.0)  # sup 1
        grad = np.random.default_rng(3).normal(size=grid.shape)
        # far-field points: 1e-9 sup with grad > 0 and < 0, between the
        # round-off margin 1e-12 and the old step threshold 1e-6; and
        # exact zeros with grad > 0
        between_pos, between_neg, zero_pos = (0, 0), (0, 5), (5, 0)
        u[between_pos] = u[between_neg] = 1e-9
        u[zero_pos] = 0.0
        grad[between_pos] = grad[zero_pos] = 1.0
        grad[between_neg] = -1.0
        precond = 1.0 / (grid.half_k_squared() + 0.3)

        pg, active = solver._projected_gradient(u, grad)
        smooth = spectral_multiply(precond, pg)
        assert not active[between_pos] and not active[between_neg] and active[zero_pos]
        assert pg[between_pos] == 1.0 and pg[zero_pos] == 0.0
        # the first direction, and a CG one with beta = 2 > 0 (pg_prev =
        # pg / 2) whose d_prev = P pg keeps it a descent direction
        problem = self.full_grid_problem(grid)
        first, _, _ = solver._descent_direction(problem, grad, pg, active, precond)
        cg, _, beta = solver._descent_direction(
            problem, grad, pg, active, precond, (0.5 * pg, 0.5 * smooth, smooth))
        assert beta == pytest.approx(2.0, rel=1e-12)
        for direction, free in ((first, smooth), (cg, smooth + beta * smooth)):
            # free in the residual, free in the step: the preconditioned pg
            assert direction[between_pos] == free[between_pos] != grad[between_pos]
            assert direction[between_neg] == free[between_neg]
            assert direction[zero_pos] == grad[zero_pos]
            # everywhere: the raw gradient exactly on active points with
            # grad > 0, where d_prev is dropped
            assert np.array_equal(direction, np.where(active & (grad > 0.0), grad, free))

    def test_restart_direction_is_the_preconditioned_residual(self):
        import frns.solver as solver
        from frns.operator import spectral_multiply

        grid = Grid(2, 32, 18.0)
        u = gaussian_bump(grid, (0.0, 0.0), width=2.0)
        u[u < 1e-3] = 0.0  # an active far field, where grad > 0 and < 0
        grad = np.random.default_rng(4).normal(size=grid.shape)
        precond = 1.0 / (grid.half_k_squared() + 0.3)
        pg, active = solver._projected_gradient(u, grad)
        smooth = spectral_multiply(precond, pg)
        steepest = np.where(active & (grad > 0.0), grad, smooth)
        assert np.any(active & (grad > 0.0)) and np.any(active & (grad < 0.0))
        restarts = {
            # the first direction
            "first": None,
            # beta = 2 > 0, but d = P pg - 2 P pg has <d, pg> < 0
            "uphill": (0.5 * pg, 0.5 * smooth, -smooth),
            # Polak-Ribiere+: <pg - pg_prev, P pg> < 0 truncates beta to 0
            "negative_beta": (2.0 * pg, 2.0 * smooth, smooth),
        }
        problem = self.full_grid_problem(grid)
        for name, prev in restarts.items():
            direction, ppg, beta = solver._descent_direction(
                problem, grad, pg, active, precond, prev)
            assert beta == 0.0, name
            assert np.array_equal(ppg, smooth), name
            assert np.array_equal(direction, steepest), name


GRID_64 = Grid(2, 64, 18.0)


@pytest.fixture
def descents(monkeypatch):
    """The starts `_descend` is called with, in order."""
    import frns.solver as solver

    starts = []
    real = solver._descend

    def counting(problem, start, tol):
        starts.append(start)
        return real(problem, start, tol)

    monkeypatch.setattr(solver, "_descend", counting)
    return starts


class TestSymmetricWells:
    """Wells that a grid symmetry of V and Lambda maps onto an earlier
    well share its descent; anything short of exact symmetry descends
    from every well."""

    def test_mirror_wells_descend_once(self, descents):
        import frns.solver as solver

        cfg = default_config()
        res = ground_state(cfg, GRID_64)
        assert len(descents) == 1 and res.wells_descended == (0,)
        problem = NehariProblem.penalized(cfg, GRID_64)
        both = solver._best_descent(
            problem, [default_init(cfg, GRID_64, k) for k in (0, 1)], solver.Tolerances())
        assert len(descents) == 3
        assert res.energy == both.energy
        assert np.array_equal(res.field.values, both.field.values)

    def test_axis_swap_joins_four_wells(self, descents):
        pot = replace(POT, M_points=((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)))
        res = ground_state(replace(default_config(), potential=pot), GRID_64)
        assert len(descents) == 1 and res.wells_descended == (0,)
        assert res.converged

    def test_mirror_wells_on_the_line_descend_once(self, descents):
        frac = FracParams(s=0.25, m=1.0, n_dim=1)
        pot = PotentialSpec(V1=0.2, V0=0.2, M_points=((-0.5,), (0.5,)),
                            lambda_center=(0.0,), lambda_radius=1.0)
        cfg = ModelConfig(frac=frac, eps=0.25, potential=pot, nonlin=NL, kappa=10.0)
        res = ground_state(cfg, grid_for_eps(cfg, cfg.eps, 256))
        assert len(descents) == 1 and res.wells_descended == (0,)

    # V is unchanged by the reflection x -> -x (first case) or by the
    # axis swap (second case) that maps one well onto the other, but
    # the off-centre Lambda is not
    @pytest.mark.parametrize("wells", [((-1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0))])
    def test_off_centre_lambda_descends_from_both(self, descents, wells):
        pot = replace(POT, M_points=wells, lambda_center=(0.3, 0.0))
        res = ground_state(replace(default_config(), potential=pot), GRID_64)
        assert len(descents) == 2 and res.wells_descended == (0, 1)

    def test_unequal_wells_descend_from_both(self, descents):
        pot = replace(POT, M_points=((-1.9, 0.0), (1.0, 0.0)))
        res = ground_state(replace(default_config(), potential=pot), GRID_64)
        assert len(descents) == 2 and res.wells_descended == (0, 1)

    def test_init_descends_once(self, descents):
        cfg = default_config()
        res = ground_state(cfg, GRID_64, init=default_init(cfg, GRID_64, 1))
        assert len(descents) == 1 and res.wells_descended == ()


class TestEvenBlockDescent:
    """A start that the reflection of an axis leaves, with V and Lambda,
    exactly unchanged descends on the block of that axis, whose weighted
    sums are those of the unfolded field on the full grid."""

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
    def test_block_sums_match_the_unfolded_field(self, axes):
        # wells at (-4, 0) and (4, 0) and Lambda_eps about the origin: V
        # and the mask are even in both axes
        cfg = default_config()
        full = NehariProblem.penalized(cfg, GRID_64)
        block = full.even_block(axes)
        a = cfg.a
        rng = np.random.default_rng(len(axes) + axes[0])
        b = GRID_64.block(gaussian_bump(GRID_64, (-4.0, 0.0))
                          + gaussian_bump(GRID_64, (4.0, 0.0)), axes)
        # outside Lambda_eps: values in [a/2, 4a], their negatives and zeros
        outside = ~block.in_lambda
        draw = rng.uniform(0.5 * a, 4.0 * a, b.shape)
        b[outside] = np.choose(rng.integers(0, 3, b.shape), (draw, -draw, 0.0))[outside]
        u = GRID_64.unfold(b, axes)
        assert block.quadratic(b) == pytest.approx(full.quadratic(u), rel=1e-12)
        assert block.energy(b) == pytest.approx(full.energy(u), rel=1e-12)
        grad = full.gradient(u)
        assert np.allclose(block.gradient(b), GRID_64.block(grad, axes),
                           rtol=0.0, atol=1e-12 * np.max(np.abs(grad)))
        assert block.inner(b, b) == pytest.approx(float(np.sum(u * u)), rel=1e-12)
        # the truncated branch acts on none, some and all outside values
        w = b[outside & (b > 0.0)]
        ts = (0.5 * a / w.max(), a / np.median(w), 1.01 * a / w.min())
        on_block, on_grid = NehariMoments(block, b), NehariMoments(full, u)
        for t in ts:
            assert on_block.mismatch(t) == pytest.approx(on_grid.mismatch(t), rel=1e-12)
            assert on_block.energy(t) == pytest.approx(on_grid.energy(t), rel=1e-12)
        assert on_block._split(ts[1])[2] == on_grid._split(ts[1])[2] > 0
        assert on_block.scale() == pytest.approx(on_grid.scale(), rel=1e-12)

    @pytest.mark.parametrize("case", ["2d_128", "2d_256", "1d", "d_V0"])
    def test_levels_match_the_full_grid_descent(self, monkeypatch, case):
        import frns.solver as solver
        from frns.cli import build_config, load_config

        if case == "1d":
            cfg, _ = build_config(load_config(CFG_1D))
            axes, run = (0,), lambda: ground_state(cfg, grid_for_eps(cfg, cfg.eps, 1024))
        elif case == "d_V0":
            axes, run = (0, 1), lambda: autonomous_ground_state(default_config(),
                                                                Grid(2, 128, 20.0))
        else:
            n = int(case[3:])
            axes, run = (1,), lambda: ground_state(default_config(), Grid(2, n, 18.0))
        block = run()
        monkeypatch.setattr(solver, "_even_axes", lambda problem, start: ())
        full = run()
        assert block.descents == ((axes, False),) and full.descents == (((), False),)
        assert block.converged and full.converged
        assert block.energy == pytest.approx(full.energy, rel=1e-10)
        assert block.argmax_index == full.argmax_index

    def test_faulty_block_continues_on_the_full_grid(self, monkeypatch):
        # one multiplicity wrong (the block's column y = h counted once,
        # not twice): the block descent ends far from a full-grid critical
        # point, the guard continues on the full grid and reaches the
        # reference level of the shipped 2D config at 128^2
        real = NehariProblem.even_block

        def faulty(problem, axes):
            block = real(problem, axes)
            weight = block.weight.copy()
            weight[:, 1] = 1.0
            return replace(block, weight=weight)

        monkeypatch.setattr(NehariProblem, "even_block", faulty)
        res = ground_state(default_config(), Grid(2, 128, 18.0))
        assert res.descents == (((1,), True),)
        assert res.converged and res.grad_residual <= 1e-6
        assert res.energy == pytest.approx(0.46410210866211055, rel=1e-10)
        assert int(np.argmax(res.field.values)) == 6464


GRID_32 = Grid(2, 32, 18.0)
PROBLEMS_32 = {
    "penalized": NehariProblem.penalized(default_config(), GRID_32),
    "autonomous": NehariProblem.autonomous(default_config(), GRID_32),
}
# a bump inside Lambda_eps (|x| < 10 at eps = 0.25) plus one outside it,
# where the penalized nonlinearity is truncated
FIELDS_32 = st.builds(
    lambda x, y, w, amp, y_out, amp_out: (
        gaussian_bump(GRID_32, (x, y), width=w, amplitude=amp)
        + gaussian_bump(GRID_32, (13.0, y_out), amplitude=amp_out)),
    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.8, 3.0),
    st.floats(0.05, 20.0), st.floats(-10.0, 10.0), st.floats(0.0, 20.0),
)


# module-level functions, not methods of a parametrized class: hypothesis
# fails its differing_executors health check when one @given method runs
# on several instances, which a database replay of a saved example does
@pytest.mark.parametrize("kind", sorted(PROBLEMS_32))
@settings(max_examples=30, deadline=None)
@given(u=FIELDS_32, c=st.floats(1e-2, 1e2))
def test_scale_covariance(kind, u, c):
    # t(c u) = t(u) / c
    problem = PROBLEMS_32[kind]
    t = NehariMoments(problem, u).scale()[0]
    assert NehariMoments(problem, c * u).scale()[0] == pytest.approx(t / c, rel=1e-12)


@pytest.mark.parametrize("width,amp_out,c,t_min", [
    (0.875, 10.0, 1.0 / 64.0, 2.0**19), (0.8125, 14.0, 0.01171875, 1e6)])
def test_nehari_scan_has_no_fixed_bound(width, amp_out, c, t_min):
    # hypothesis counterexamples to test_scale_covariance: a weak bump
    # inside Lambda puts t(c u) past 2^19 and past 1e6, where the scan
    # once stopped (at its last doubling below 1e6, or at 1e6)
    u = (gaussian_bump(GRID_32, (0.0, 0.0), width=width, amplitude=0.05078125)
         + gaussian_bump(GRID_32, (13.0, 0.0), amplitude=amp_out))
    problem = PROBLEMS_32["penalized"]
    t = NehariMoments(problem, u).scale()[0]
    assert t / c > t_min
    assert NehariMoments(problem, c * u).scale()[0] == pytest.approx(t / c, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(PROBLEMS_32))
@settings(max_examples=30, deadline=None)
@given(u=FIELDS_32)
def test_scaled_field_on_nehari_manifold(kind, u):
    problem = PROBLEMS_32[kind]
    t = NehariMoments(problem, u).scale()[0]
    assert problem.nehari_residual(t * u) <= 1e-10


class TestAutonomous:
    def test_level_increases_with_mu(self):
        # d_mu is nondecreasing in mu = -V0: a deeper constant well lowers
        # the level
        grid = Grid(2, 64, 14.0)
        levels = []
        for depth in (0.2, 0.1):
            pot = replace(POT, V1=depth, V0=depth)
            res = autonomous_ground_state(replace(default_config(), potential=pot), grid)
            assert res.converged
            levels.append(res.energy)
        assert levels[0] < levels[1]

    def test_translation_invariance(self):
        grid = Grid(2, 64, 14.0)
        e = []
        for center in ((0.0, 0.0), (2.0, -1.5)):
            init = gaussian_bump(grid, center)
            res = autonomous_ground_state(default_config(), grid, init=init)
            assert res.converged
            e.append(res.energy)
        assert e[0] == pytest.approx(e[1], rel=1e-6)


class TestLevels:
    def test_zeta_value(self):
        # zeta = 1 - 0.2 * (1 + 1/10) = 0.78 for the defaults
        assert zeta_constant(default_config()) == pytest.approx(0.78, rel=1e-14)

    def test_mp_threshold_closed_form(self):
        # c_* = (s/N)(zeta S_*)^(N/2s) = 0.25 * (0.78 sqrt(pi))^2
        cfg = default_config()
        expected = 0.25 * (0.78**2) * np.pi
        assert mp_threshold(cfg) == pytest.approx(expected, rel=1e-14)
        assert mp_threshold(cfg) == pytest.approx(0.4778362426110075, rel=1e-13)


class TestDecayFit:
    def _synthetic(self, C2=1.7):
        grid = Grid(2, 128, 20.0)
        r = grid.radii(center=(0.0, 0.0))
        vals = np.exp(-C2 * r)
        res = SolveResult(
            field=Field(grid=grid, values=vals),
            energy=0.0, nehari_residual=0.0, grad_residual=0.0,
            argmax_point=(0.0, 0.0),
            argmax_index=tuple(int(i) for i in np.unravel_index(np.argmax(vals), grid.shape)),
            sup_norm=1.0, iterations=0, converged=True,
        )
        return res

    def test_recovers_synthetic_rate(self):
        fit = decay_fit(self._synthetic(C2=1.7))
        assert fit["C2"] == pytest.approx(1.7, rel=5e-2)
        assert fit["r_squared"] > 0.99
        assert fit["pointwise_bound_ok"]

    def test_on_solved_field(self, solved):
        _, _, res = solved
        fit = decay_fit(res)
        assert fit["C2"] > 0.0
        assert fit["r_squared"] >= 0.9
        assert fit["pointwise_bound_ok"]

    @pytest.mark.parametrize("field", ["synthetic", "solved"])
    def test_closed_form_matches_lstsq(self, field, request):
        res = self._synthetic() if field == "synthetic" else request.getfixturevalue("solved")[2]
        # the reference: LAPACK's least squares on the same shells
        x, env = decay_annulus(res)
        y = np.log(env)
        A = np.stack([np.ones_like(x), -x], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        yhat = A @ coef
        ref = {
            "C1": np.exp(coef[0] + np.max(y - yhat)),
            "C2": coef[1],
            "r_squared": 1.0 - np.sum((y - yhat) ** 2) / np.sum((y - np.mean(y)) ** 2),
        }
        fit = decay_fit(res)
        for key, value in ref.items():
            assert fit[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestTraceConstantEstimate:
    def test_1d_quarter(self):
        fr = FracParams(s=0.25, m=1.0, n_dim=1)
        out = estimate_s_star(fr)
        exact = sobolev_trace_constant(1, 0.25)
        assert abs(out["estimate"] - exact) / exact < 0.05
        assert not out["edge_warning"]

    def test_2d_half(self):
        fr = FracParams(s=0.5, m=1.0, n_dim=2)
        out = estimate_s_star(fr)
        exact = sobolev_trace_constant(2, 0.5)
        assert abs(out["estimate"] - exact) / exact < 0.05
        assert not out["edge_warning"]


class TestSweepHelpers:
    def test_grid_for_eps(self):
        cfg = default_config()
        g = grid_for_eps(cfg, 0.25, 128)
        # Lambda radius 2.5 at eps 0.25 reaches 10; margin 8 gives L = 18
        assert g.half_length == pytest.approx(18.0)
        assert g.points_per_dim == 128

    def test_sweep_records_only_numerical_failures(self, monkeypatch):
        import frns.solver as solver

        def no_bracket(cfg, *args, **kwargs):
            # each row's solve gets the config at the row's eps
            assert (cfg.eps, cfg.potential) == (0.5, default_config().potential)
            raise NoBracketError("no Nehari bracket")

        def bug(*args, **kwargs):
            raise TypeError("a programming error")

        monkeypatch.setattr(solver, "ground_state", no_bracket)
        (row,) = concentration_sweep(default_config(), (0.5,), points_per_dim=32)
        assert row["converged"] is False
        assert row["error"] == "NoBracketError: no Nehari bracket"
        monkeypatch.setattr(solver, "ground_state", bug)
        with pytest.raises(TypeError):
            concentration_sweep(default_config(), (0.5,), points_per_dim=32)

    def test_dist_to_wells(self):
        assert dist_to_wells((4.0, 0.0), ((4.0, 0.0), (-4.0, 0.0))) == 0.0
        assert dist_to_wells((0.0, 3.0), ((0.0, 0.0),)) == pytest.approx(3.0)
