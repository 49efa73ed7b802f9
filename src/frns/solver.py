"""Ground-state computation on the Nehari manifold.

The mountain-pass level equals the infimum of the energy over the
Nehari set {u != 0 : <J'(u), u> = 0}, which turns the saddle-point
search into a constrained minimization: descend along a preconditioned
conjugate-gradient direction built from the projected gradient, clip
to the positive cone, and rescale back onto the Nehari manifold after
every step.  The result is an upper estimate of the level (a descent
path proves no global minimality).

The same loop drives both the penalized problem and the autonomous
problem with constant potential shift mu; they differ only in the
potential term and in whether the nonlinearity is truncated.
"""

import math
from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from .operator import (Field, Grid, KernelTable, build_symbol, from_half_spectrum,
                       half_spectrum, spectral_multiply)
from .model import G_eval, g_eval, lambda_mask, potential_on_grid
from .params import (
    AssumptionError,
    DomainError,
    FracParams,
    ModelConfig,
    NonlinearitySpec,
    NoPositivePartError,
    Tolerances,
    box_half_length,
    brentq,
)
from .specfun import sobolev_trace_constant


class NoBracketError(RuntimeError):
    """Nehari scaling found no sign change before t or the mismatch left
    the finite numbers."""


@dataclass(frozen=True)
class SolveResult:
    """Converged field plus diagnostics."""

    field: Field
    energy: float
    nehari_residual: float
    grad_residual: float
    argmax_point: tuple
    argmax_index: tuple
    sup_norm: float
    iterations: int
    converged: bool
    wells_descended: tuple = ()  # indices into M_points of the starts taken
    descents: tuple = ()  # per start: (even axes, continued on the full grid)


@dataclass(frozen=True)
class AutonomousConfig:
    """Constant-potential problem data: shift mu, operator params, power f.
    The class attributes a = inf and slope = 0 (no fields) complete the
    interface that `model.g_eval` reads, with g untruncated."""

    mu: float
    frac: FracParams
    nonlin: NonlinearitySpec
    a = math.inf
    slope = 0.0

    def __post_init__(self):
        m2s = self.frac.m ** (2.0 * self.frac.s)
        if not self.mu > -m2s:
            raise AssumptionError(
                "(V1)", f"autonomous shift needs mu > -m^(2s) = {-m2s:.6g}, got {self.mu}"
            )

    @property
    def two_star(self) -> float:
        return self.frac.two_star


@dataclass(frozen=True)
class NehariProblem:
    """Energy, gradient and Nehari scaling of one problem on one grid.

        J(u) = 1/2 ||u||^2 - sum G(x, u) h^N,  ||u||^2 = <Au, u> + sum V u^2 h^N,

    with gradient J'(u) = A u + V u - g(x, u).  The penalized and the
    autonomous problem differ only in V and in `config`; build them with
    `penalized` and `autonomous`.  Every method takes raw sample values
    on `grid`, or on the block of `even_block`, where each sum over the
    grid weights a sample by the full-grid samples it stands for
    (`weight`).

    Both use the power model g(x, t) = lam t^(p-1) + t^(2*_s - 1) for
    t > 0, replaced by slope * t outside `in_lambda` where t >= a.
    `config` (a ModelConfig or an AutonomousConfig) holds its scalars:
    `nonlin`, `two_star`, `a` and `slope`.  `g` and `G` evaluate it
    pointwise through `model.g_eval` and `model.G_eval`, and
    `NehariMoments` from per-candidate power sums.
    """

    grid: Grid
    table: KernelTable
    V: np.ndarray               # potential values on the grid
    in_lambda: np.ndarray       # where the untruncated nonlinearity acts
    weight: np.ndarray          # full-grid samples each value stands for
    config: ModelConfig | AutonomousConfig

    @classmethod
    def penalized(cls, config: ModelConfig, grid: Grid) -> "NehariProblem":
        """Potential V(eps x) and the penalized nonlinearity g(eps x, t)."""
        mask = lambda_mask(config, grid)
        return cls(
            grid=grid,
            table=build_symbol(grid, config.frac),
            V=np.broadcast_to(potential_on_grid(config, grid), grid.shape),
            in_lambda=mask,
            weight=np.ones(grid.shape),
            config=config,
        )

    @classmethod
    def autonomous(cls, config: AutonomousConfig, grid: Grid) -> "NehariProblem":
        """Constant potential mu and the untruncated f(t) + (t+)^(2*_s - 1)."""
        return cls(
            grid=grid,
            table=build_symbol(grid, config.frac),
            V=np.full(grid.shape, config.mu),
            in_lambda=np.ones(grid.shape, dtype=bool),
            weight=np.ones(grid.shape),
            config=config,
        )

    def even_block(self, axes) -> "NehariProblem":
        """This problem on fields even along `axes` about the grid centre,
        held as their block (`Grid.block`, `KernelTable.even_block`)."""
        g = self.grid
        V = g.block(self.V, axes)
        return replace(self, table=self.table.even_block(axes), V=V,
                       in_lambda=g.block(self.in_lambda, axes),
                       weight=np.broadcast_to(g.multiplicity(axes), V.shape).copy())

    @property
    def cell_volume(self) -> float:
        return self.grid.spacing**self.grid.n_dim

    def g(self, t) -> np.ndarray:
        return g_eval(self.config, self.in_lambda, t)

    def G(self, t) -> np.ndarray:
        return G_eval(self.config, self.in_lambda, t)

    def inner(self, a, b) -> float:
        """sum a b over the full grid, without the factor h^N."""
        return float(np.vdot(self.weight * a, b))

    def quadratic(self, u_vals, vhat=None) -> float:
        """||u||^2 = <Au, u> + sum V u^2 h^N; one forward FFT unless the
        half spectrum vhat of u is passed."""
        if vhat is None:
            vhat = half_spectrum(u_vals, self.table.even_axes)
        return self.table.form(vhat) + self.cell_volume * float(
            np.sum(self.weight * self.V * u_vals**2))

    def energy(self, u_vals, quad=None, t=1.0) -> float:
        """J(t u); pass quad = ||u||^2 when known to skip its FFT."""
        if quad is None:
            quad = self.quadratic(u_vals)
        G_sum = float(np.sum(self.weight * self.G(t * u_vals)))
        return 0.5 * t * t * quad - self.cell_volume * G_sum

    def gradient(self, u_vals, vhat=None) -> np.ndarray:
        """L^2 gradient J'(u) = A u + V u - g(x, u); pass the half
        spectrum vhat of u when known to skip its forward FFT."""
        if vhat is None:
            vhat = half_spectrum(u_vals, self.table.even_axes)
        Au = from_half_spectrum(self.table.symbol, vhat, u_vals.shape, self.table.even_axes)
        return Au + self.V * u_vals - self.g(u_vals)

    def nehari_residual(self, u_vals) -> float:
        """|<J'(u), u>| / ||u||^2."""
        quad = self.quadratic(u_vals)
        g_sum = float(np.sum(self.weight * self.g(u_vals) * u_vals))
        return abs(quad - self.cell_volume * g_sum) / abs(quad)


class NehariMoments:
    """<J'(t u), t u>/t^2 and J(t u) of one candidate u, for every t > 0.

    Where the full nonlinearity acts, g(x, t u) u / t = lam t^(p-2) u^p
    + t^(2*-2) u^(2*); at the points outside Lambda_eps with t u >= a it
    is slope * u^2 instead, and G follows the same split.  So the sums
    of u^p and u^(2*) are taken once, and the outside values only need
    sorting, with prefix sums, once some t makes the truncated branch
    act (t * max(u outside) >= a); the linear set is then a tail of the
    sorted values, found by one searchsorted at a/t.  Values u <= 0
    contribute nothing, as g and G vanish there.  Every sum, count and
    prefix sum weights a value by the problem's `weight`.  The half
    spectrum of u behind ||u||^2 is kept (`vhat`): scaled by t it is
    that of t u.
    """

    def __init__(self, problem: NehariProblem, u_vals):
        # only u > 0 enters; leaving out the zeros also skips the slow
        # path that pow takes for 0.0 ** p
        pos = u_vals > 0.0
        sel = np.logical_and(pos, problem.in_lambda)
        inside = u_vals[sel]
        if inside.size == 0:
            raise NoPositivePartError(
                "field has no positive part inside the well region; no Nehari scale"
            )
        self.problem = problem
        self.vhat = half_spectrum(u_vals, problem.table.even_axes)
        self.quad = problem.quadratic(u_vals, self.vhat)
        p, two_star = problem.config.nonlin.p, problem.config.two_star
        w_in = problem.weight[sel]
        sel = np.logical_and(pos, np.logical_not(problem.in_lambda))
        self.outside, self.w_out = u_vals[sel], problem.weight[sel]
        self.sum_p_in = float(np.sum(w_in * inside**p))
        self.sum_s_in = float(np.sum(w_in * inside**two_star))
        self.sum_p = self.sum_p_in + float(np.sum(self.w_out * self.outside**p))
        self.sum_s = self.sum_s_in + float(np.sum(self.w_out * self.outside**two_star))
        self.max_out = float(np.max(self.outside, initial=0.0))
        self._sorted = None

    def scale(self) -> tuple:
        """(t, J(t u)) for the unique t > 0 with <J'(t u), t u> = 0.

        Each evaluation of the mismatch in the root solve, and J(t u) at
        the root, costs O(log n) instead of passes over the grid.
        """
        lo = hi = 1.0
        f_lo = f_hi = self.mismatch(1.0)
        # The mismatch falls from ||u||^2 at t -> 0 to -inf at t -> inf (the
        # inside part has a positive u^(2*) sum), so each scan ends; it ends
        # without a bracket only where t or the mismatch is no finite number.
        if f_hi > 0.0:
            while f_hi > 0.0:
                lo, hi = hi, 2.0 * hi
                f_hi = self.mismatch(hi)
        else:
            while f_lo <= 0.0 and lo > 0.0:
                hi, lo = lo, 0.5 * lo
                f_lo = self.mismatch(lo)
        if not (lo > 0.0 and math.isfinite(hi) and math.isfinite(f_lo) and math.isfinite(f_hi)):
            raise NoBracketError(f"no Nehari bracket: mismatch {f_lo} at t = {lo}, "
                                 f"{f_hi} at t = {hi}")
        t = brentq(self.mismatch, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        return float(t), self.energy(t)

    def _split(self, t) -> tuple:
        """(sum u^p, sum u^(2*)) over the full-nonlinearity points, and
        (sum u^2, count) over the truncated ones, at scale t."""
        cfg = self.problem.config
        if t * self.max_out < cfg.a:
            return self.sum_p, self.sum_s, 0.0, 0
        if self._sorted is None:
            order = np.argsort(self.outside)
            w, mult = self.outside[order], self.w_out[order]
            zero = np.zeros(1)
            self._sorted = (
                w,
                np.concatenate((zero, np.cumsum(mult * w**cfg.nonlin.p))),
                np.concatenate((zero, np.cumsum(mult * w**cfg.two_star))),
                np.concatenate((np.cumsum((mult * w * w)[::-1])[::-1], zero)),
                np.concatenate((np.cumsum(mult[::-1])[::-1], zero)),
            )
        w, cum_p, cum_s, tail_2, tail_n = self._sorted
        k = int(np.searchsorted(w, cfg.a / t))
        return (self.sum_p_in + cum_p[k], self.sum_s_in + cum_s[k],
                tail_2[k], tail_n[k])

    def mismatch(self, t) -> float:
        """<J'(t u), t u>/t^2 = ||u||^2 - sum g(x, t u) u h^N / t,
        nonincreasing in t."""
        cfg, nl = self.problem.config, self.problem.config.nonlin
        sum_p, sum_s, sum_2, _ = self._split(t)
        pairing = (nl.lam * t ** (nl.p - 2.0) * sum_p
                   + t ** (cfg.two_star - 2.0) * sum_s + cfg.slope * sum_2)
        return self.quad - self.problem.cell_volume * pairing

    def energy(self, t) -> float:
        """J(t u), with the closed-form linear branch of G past a."""
        cfg, nl = self.problem.config, self.problem.config.nonlin
        two_star, a = cfg.two_star, cfg.a
        sum_p, sum_s, sum_2, n_lin = self._split(t)
        G_sum = (nl.lam * t**nl.p * sum_p / nl.p
                 + t**two_star * sum_s / two_star
                 + 0.5 * cfg.slope * t * t * sum_2)
        if n_lin:
            # G(x, s) = G(a) + slope (s^2 - a^2)/2 on the truncated branch
            G_sum += n_lin * (nl.lam * a**nl.p / nl.p + a**two_star / two_star
                              - 0.5 * cfg.slope * a * a)
        return 0.5 * t * t * self.quad - self.problem.cell_volume * G_sum


def nehari_scale(u: Field, config) -> float:
    """Nehari scale t(u) of a field for a ModelConfig or an AutonomousConfig."""
    if isinstance(config, AutonomousConfig):
        problem = NehariProblem.autonomous(config, u.grid)
    else:
        problem = NehariProblem.penalized(config, u.grid)
    return NehariMoments(problem, u.values).scale()[0]


def _projected_gradient(u_vals, grad) -> tuple:
    """(pg, active) for minimization over the cone u >= 0.  The active
    set is u <= 1e-12 sup u, a round-off margin (pushing such a value to
    exactly zero changes the energy by nothing measurable); the KKT
    residual pg is grad off it and only its negative part on it (there
    the discrete kernel's sign ripples can leave grad > 0, which is
    optimal for the constrained problem, not a defect)."""
    active = u_vals <= 1e-12 * np.max(u_vals)
    return np.where(active, np.minimum(grad, 0.0), grad), active


def _kkt_residual(u_vals, pg) -> float:
    """max |pg| / max |u|, the convergence test of the descent."""
    return float(np.max(np.abs(pg)) / max(np.max(np.abs(u_vals)), 1e-300))


def _descent_direction(problem, grad, pg, active, precond, prev=None) -> tuple:
    """Preconditioned Polak-Ribiere+ direction (d, P pg, beta) on the
    active set of `_projected_gradient`, with P the multiplier `precond`
    and <,> the grid sum of `problem` (`NehariProblem.inner`):

        d = P pg + beta d_prev,
        beta = max(0, <pg - pg_prev, P pg> / <pg_prev, P pg_prev>),

    where prev = (pg_prev, P pg_prev, d_prev) is the last iteration's,
    or None to restart with beta = 0.  On active points where grad > 0,
    d is the raw gradient (the two-metric step, Bertsekas 1982), since
    the smoothing preconditioner could point into the constraint there
    and lift clipped points; d_prev is dropped there.  A d with
    <d, pg> <= 0 does not descend and falls back to beta = 0.
    """
    ppg = spectral_multiply(precond, pg, problem.table.even_axes)
    raw = active & (grad > 0.0)
    if prev is not None:
        pg_prev, ppg_prev, d_prev = prev
        beta = problem.inner(pg - pg_prev, ppg) / problem.inner(pg_prev, ppg_prev)
        if beta > 0.0:
            d = np.where(raw, grad, ppg + beta * d_prev)
            if problem.inner(d, pg) > 0.0:
                return d, ppg, beta
    return np.where(raw, grad, ppg), ppg, 0.0


def _line_search(problem: NehariProblem, u, direction, E, step) -> Optional[tuple]:
    """The first of 40 trial steps, from `step` on, each half the last,
    whose Nehari-scaled candidate lowers the energy J = E: (step, t cand,
    its half spectrum, J(t cand)), or None when all 40 fail."""
    for _ in range(40):
        cand = np.maximum(u - step * direction, 0.0)
        try:
            m = NehariMoments(problem, cand)
            t, E_new = m.scale()
        except (NoPositivePartError, NoBracketError):
            step *= 0.5
            continue
        if E_new < E - 1e-16 * abs(E):
            return step, t * cand, t * m.vhat, E_new
        step *= 0.5
    return None


def _descend(problem: NehariProblem, init_vals: np.ndarray, tol: Tolerances):
    """`_nehari_cg` from one start on the block of the axes whose
    reflection leaves the start, V and the Lambda mask exactly unchanged
    (`_even_axes`): every step keeps the field even along them (Palais'
    symmetric criticality).  The unfolded result's KKT residual is taken
    from one full-grid gradient; above tol.grad, which after a converged
    block descent only faulty block arithmetic leaves, the descent goes
    on over the full grid with the iterations left.

    Returns (values, energy, iterations, converged, gradient at values,
    (even axes, whether the full grid continued)).
    """
    axes = _even_axes(problem, init_vals)
    block = problem.even_block(axes)
    u, E, it, converged, grad = _nehari_cg(block, problem.grid.block(init_vals, axes), tol)
    continued = False
    if axes:
        u = problem.grid.unfold(u, axes)
        grad = problem.gradient(u)
        continued = _kkt_residual(u, _projected_gradient(u, grad)[0]) > tol.grad
        if continued:
            left = replace(tol, max_iterations=max(tol.max_iterations - it, 0))
            u, E, more, converged, grad = _nehari_cg(problem, u, left)
            it += more
    return u, E, it, converged, grad, (axes, continued)


def _nehari_cg(problem: NehariProblem, init_vals: np.ndarray, tol: Tolerances):
    """Nehari-constrained projected Polak-Ribiere+ CG descent.

    The KKT residual of the cone (`_projected_gradient`) is the
    convergence test and, preconditioned by the inverse symbol, the
    steepest step off its active set; unpreconditioned descent
    oscillates in the stiff high-frequency modes and plateaus far from
    tolerance.  The CG direction (`_descent_direction`) adds the last
    direction to it, which speeds up the slow translation of the
    concentrated solution along its own slope.  Each line search
    (`_line_search`) starts at 1.5 times the last accepted step.

    A CG line search that rejects all 40 trial steps is retried once
    along the steepest direction (beta = 0); the first steepest search
    that rejects all 40 ends the descent unconverged, since u, the
    gradient and the direction are then unchanged.  The gradient of an
    accepted candidate t cand takes its A u from the half spectrum of
    cand that the Nehari scaling transformed, scaled by t.

    Returns (values, energy, iterations, converged, gradient at values).
    """
    u = np.maximum(init_vals, 0.0)
    m = NehariMoments(problem, u)
    t0, E = m.scale()
    u = t0 * u
    grad = problem.gradient(u, t0 * m.vhat)

    # (symbol + shift) on the half spectrum is the preconditioner; shift
    # keeps it safely positive when V dips negative (V > -m^(2s) by the
    # model invariants)
    shift = max(float(np.max(problem.V)), 0.0) + 0.1
    precond = 1.0 / (problem.table.symbol + shift)

    step = 1.0
    prev = None
    it = 0
    converged = False
    for it in range(1, tol.max_iterations + 1):
        pg, active = _projected_gradient(u, grad)
        if _kkt_residual(u, pg) <= tol.grad:
            converged = True
            break
        direction, ppg, beta = _descent_direction(problem, grad, pg, active, precond, prev)
        found = _line_search(problem, u, direction, E, 1.5 * step)
        if found is None and beta > 0.0:
            direction, ppg, beta = _descent_direction(problem, grad, pg, active, precond)
            found = _line_search(problem, u, direction, E, 1.5 * step)
        if found is None:
            break
        step, u, vhat, E = found
        prev = (pg, ppg, direction)
        grad = problem.gradient(u, vhat)
    return u, E, it, converged, grad


def _package_result(problem: NehariProblem, u_vals, E, iterations, converged, grad,
                    descents=()) -> SolveResult:
    g = problem.grid
    idx = np.unravel_index(int(np.argmax(u_vals)), g.shape)
    axis = g.axis()
    point = tuple(float(axis[i]) for i in idx)
    return SolveResult(
        field=Field(grid=g, values=u_vals),
        energy=float(E),
        nehari_residual=problem.nehari_residual(u_vals),
        grad_residual=_kkt_residual(u_vals, _projected_gradient(u_vals, grad)[0]),
        argmax_point=point,
        argmax_index=tuple(int(i) for i in idx),
        sup_norm=float(np.max(u_vals)),
        iterations=iterations,
        converged=converged,
        descents=descents,
    )


def gaussian_bump(grid: Grid, center, width=1.0, amplitude=1.0) -> np.ndarray:
    r2 = grid.radii(center=center) ** 2
    return amplitude * np.exp(-r2 / (2.0 * width**2))


def default_init(config: ModelConfig, grid: Grid, well: int = 0) -> np.ndarray:
    """Gaussian bump of width 1 at designated minimum `well` of V, in
    the blown-up coordinates x = (well position) / eps."""
    center = tuple(c / config.eps for c in config.potential.M_points[well])
    return gaussian_bump(grid, center)


def ground_state(
    config: ModelConfig,
    grid: Grid,
    init: Optional[np.ndarray] = None,
    tolerances: Tolerances = Tolerances(),
    restarts: int = 3,  # unused; only perfbench/worker.py still passes it
    seed: int = 0,  # unused; only perfbench/worker.py still passes it
) -> SolveResult:
    """Minimize the penalized energy over the Nehari manifold.

    The returned energy is an upper estimate of the mountain-pass level
    (minimization along a gradient-flow path, not a certificate of
    global minimality).  The basin a descent starts in sets its level,
    so it starts once at each minimum of V in M_points order
    (`default_init`), or once at `init` when given; `_best_descent`
    picks the run.  A well that a grid symmetry of V and Lambda maps
    onto an earlier well shares its descent (`_distinct_wells`).  Every
    well must lie in the box, as `params.check_run` ensures for a config.
    """
    problem = NehariProblem.penalized(config, grid)
    if init is not None:
        return _best_descent(problem, [init], tolerances)
    wells = _distinct_wells(problem, config.potential.M_points)
    result = _best_descent(problem, (default_init(config, grid, k) for k in wells), tolerances)
    return replace(result, wells_descended=tuple(wells))


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a(x) -> a(-x) along `axes` on the periodic grid: index i -> (n - i) mod n."""
    for ax in axes:
        a = np.roll(np.flip(a, ax), 1, ax)
    return a


def _fixed(arrays, flipped, perm) -> bool:
    """Whether x_i -> sign_i x_perm[i], with sign -1 on the axes
    `flipped`, leaves every one of `arrays` exactly unchanged."""
    return all(np.array_equal(np.transpose(_reflect(a, flipped), perm), a) for a in arrays)


def _even_axes(problem: NehariProblem, start) -> tuple:
    """The axes whose reflection leaves `start`, V and the Lambda mask
    exactly unchanged, as in `_distinct_wells`."""
    arrays, n = (start, problem.V, problem.in_lambda), problem.grid.n_dim
    return tuple(ax for ax in range(n) if _fixed(arrays, [ax], range(n)))


def _distinct_wells(problem: NehariProblem, points) -> list:
    """Indices of the wells left after dropping every well that a grid
    symmetry of the problem maps onto an earlier kept one.

    The symmetries tried are the signed axis permutations about the grid
    origin, x_i -> sign_i x_perm[i]; one counts only when it leaves V
    and the Lambda mask exactly unchanged.  The symbol and the pointwise
    g are equivariant under all of them, so a dropped well's descent
    would be the mirror image of the kept one, at the same level up to
    round-off, which the earlier start wins in `_best_descent`.
    """
    n = problem.grid.n_dim
    syms = []
    for perm, signs in product(permutations(range(n)), product((1.0, -1.0), repeat=n)):
        flipped = [ax for ax in range(n) if signs[ax] < 0.0]
        if _fixed((problem.V, problem.in_lambda), flipped, perm):
            syms.append((perm, signs))
    kept = []
    for k, pt in enumerate(points):
        images = {tuple(sg * pt[i] for sg, i in zip(signs, perm)) for perm, signs in syms}
        if not any(tuple(points[j]) in images for j in kept):
            kept.append(k)
    return kept


def autonomous_ground_state(
    config: AutonomousConfig,
    grid: Grid,
    init: Optional[np.ndarray] = None,
    tolerances: Tolerances = Tolerances(),
) -> SolveResult:
    """Ground state of the constant-potential problem; estimates d_mu.
    One start, a centred bump unless `init` is given."""
    problem = NehariProblem.autonomous(config, grid)
    if init is None:
        init = gaussian_bump(grid, (0.0,) * grid.n_dim)
    return _best_descent(problem, [init], tolerances)


def _best_descent(problem, starts, tolerances) -> SolveResult:
    """Descend from each start in order and package the best run.

    A converged run beats an unconverged one.  A later start replaces
    the best only when its level is lower by more than 1e-10 relative,
    so the earliest start keeps a round-off tie: the levels of mirror
    wells differ by a few ulp either way.  The result lists each start's
    (even axes, continued on the full grid) in `descents`.
    """
    best, descents = None, []
    for start in starts:
        run = _descend(problem, start, tolerances)  # (u, E, iterations, converged, ...)
        E, conv = run[1], run[3]
        descents.append(run[5])
        if (best is None or (conv and not best[3])
                or (conv == best[3] and E < best[1] - 1e-10 * abs(best[1]))):
            best = run
    return _package_result(problem, *best[:5], descents=tuple(descents))


# ---------------------------------------------------------------------------
# thresholds, levels and post-processing


def zeta_constant(config: ModelConfig) -> float:
    """zeta = 1 - (V1 / m^(2s)) (1 + 1/kappa), in (0, 1)."""
    m2s = config.frac.m ** (2.0 * config.frac.s)
    return 1.0 - (config.potential.V1 / m2s) * (1.0 + 1.0 / config.kappa)


def mp_threshold(config: ModelConfig) -> float:
    """Mountain-pass upper bound c_* = (s/N) (zeta S_*)^(N/2s)."""
    s, N = config.frac.s, config.frac.n_dim
    S = sobolev_trace_constant(N, s)
    z = zeta_constant(config)
    return (s / N) * (z * S) ** (N / (2.0 * s))


def verify_solution_region(result: SolveResult, config: ModelConfig) -> dict:
    """Report whether the solution stays below the penalization
    threshold a outside the blown-up well region (the condition under
    which the penalized solution solves the original problem)."""
    outside = result.field.values[~lambda_mask(config, result.field.grid)]
    max_outside = float(np.max(outside)) if outside.size else 0.0
    return {
        "max_outside_lambda": max_outside,
        "a_threshold": config.a,
        "below_threshold": bool(max_outside < config.a),
    }


def shell_envelope(result: SolveResult) -> tuple:
    """(radii, env): the max of u over radial shells of width 2h about
    its argmax, at the shell midpoints; shells holding no positive value
    read 0.  The width pairs cells because shell maxima alternate on
    the raw lattice."""
    g = result.field.grid
    r = g.radii(center=result.argmax_point).ravel()
    width = 2.0 * g.spacing
    bins = (r / width).astype(int)
    env = np.zeros(bins.max() + 1)
    np.maximum.at(env, bins, result.field.values.ravel())
    return (np.arange(env.size) + 0.5) * width, env


def decay_fit(result: SolveResult) -> dict:
    """Least-squares fit u ~ C1 exp(-C2 |x - x_max|) on the annulus
    where u is between 1e-8 and 1e-2 of its sup.

    The fit runs on the radial shell envelope (`shell_envelope`), not
    on raw grid values: the spectral truncation leaves an oscillatory
    noise floor of relative size O(h^2) in the far field, and raw
    points below it carry no decay information.  Shells past the
    radius where the envelope stops decreasing are excluded for the
    same reason.
    """
    sup = result.sup_norm
    radii, env = shell_envelope(result)
    n_bins = env.size

    # seed the decay rate on the clean near-core decade, then walk
    # outward accepting shells only while the envelope keeps falling at
    # a fraction of that rate; past the resolved range the spectral
    # truncation leaves a slowly decaying oscillatory tail that would
    # otherwise pollute the fit
    start = int(np.argmax(env))
    seed = [b for b in range(start + 1, n_bins)
            if 5e-3 * sup <= env[b] <= 0.5 * sup]
    if len(seed) < 2:
        raise DomainError(
            "decay annulus is empty: no resolved shells below half the sup "
            "(box too small or grid too coarse?)"
        )
    rate = (np.log(env[seed[0]]) - np.log(env[seed[-1]])) / (
        radii[seed[-1]] - radii[seed[0]]
    )
    accepted = []
    prev = seed[-1]
    for b in range(seed[-1] + 1, n_bins):
        if env[b] <= 0.0:
            break
        local = (np.log(env[prev]) - np.log(env[b])) / (radii[b] - radii[prev])
        if local < 0.25 * rate:
            break
        accepted.append(b)
        prev = b

    sel = np.zeros(n_bins, dtype=bool)
    sel[[b for b in seed + accepted]] = True
    sel &= (env > 1e-8 * sup) & (env < 1e-2 * sup)
    if np.sum(sel) < 3:
        raise DomainError(
            "decay annulus is empty: the field does not decay below "
            "1e-02 of its sup before reaching the noise floor "
            "(box too small or grid too coarse?)"
        )
    x = radii[sel]
    y = np.log(env[sel])
    A = np.stack([np.ones_like(x), -x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    # lift the prefactor to the least upper envelope at the fitted
    # slope, so u <= C1 exp(-C2 r) genuinely holds on the annulus (a
    # centered least-squares line cannot satisfy a pointwise bound)
    C2 = float(coef[1])
    C1 = float(np.exp(coef[0] + np.max(y - yhat)))
    # pointwise upper-bound check with 10% slack on the fitted shells
    bound_ok = bool(np.all(env[sel] <= 1.1 * C1 * np.exp(-C2 * radii[sel])))
    return {
        "C1": C1,
        "C2": C2,
        "r_squared": r2,
        "n_points": int(np.sum(sel)),
        "r_max_fitted": float(radii[sel][-1]),
        "pointwise_bound_ok": bound_ok,
    }


def solve_report(result: SolveResult, config: ModelConfig) -> dict:
    """Every per-solve number that `frns solve` and `frns sweep` report.

    The level against c_*, the Nehari and gradient residuals, the argmax
    (argmax_x, argmax_y), sup norm, iterations and convergence, the
    penalization check (`verify_solution_region`) and the decay fit.  A
    fit that fails with a DomainError or a LinAlgError leaves nan decay
    values and decay_bound_ok false; any other error propagates.
    """
    region = verify_solution_region(result, config)
    try:
        fit = decay_fit(result)
    except (DomainError, np.linalg.LinAlgError):
        fit = {"C1": np.nan, "C2": np.nan, "r_squared": np.nan,
               "pointwise_bound_ok": False}
    return {
        "energy": result.energy,
        "c_star": mp_threshold(config),
        "nehari_residual": result.nehari_residual,
        "grad_residual": result.grad_residual,
        **{f"argmax_{a}": c for a, c in zip("xy", result.argmax_point)},
        "sup_norm": result.sup_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        **region,
        "decay_C1": fit["C1"],
        "decay_C2": fit["C2"],
        "decay_r_squared": fit["r_squared"],
        "decay_bound_ok": fit["pointwise_bound_ok"],
    }


def dist_to_wells(point, M_points) -> float:
    return min(
        float(np.sqrt(sum((a - b) ** 2 for a, b in zip(point, mp)))) for mp in M_points
    )


def grid_for_eps(config: ModelConfig, eps: float, points_per_dim: int) -> Grid:
    """The grid on the box Lambda/eps + 8 of `params.box_half_length`."""
    return Grid(config.frac.n_dim, points_per_dim, box_half_length(config, eps))


def concentration_sweep(
    config: ModelConfig,
    eps_list: Sequence[float],
    points_per_dim: int = 256,
    tolerances: Tolerances = Tolerances(),
    jobs: int = 1,
) -> list:
    """Solve across decreasing eps on `jobs` threads; track the maximum.

    Each row is the `solve_report` of one solve plus eps, the grid
    (grid_points, half_length), the rescaled argmax distance to the
    well set M and error (None).  Numerical and domain failures of a
    solve leave a row of eps, the grid, converged = False and the error
    message, and the sweep continues; other exceptions (programming
    errors) propagate.
    """
    def run_one(eps):
        cfg = replace(config, eps=eps)
        g = grid_for_eps(cfg, eps, points_per_dim)
        row = {"eps": eps, "grid_points": points_per_dim, "half_length": g.half_length}
        try:
            res = ground_state(cfg, g, tolerances=tolerances)
            row.update(solve_report(res, cfg))
        except (DomainError, AssumptionError, NoPositivePartError, NoBracketError,
                ArithmeticError) as exc:  # numerical failures recorded, sweep continues
            row.update(converged=False, error=f"{type(exc).__name__}: {exc}")
            return row
        rescaled = tuple(eps * c for c in res.argmax_point)
        row.update(dist_to_M_rescaled=dist_to_wells(rescaled, config.potential.M_points),
                   error=None)
        return row

    from concurrent.futures import ThreadPoolExecutor  # 10 ms to import; only sweep uses it

    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(run_one, eps_list))
