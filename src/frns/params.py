"""Problem parameters that need no arrays.

The fractional order, the potential and nonlinearity specs, the joint
check of the paper's hypotheses ((V1), (V2), (f2) and the kappa bound),
the penalization threshold a that the check derives, the descent's
stopping rule, Brent's root finder, the one gate on the grids,
boxes and solver settings of a run (`check_run`), and the one way the
program uses its cores (`parallel_map`).

The module imports the standard library alone, so a command that only
validates a config (`frns validate`) starts without numpy; the array
layers (specfun, operator, model, solver) import these names from here.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


@dataclass(frozen=True)
class FracParams:
    """Fractional order s in (0,1), mass m > 0 and spatial dimension.

    Requires n_dim > 2s so that the critical exponent
    2N/(N - 2s) is finite and > 2, and m^2 positive and finite: the
    symbol (|k|^2 + m^2)^s is tabulated from it.
    """

    s: float
    m: float
    n_dim: int

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must lie in (0, 1), got {self.s}")
        if not self.m > 0.0:
            raise DomainError(f"m must be positive, got {self.m}")
        if not 0.0 < self.m * self.m < math.inf:
            raise DomainError(f"m^2 must be a positive finite number, got m={self.m}")
        if not self.n_dim > 2.0 * self.s:
            raise DomainError(
                f"need n_dim > 2s for a finite critical exponent, "
                f"got n_dim={self.n_dim}, s={self.s}"
            )

    @property
    def two_star(self) -> float:
        """Critical exponent 2N/(N - 2s)."""
        return 2.0 * self.n_dim / (self.n_dim - 2.0 * self.s)


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in the bracket [a, b] by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (its brentq.c), so the
    iterates and the root are the same to the last bit: inverse
    quadratic interpolation or secant steps, falling back to bisection,
    until the bracket is below xtol + rtol |x|.  An endpoint where f is
    exactly zero is returned as is.  Raises ValueError if f(a) and f(b)
    have the same sign or f returns nan, and RuntimeError if maxiter
    iterations do not converge.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is nan; brentq cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # scipy's C divides an underflowed 0 into +-inf or nan,
                # which the short-step test below rejects: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# cores


def cores() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (`taskset`, a cgroup cpuset), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items, workers=None) -> list:
    """[fn(x) for x in items], on min(workers or `cores()`, len(items))
    threads, the caller's among them; on one it is that plain loop and
    starts no thread.

    Threads overlap only where fn runs native code that releases the GIL,
    such as numpy's FFTs.  Each thread takes the next item from one shared
    iterator, so a slow item holds up no other, and runs in a copy of the
    caller's context, which holds numpy's `errstate`.  Every item runs;
    once all threads have joined, the exception of the lowest failing
    index is raised."""
    items = list(items)
    n_threads = min(workers or cores(), len(items))
    if n_threads <= 1:
        return [fn(x) for x in items]
    results, errors = [None] * len(items), {}
    todo, lock = enumerate(items), threading.Lock()

    def work():
        while True:
            with lock:
                i, x = next(todo, (None, None))
            if i is None:
                return
            try:
                results[i] = fn(x)
            except BaseException as exc:  # re-raised below, after the join
                errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(n_threads - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results


class AssumptionError(ValueError):
    """A structural assumption on the problem data is violated.

    The `assumption` attribute names it: one of "(V1)", "(V2)", "(f2)",
    "kappa bound", "threshold a".
    """

    def __init__(self, assumption: str, message: str):
        super().__init__(f"{assumption}: {message}")
        self.assumption = assumption


# ---------------------------------------------------------------------------
# potential


def smooth_ramp(t):
    """The C^1 ramp t^2 (3 - 2t), rising monotonically from 0 at t = 0 to
    1 at t = 1; the caller clips t to [0, 1].  Pure arithmetic, so t may
    be a float or an array."""
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class PotentialSpec:
    """Multi-well potential with designated minima inside a ball Lambda.

        V(x) = -V0 + ramp(min(min_i |x - M_i|, 1))

    capped so the global infimum is -V1 (= -V0 for the shipped configs:
    the wells are the global minima).  Lambda is the ball of radius
    lambda_radius about lambda_center; every M_i must lie inside it.
    `model.potential_values` evaluates V on coordinate arrays.
    """

    V1: float
    V0: float
    M_points: tuple            # tuple of minima, each a tuple of floats
    lambda_center: tuple
    lambda_radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "M_points", tuple(tuple(float(c) for c in p) for p in self.M_points)
        )
        object.__setattr__(
            self, "lambda_center", tuple(float(c) for c in self.lambda_center)
        )

    def boundary_min(self) -> float:
        """min of V over the sphere bounding Lambda, in closed form.

        V grows with the distance to the nearest well, and a well at
        distance d < R from the centre lies R - d from the sphere, so the
        minimum is -V0 + ramp(min(min_i (R - d_i), 1)).
        """
        gap = min(self.lambda_radius - math.dist(p, self.lambda_center)
                  for p in self.M_points)
        return -self.V0 + smooth_ramp(min(max(gap, 0.0), 1.0))

    def in_lambda(self, *coords):
        """Characteristic function of Lambda at coordinate arrays."""
        d2 = sum((x - c) ** 2 for x, c in zip(coords, self.lambda_center))
        return d2 < self.lambda_radius * self.lambda_radius


# ---------------------------------------------------------------------------
# nonlinearity


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity f(t) = lambda (t+)^(p-1), F(t) = lambda (t+)^p / p.

    The Ambrosetti-Rabinowitz exponent theta (named ar_theta: theta is
    taken by the extension profile) equals p for the pure power, and q
    is the growth cap, p < q < 2*_s.  f enters the model as the first
    of the `power_terms`.
    """

    lam: float
    p: float
    ar_theta: float
    q: float


def power_terms(frac: FracParams, nonlin: NonlinearitySpec) -> tuple:
    """f(t) + t^(2*_s - 1) as the terms (c, e) of sum c t^(e-1), whose
    primitive is sum c t^e / e: ((lambda, p), (1.0, 2*_s)), in rising e
    ((f2): p < 2*_s), summed in this order from 0 wherever it is used."""
    return (nonlin.lam, nonlin.p), (1.0, frac.two_star)


def solve_penalization_threshold(
    frac: FracParams, nonlin: NonlinearitySpec, V1: float, kappa: float
) -> float:
    """Smallest positive root a of f(a) + a^(2*_s - 1) = (V1/kappa) a.

    Divided by a, it reads sum c a^(e-2) = V1/kappa over the
    `power_terms`, whose left side is continuous, increasing and onto
    (0, inf), so a unique positive root exists.  Bracketing bisection
    followed by a Brent polish; residual of the defining equation is
    required to be <= 1e-12.
    """
    terms = power_terms(frac, nonlin)
    rhs = V1 / kappa

    def lhs(t):
        return sum(c * t ** (e - 2.0) for c, e in terms)

    lo, hi = 1e-12, 1.0
    while lhs(hi) < rhs:
        hi *= 2.0
        if hi > 1e12:
            raise AssumptionError("threshold a", "no positive root found up to 1e12")
    while lhs(lo) > rhs:
        lo *= 0.5
        if lo < 1e-300:
            raise AssumptionError("threshold a", "no positive root found down to 0")
    a = brentq(lambda t: lhs(t) - rhs, lo, hi, xtol=1e-300, rtol=8.9e-16)
    resid = abs(sum(c * a ** (e - 1.0) for c, e in terms) - rhs * a)
    if resid > 1e-12 * max(1.0, rhs * a):
        raise AssumptionError("threshold a", f"root residual {resid:.3e} too large")
    return float(a)


# ---------------------------------------------------------------------------
# full configuration


@dataclass(frozen=True)
class ModelConfig:
    """All problem parameters, validated jointly at construction, which
    also derives the penalization threshold `a` (`validate_config`), the
    nonlinearity's `power_terms` and G_a = sum c a^e / e, G at t = a."""

    frac: FracParams
    eps: float
    potential: PotentialSpec
    nonlin: NonlinearitySpec
    kappa: float
    a: float = field(init=False)
    terms: tuple = field(init=False)
    G_a: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", validate_config(self))
        object.__setattr__(self, "terms", power_terms(self.frac, self.nonlin))
        object.__setattr__(self, "G_a", sum(c * self.a**e / e for c, e in self.terms))

    @property
    def slope(self) -> float:
        """V1/kappa, the slope of the truncated branch of g."""
        return self.potential.V1 / self.kappa


def validate_config(cfg: "ModelConfig") -> float:
    """Check (V1), (V2), (f2) and the kappa bound, and return the
    penalization threshold a (`solve_penalization_threshold`).

    Raises AssumptionError naming the first violated assumption.
    """
    frac, pot, nl = cfg.frac, cfg.potential, cfg.nonlin
    m2s = frac.m ** (2.0 * frac.s)
    if not 0.0 < pot.V1 < m2s:
        raise AssumptionError("(V1)", f"need 0 < V1 < m^(2s)={m2s:.6g}, got V1={pot.V1}")
    if not 0.0 < pot.V0 <= pot.V1:
        raise AssumptionError("(V2)", f"need 0 < V0 <= V1, got V0={pot.V0}, V1={pot.V1}")
    # the analytic well family attains its global infimum -V0 at the wells,
    # so -V1 = inf V forces V1 == V0 here
    if abs(pot.V1 - pot.V0) > 1e-12:
        raise AssumptionError(
            "(V1)", "this potential family attains its global infimum -V0 inside "
            "Lambda; -V1 = inf V requires V1 == V0"
        )
    for pnt in (pot.lambda_center,) + pot.M_points:
        if len(pnt) != frac.n_dim:
            raise AssumptionError("(V2)", f"point {pnt} must have {frac.n_dim} coordinates")
    # every designated minimum lies strictly inside Lambda
    for pnt in pot.M_points:
        if not math.dist(pnt, pot.lambda_center) < pot.lambda_radius:
            raise AssumptionError("(V2)", f"minimum {pnt} lies outside Lambda")
    # inf over Lambda < min over its boundary
    if not -pot.V0 < pot.boundary_min():
        raise AssumptionError("(V2)", "inf over Lambda is not below the boundary values")
    if not 2.0 < nl.p < frac.two_star:
        raise AssumptionError("(f2)", f"need p in (2, 2*_s={frac.two_star:.4g}), got {nl.p}")
    if not nl.p < nl.q < frac.two_star:
        raise AssumptionError("(f2)", f"need q in (p, 2*_s), got q={nl.q}")
    if not nl.lam > 0.0:
        raise AssumptionError("(f2)", f"need lambda > 0, got {nl.lam}")
    # theta F(t) <= f(t) t holds for the pure power f = lam t^(p-1) only up to p
    if not 2.0 < nl.ar_theta <= nl.p:
        raise AssumptionError("(f2)", f"need ar_theta in (2, p], got {nl.ar_theta}")
    kappa_min = max(pot.V1 / (m2s - pot.V1), nl.ar_theta / (nl.ar_theta - 2.0))
    if not cfg.kappa > kappa_min:
        raise AssumptionError(
            "kappa bound",
            f"need kappa > max(V1/(m^2s - V1), theta/(theta-2)) = {kappa_min:.6g}, "
            f"got {cfg.kappa}",
        )
    a = solve_penalization_threshold(frac, nl, pot.V1, cfg.kappa)
    if not cfg.eps > 0.0:
        raise AssumptionError("(V2)", f"eps must be positive, got {cfg.eps}")
    return a


# ---------------------------------------------------------------------------
# run settings, the gate on them and failures


@dataclass(frozen=True)
class Tolerances:
    """Stopping rule of `solver._descend`, which also stops, unconverged,
    when a line search along the steepest (preconditioned, beta = 0)
    direction rejects all 40 trial steps; a failed CG search is retried
    once along that direction first."""

    grad: float = 1e-6          # relative max-norm of the projected (KKT) gradient
    max_iterations: int = 20000


@dataclass(frozen=True)
class RunSettings:
    """Everything beyond the ModelConfig that a run needs."""

    points_per_dim: int
    half_length: float  # box of the configured eps; `box_half_length` unless set
    tolerances: Tolerances
    sweep_eps: tuple
    sweep_points_per_dim: int
    restarts: int = 1  # unused; only perfbench/worker.py still reads it


def check_grid(n_dim: int, points_per_dim: int, half_length: float,
               points_key: str = "points_per_dim", box_key: str = "half_length"):
    """Raise DomainError unless [-L, L)^N with n points per axis is a grid:
    N is 1 or 2, n a power of two >= 32 with n^N within the desk-scale
    cap, and h = 2L/n > 0 with h^N (the weight of every sum) and (pi/h)^2
    (the top |k|^2) positive and finite.  The messages name n and L by
    `points_key` and `box_key`, the config keys or boxes they came from."""
    n = points_per_dim
    if n_dim not in (1, 2):
        raise DomainError(f"n_dim must be 1 or 2, got {n_dim}")
    if n < 32 or (n & (n - 1)) != 0:
        raise DomainError(f"{points_key} must be a power of two >= 32, got {n}")
    if n**n_dim > 2**22:  # desk-scale cap
        raise DomainError(f"{points_key} = {n}: total points {n**n_dim} exceed "
                          f"desk-scale cap {2**22}")
    h = 2.0 * float(half_length) / n
    if not (h > 0.0 and 0.0 < math.prod([h] * n_dim) < math.inf
            and 0.0 < (math.pi / h) * (math.pi / h) < math.inf):
        raise DomainError(f"{box_key} = {half_length}: need h = 2L/n > 0 with h^N and "
                          "(pi/h)^2 positive and finite")


def box_half_length(cfg: ModelConfig, eps: float) -> float:
    """Half-length of a box holding Lambda/eps plus a decay margin of 8."""
    pot = cfg.potential
    L = (math.sqrt(sum(c * c for c in pot.lambda_center)) + pot.lambda_radius) / eps + 8.0
    if not L < math.inf:
        raise DomainError(f"Lambda (centre {pot.lambda_center}, radius {pot.lambda_radius}) "
                          f"has no finite box Lambda/eps + 8 at eps = {eps}")
    return L


def autonomous_box(cfg: ModelConfig, settings: RunSettings) -> tuple:
    """(points per axis, half-length) of the grid of `frns sweep`'s d_V0."""
    return min(settings.sweep_points_per_dim, 128), 20.0 / cfg.frac.m


def check_run(cfg: ModelConfig, settings: RunSettings):
    """Raise DomainError on the first run setting that a command would
    reject: a stopping rule the descent cannot meet, fewer than 3 positive
    sweep eps, a grid that `check_grid` rejects among the grids of the
    configured eps, each sweep eps and d_V0 (its message names the key or
    the eps the grid came from), or a well outside the box of
    the configured eps (under (V2) only a set `grid.half_length` can be
    too small for one)."""
    tol, eps_list, n_dim = settings.tolerances, settings.sweep_eps, cfg.frac.n_dim
    if not tol.grad > 0.0:
        raise DomainError(f"solver.grad_tol must be positive, got {tol.grad}")
    if tol.max_iterations < 1:
        raise DomainError(f"solver.max_iterations must be at least 1, got {tol.max_iterations}")
    if len(eps_list) < 3 or not all(0.0 < e < math.inf for e in eps_list):
        raise DomainError(f"sweep.eps needs at least 3 positive finite values, got {eps_list}")
    L = settings.half_length
    check_grid(n_dim, settings.points_per_dim, L, "grid.points_per_dim",
               f"grid.half_length (eps {cfg.eps})")
    for j, point in enumerate(cfg.potential.M_points):
        if not all(abs(c / cfg.eps) <= L for c in point):
            raise DomainError(f"well {j} at {point} lies outside the box [-{L}, {L}]^{n_dim} "
                              f"after the blow-up x = M/eps (eps = {cfg.eps})")
    for eps in eps_list:
        check_grid(n_dim, settings.sweep_points_per_dim, box_half_length(cfg, eps),
                   "sweep.points_per_dim", f"sweep box half_length (eps {eps})")
    check_grid(n_dim, *autonomous_box(cfg, settings), "sweep.points_per_dim (d_V0 grid)",
               "d_V0 box half_length 20/frac.m")


class NoPositivePartError(ValueError):
    """Candidate field has no positive part where the full nonlinearity acts."""
