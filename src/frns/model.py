"""Problem data: potential well, power nonlinearity and penalization.

The potential V has a designated well region Lambda containing the set
M of its minima; outside Lambda the nonlinearity is truncated above the
threshold a to the small linear term (V1/kappa) t, which is what makes
the variational problem compact-friendly while leaving solutions that
stay below a outside Lambda untouched.

All optimization happens on trace fields over R^N with the spectral
operator (the energy and its gradient live in the solver module); the
half-space only appears in the extension module.
"""

from dataclasses import dataclass

import numpy as np

from .specfun import FracParams, brentq


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


def _smooth_ramp(t):
    """C^1 ramp: 0 for t <= 0, 1 for t >= 1, monotone in between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class PotentialSpec:
    """Multi-well potential with designated minima inside a ball Lambda.

        V(x) = -V0 + depth * ramp(min_i |x - M_i| / well_width)

    capped so the global infimum is -V1 (= -V0 for the shipped configs:
    the wells are the global minima).  Lambda is the ball of radius
    lambda_radius about lambda_center; every M_i must lie inside it.
    """

    V1: float
    V0: float
    M_points: tuple            # tuple of minima, each a tuple of floats
    lambda_center: tuple
    lambda_radius: float
    well_width: float = 1.0
    barrier: float = 1.0       # V rises to -V0 + barrier away from the wells

    def __post_init__(self):
        object.__setattr__(
            self, "M_points", tuple(tuple(float(c) for c in p) for p in self.M_points)
        )
        object.__setattr__(
            self, "lambda_center", tuple(float(c) for c in self.lambda_center)
        )

    def __call__(self, *coords):
        """Evaluate V at coordinate arrays (one per dimension)."""
        d2min = None
        for p in self.M_points:
            d2 = sum((x - c) ** 2 for x, c in zip(coords, p))
            d2min = d2 if d2min is None else np.minimum(d2min, d2)
        r = np.sqrt(d2min) / self.well_width
        return -self.V0 + self.barrier * _smooth_ramp(r)

    def in_lambda(self, *coords):
        """Characteristic function of Lambda at coordinate arrays."""
        d2 = sum((x - c) ** 2 for x, c in zip(coords, self.lambda_center))
        return d2 < self.lambda_radius**2


# ---------------------------------------------------------------------------
# nonlinearity


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity f(t) = lambda (t+)^(p-1), F(t) = lambda (t+)^p / p.

    The Ambrosetti-Rabinowitz exponent theta (named ar_theta: theta is
    taken by the extension profile) equals p for the pure power, and q
    is the growth cap, p < q < 2*_s.
    """

    lam: float
    p: float
    ar_theta: float
    q: float

    def f(self, t):
        tp = np.maximum(np.asarray(t, dtype=float), 0.0)
        return self.lam * tp ** (self.p - 1.0)

    def F(self, t):
        tp = np.maximum(np.asarray(t, dtype=float), 0.0)
        return self.lam * tp**self.p / self.p


@dataclass(frozen=True)
class PenalizationSpec:
    """Penalization parameters: kappa and the truncation threshold a."""

    kappa: float
    a: float


def solve_penalization_threshold(
    frac: FracParams, nonlin: NonlinearitySpec, V1: float, kappa: float
) -> float:
    """Smallest positive root a of f(a) + a^(2*_s - 1) = (V1/kappa) a.

    For the power model this reads lambda a^(p-2) + a^(2*_s - 2) =
    V1/kappa, whose left side is continuous, increasing and onto
    (0, inf), so a unique positive root exists.  Bracketing bisection
    followed by a Brent polish; residual of the defining equation is
    required to be <= 1e-12.
    """
    two_star = frac.two_star
    rhs = V1 / kappa

    def lhs(t):
        return nonlin.lam * t ** (nonlin.p - 2.0) + t ** (two_star - 2.0)

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
    resid = abs(nonlin.f(a) + a ** (two_star - 1.0) - rhs * a)
    if resid > 1e-12 * max(1.0, rhs * a):
        raise AssumptionError("threshold a", f"root residual {resid:.3e} too large")
    return float(a)


# ---------------------------------------------------------------------------
# full configuration


@dataclass(frozen=True)
class ModelConfig:
    """All problem parameters, validated jointly at construction."""

    frac: FracParams
    eps: float
    potential: PotentialSpec
    nonlin: NonlinearitySpec
    pen: PenalizationSpec

    def __post_init__(self):
        validate_config(self)

    @property
    def two_star(self) -> float:
        return self.frac.two_star


def validate_config(cfg: "ModelConfig"):
    """Check (V1), (V2), (f2), the kappa bound and the threshold identity.

    Raises AssumptionError naming the first violated assumption.
    """
    frac, pot, nl, pen = cfg.frac, cfg.potential, cfg.nonlin, cfg.pen
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
    # every designated minimum lies strictly inside Lambda, at depth -V0
    for pnt in pot.M_points:
        d = np.sqrt(sum((a - b) ** 2 for a, b in zip(pnt, pot.lambda_center)))
        if not d < pot.lambda_radius:
            raise AssumptionError("(V2)", f"minimum {pnt} lies outside Lambda")
        v_here = float(pot(*[np.asarray(c) for c in pnt]))
        if abs(v_here + pot.V0) > 1e-12:
            raise AssumptionError("(V2)", f"V({pnt}) = {v_here} != -V0")
    # inf over Lambda < min over its boundary (sampled on the sphere)
    v_boundary = _boundary_min(pot, frac.n_dim)
    if not -pot.V0 < v_boundary:
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
    if not pen.kappa > kappa_min:
        raise AssumptionError(
            "kappa bound",
            f"need kappa > max(V1/(m^2s - V1), theta/(theta-2)) = {kappa_min:.6g}, "
            f"got {pen.kappa}",
        )
    a_star = solve_penalization_threshold(frac, nl, pot.V1, pen.kappa)
    if abs(pen.a - a_star) > 1e-9 * max(1.0, a_star):
        raise AssumptionError(
            "threshold a", f"configured a={pen.a} does not solve the threshold equation "
            f"(root is {a_star:.15g})"
        )
    if not cfg.eps > 0.0:
        raise AssumptionError("(V2)", f"eps must be positive, got {cfg.eps}")


def _boundary_min(pot: PotentialSpec, n_dim: int) -> float:
    """min of V over the sphere bounding Lambda: its two points in 1D,
    720 equispaced points of the circle in 2D."""
    c = np.asarray(pot.lambda_center)
    if n_dim == 1:
        pts = np.array([[c[0] - pot.lambda_radius], [c[0] + pot.lambda_radius]])
    else:
        phi = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        pts = np.stack(
            [c[0] + pot.lambda_radius * np.cos(phi), c[1] + pot.lambda_radius * np.sin(phi)],
            axis=1,
        )
    vals = pot(*[pts[:, j] for j in range(n_dim)])
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# penalized nonlinearity g and primitive G


def g_eval(config: ModelConfig, in_lambda, t):
    """Penalized nonlinearity g(x, t).

    Inside Lambda: f(t) + (t+)^(2*_s - 1).  Outside: the same below the
    threshold a, and (V1/kappa) t above it; the two branches agree at
    t = a by the threshold identity.  Zero for t <= 0.

    `in_lambda` is a boolean array (or scalar) marking x in Lambda;
    broadcast against t.
    """
    nl, pot, pen = config.nonlin, config.potential, config.pen
    t = np.asarray(t, dtype=float)
    # only t > 0 (and nan, which stays nan) goes through pow: it takes a
    # slow path for a 0.0 base, and the clipped field holds many zeros
    pos = np.logical_not(t <= 0.0)
    tp = t[pos]
    full = np.zeros(t.shape)
    full[pos] = nl.f(tp) + tp ** (config.two_star - 1.0)
    linear = (pot.V1 / pen.kappa) * t
    outside_high = np.logical_and(np.logical_not(in_lambda), t >= pen.a)
    return np.where(outside_high, linear, full)


def G_eval(config: ModelConfig, in_lambda, t):
    """Primitive G(x, t) = int_0^t g(x, tau) dtau, closed form per branch.

    For x outside Lambda and t >= a:
        F(a) + a^(2*_s)/2*_s + (V1 / 2 kappa)(t^2 - a^2),
    which matches the inner branch C^1 at t = a.
    """
    nl, pot, pen = config.nonlin, config.potential, config.pen
    two_star = config.two_star
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    full = nl.F(tp) + tp**two_star / two_star
    a = pen.a
    G_at_a = float(nl.F(a) + a**two_star / two_star)
    linear = G_at_a + (pot.V1 / (2.0 * pen.kappa)) * (t**2 - a**2)
    outside_high = np.logical_and(np.logical_not(in_lambda), t >= pen.a)
    return np.where(outside_high, linear, full)


# ---------------------------------------------------------------------------
# problem data on the grid


def potential_on_grid(config: ModelConfig, grid) -> np.ndarray:
    """V(eps x) sampled on the grid."""
    coords = [config.eps * c for c in grid.coords()]
    return config.potential(*coords)


def lambda_mask(config: ModelConfig, grid) -> np.ndarray:
    """Characteristic function of Lambda_eps = Lambda / eps on the grid."""
    coords = [config.eps * c for c in grid.coords()]
    return config.potential.in_lambda(*coords)

