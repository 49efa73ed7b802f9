"""Special functions and closed-form constants for the relativistic
fractional operator (-Delta + m^2)^s.

Everything here is scalar math: the modified Bessel function K_nu, the
radial extension profile theta(r) = (2/Gamma(s)) (r/2)^s K_s(r), the
Gamma-function constants (sigma_s, kappa_s, the sharp trace-Sobolev
constant, and the singular-integral normalization), Richardson
extrapolation and Brent's root finder.  All functions are pure and
re-entrant.

The Gamma constants use math.gamma; scipy (K_nu and quadrature) is
imported only inside the functions that need it, so the solver path
loads numpy alone.
"""

import math
from dataclasses import dataclass
from math import gamma as Gamma

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass(frozen=True)
class FracParams:
    """Fractional order s in (0,1), mass m > 0 and spatial dimension.

    Requires n_dim > 2s so that the critical exponent
    2N/(N - 2s) is finite and > 2.
    """

    s: float
    m: float
    n_dim: int

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must lie in (0, 1), got {self.s}")
        if not self.m > 0.0:
            raise DomainError(f"m must be positive, got {self.m}")
        if not self.n_dim > 2.0 * self.s:
            raise DomainError(
                f"need n_dim > 2s for a finite critical exponent, "
                f"got n_dim={self.n_dim}, s={self.s}"
            )

    @property
    def two_star(self) -> float:
        """Critical exponent 2N/(N - 2s)."""
        return 2.0 * self.n_dim / (self.n_dim - 2.0 * self.s)


def bessel_k(nu, x):
    """Modified Bessel function of the third kind K_nu(x), x > 0.

    Delegates to scipy's AMOS-based evaluation, which meets the 1e-10
    relative accuracy contract on nu in [0, 10], x in [1e-6, 50].
    """
    from scipy.special import kv

    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("bessel_k requires x > 0 (K_nu diverges at 0)")
    return kv(nu, x)


def theta_profile(s, r):
    """Radial profile theta(r) = (2/Gamma(s)) (r/2)^s K_s(r).

    Diagonalizes the weighted half-space extension mode by mode.
    theta(0) = 1 is taken as the limiting value; theta decreases
    monotonically to 0 as r -> infinity.
    """
    from scipy.special import kv

    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("theta_profile requires r >= 0")
    out = np.ones_like(r)
    pos = r > 0.0
    rp = r[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        val = (2.0 / Gamma(s)) * (rp / 2.0) ** s * kv(s, rp)
    # kv underflows to 0 for large argument; the profile does too.
    out[pos] = np.where(np.isfinite(val), val, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def theta_profile_deriv(s, r):
    """d/dr of theta_profile, for r > 0.

    Uses d/dr[(r/2)^s K_s(r)] = -(r/2)^s K_{s-1}(r), a consequence of
    the recurrence K_s'(r) = -(K_{s-1} + K_{s+1})/2 and
    K_{s+1}(r) = K_{s-1}(r) + (2s/r) K_s(r).
    """
    from scipy.special import kv

    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("theta_profile_deriv requires r > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        val = -(2.0 / Gamma(s)) * (r / 2.0) ** s * kv(s - 1.0, r)
    val = np.where(np.isfinite(val), val, 0.0)
    if val.ndim == 0:
        return float(val)
    return val


def sigma_s(s):
    """Trace-inequality constant sigma_s = 2^(1-2s) Gamma(1-s) / Gamma(s)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    return 2.0 ** (1.0 - 2.0 * s) * Gamma(1.0 - s) / Gamma(s)


def richardson(vals, ys, orders):
    """v(0) from samples vals[j] = v(ys[j]) of v(y) = v(0) + sum c_p y^p.

    One pass per order p in `orders` maps each neighbour pair (a, b) to
    (r v_a - v_b) / (r - 1), r = (y_b / y_a)^p, which cancels c_p y^p on
    a geometric ladder; `vals` may carry trailing axes (one field per y).
    """
    vals = np.asarray(vals, dtype=float)
    for p in orders:
        r = ((ys[1:] / ys[:-1]) ** p).reshape((-1,) + (1,) * (vals.ndim - 1))
        vals = (r * vals[:-1] - vals[1:]) / (r - 1.0)
        ys = ys[:-1]
    return vals[0]


def kappa_s_limit(s):
    """-lim_{y->0} y^(1-2s) theta'(y), by Richardson extrapolation.

    The small-argument expansion of theta gives
    -y^(1-2s) theta'(y) = kappa_s + O(y^(2-2s)) + O(y^2) + O(y^(4-2s)),
    so we extrapolate on the geometric ladder 1e-3 / 2^j, j = 0..5,
    eliminating those three orders in turn (`richardson`).
    """
    ys = 1e-3 / 2.0 ** np.arange(6)
    vals = -ys ** (1.0 - 2.0 * s) * theta_profile_deriv(s, ys)
    return float(richardson(vals, ys, (2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s)))


def kappa_s(s):
    """kappa_s = integral_0^inf y^(1-2s) (theta'(y)^2 + theta(y)^2) dy.

    Evaluated by adaptive quadrature to relative tolerance rtol = 1e-9
    (split at y = 1 to help the endpoint singularity of the weight).
    Raises QuadratureError with the achieved error estimate if the
    quadrature does not converge.
    Numerically this equals sigma_s; the identity is asserted in the
    test suite rather than assumed here.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    from scipy.integrate import quad  # 40-60 ms to import; only kappa_s needs it

    def integrand(y):
        t = theta_profile(s, y)
        dt = theta_profile_deriv(s, y)
        return y ** (1.0 - 2.0 * s) * (dt * dt + t * t)

    rtol = 1e-9
    total = 0.0
    err = 0.0
    for a, b in ((0.0, 1.0), (1.0, np.inf)):
        val, e = quad(integrand, a, b, epsabs=0.0, epsrel=rtol, limit=400)
        total += val
        err += e
    if err > 100.0 * rtol * abs(total):
        raise QuadratureError(
            f"kappa_s quadrature error estimate {err:.3e} exceeds budget "
            f"for s={s} (value {total:.6e})"
        )
    return total


def sobolev_trace_constant(n_dim, s):
    """Sharp constant S_* of the trace Sobolev inequality on the
    weighted half-space,

        S_* = 2 pi^s Gamma(1-s) Gamma((N+2s)/2) Gamma(N/2)^(2s/N)
              / (Gamma(s) Gamma((N-2s)/2) Gamma(N)^(2s/N)).
    """
    if not n_dim > 2.0 * s:
        raise DomainError(f"need n_dim > 2s, got n_dim={n_dim}, s={s}")
    N = float(n_dim)
    return (
        2.0
        * np.pi**s
        * Gamma(1.0 - s)
        * Gamma((N + 2.0 * s) / 2.0)
        * Gamma(N / 2.0) ** (2.0 * s / N)
        / (Gamma(s) * Gamma((N - 2.0 * s) / 2.0) * Gamma(N) ** (2.0 * s / N))
    )


def kernel_constants(params: FracParams) -> float:
    """Normalization C(N,s) of the singular-integral representation,

    C(N,s) = 2^(-(N+2s)/2 + 1) pi^(-N/2) 2^(2s) s(1-s) / Gamma(2-s).
    """
    N, s = float(params.n_dim), params.s
    C_Ns = (
        2.0 ** (-(N + 2.0 * s) / 2.0 + 1.0)
        * np.pi ** (-N / 2.0)
        * 2.0 ** (2.0 * s)
        * s
        * (1.0 - s)
        / Gamma(2.0 - s)
    )
    return float(C_Ns)


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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
