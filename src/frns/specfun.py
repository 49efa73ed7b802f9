"""Special functions and closed-form constants for the relativistic
fractional operator (-Delta + m^2)^s.

Everything here is scalar math: the modified Bessel function K_nu, the
radial extension profile theta(r) = (2/Gamma(s)) (r/2)^s K_s(r), and the
Gamma-function constants (sigma_s, kappa_s, the sharp trace-Sobolev
constant, and the singular-integral / Poisson-kernel normalizations).
All functions are pure and re-entrant.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as Gamma
from scipy.special import kv


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


def kappa_s_limit(s, y0=1e-3, levels=6):
    """-lim_{y->0} y^(1-2s) theta'(y), by Richardson extrapolation.

    The small-argument expansion of theta gives
    -y^(1-2s) theta'(y) = kappa_s + O(y^(2-2s)) + O(y^2), so we
    extrapolate on a geometric ladder y0, y0/2, ..., eliminating the
    y^(2-2s) error first and the y^2 error second.
    """
    ys = y0 / 2.0 ** np.arange(levels)
    vals = -ys ** (1.0 - 2.0 * s) * theta_profile_deriv(s, ys)
    for p in (2.0 - 2.0 * s, 2.0):
        for _ in range(2):
            if len(vals) < 2:
                break
            vals = (2.0**p * vals[1:] - vals[:-1]) / (2.0**p - 1.0)
    return float(vals[0])


def kappa_s(s, rtol=1e-9):
    """kappa_s = integral_0^inf y^(1-2s) (theta'(y)^2 + theta(y)^2) dy.

    Evaluated by adaptive quadrature (split at y = 1 to help the
    endpoint singularity of the weight).  Raises QuadratureError with
    the achieved error estimate if the quadrature does not converge.
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


@dataclass(frozen=True)
class KernelConstants:
    """Normalization constants of the singular-integral and Poisson-kernel
    representations."""

    C_Ns: float       # singular-integral normalization
    p_Ns: float       # massless Poisson-kernel normalization
    c_prime_Ns: float  # massive Poisson-kernel normalization


def kernel_constants(params: FracParams) -> KernelConstants:
    """Constants C(N,s), p_{N,s} and c'_{N,s} for the given parameters.

    C(N,s)   = 2^(-(N+2s)/2 + 1) pi^(-N/2) 2^(2s) s(1-s) / Gamma(2-s)
    p_{N,s}  = pi^(-N/2) Gamma((N+2s)/2) / Gamma(s)
    c'_{N,s} = p_{N,s} 2^((N+2s)/2 - 1) / Gamma((N+2s)/2)
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
    p_Ns = np.pi ** (-N / 2.0) * Gamma((N + 2.0 * s) / 2.0) / Gamma(s)
    c_prime_Ns = p_Ns * 2.0 ** ((N + 2.0 * s) / 2.0 - 1.0) / Gamma((N + 2.0 * s) / 2.0)
    return KernelConstants(C_Ns=float(C_Ns), p_Ns=float(p_Ns), c_prime_Ns=float(c_prime_Ns))
