"""Special functions and closed-form constants for the relativistic
fractional operator (-Delta + m^2)^s.

Everything here is scalar math: the modified Bessel function K_nu, the
radial extension profile theta(r) = (2/Gamma(s)) (r/2)^s K_s(r), the
Gamma-function constants (sigma_s, kappa_s, the sharp trace-Sobolev
constant, and the singular-integral normalization), a fixed half-line
quadrature rule and Richardson extrapolation.  All functions are pure
and re-entrant.

The module needs numpy alone: the Gamma constants use math.gamma, K_nu
is Temme's series for small x and a trapezoidal rule on its integral
representation for larger x, and kappa_s runs one fixed trapezoidal rule
instead of adaptive quadrature.
"""

import math
from math import gamma as Gamma

import numpy as np

from .params import DomainError, FracParams

# Taylor coefficients c_1, c_2, ... of 1/Gamma(z) = sum_k c_k z^k about z = 0
# (Abramowitz-Stegun 6.1.34); the terms past c_22 stay below 1e-20 at |z| <= 1/2.
_RGAMMA_TAYLOR = (
    1.0, 0.57721566490153286, -0.65587807152025388, -0.042002635034095236,
    0.16653861138229149, -0.042197734555544337, -0.0096219715278769736,
    0.0072189432466630995, -0.0011651675918590651, -0.00021524167411495097,
    0.00012805028238811619, -2.0134854780788239e-05, -1.2504934821426707e-06,
    1.1330272319816959e-06, -2.0563384169776071e-07, 6.1160951044814158e-09,
    5.0020076444692229e-09, -1.1812745704870201e-09, 1.0434267116911005e-10,
    7.7822634399050713e-12, -3.6968056186422057e-12, 5.100370287454476e-13,
)
# trapezoidal nodes and weights in tau for `_cosh_trapezoid`
_TAU = np.linspace(0.0, 9.0, 28)
_TAU_WEIGHTS = np.where(_TAU == 0.0, 1.0 / 6.0, 1.0 / 3.0)
_CHUNK = 4096
# exp(-x) underflows past 745.13, and K_nu(x) <= K_10(x) has done so by 760
_UNDERFLOW_X = 760.0


def _temme_series(mu, x):
    """K_mu(x), K_{mu+1}(x) for |mu| <= 1/2 and 0 < x <= 2, by Temme's
    series (J. Comput. Phys. 19, 1975).

    The coefficients gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and
    gam2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2 come from the odd and even
    Taylor terms of 1/Gamma, so they lose nothing to cancellation as
    mu -> 0.
    """
    odd = sum(c * mu ** (k - 1) for k, c in enumerate(_RGAMMA_TAYLOR) if k % 2)
    gam2 = sum(c * mu**k for k, c in enumerate(_RGAMMA_TAYLOR) if k % 2 == 0)
    gam1 = -odd
    rgam_plus, rgam_minus = gam2 + mu * odd, gam2 - mu * odd  # 1/Gamma(1 +- mu)
    d = math.log(2.0) - np.log(x)  # -log(x/2); x/2 underflows at x = 5e-324
    e = mu * d
    fact = 1.0 if mu == 0.0 else math.pi * mu / math.sin(math.pi * mu)
    sinhc = np.ones_like(e)
    nz = e != 0.0
    sinhc[nz] = np.sinh(e[nz]) / e[nz]
    ff = fact * (gam1 * np.cosh(e) + gam2 * sinhc * d)
    p = 0.5 * np.exp(e) / rgam_plus
    q = 0.5 * np.exp(-e) / rgam_minus
    c = np.ones_like(x)
    xx = 0.25 * x * x
    k0, k1 = ff, p.copy()
    last = np.argmax(x)  # the relative terms ~ x^(2i) / (i!)^2 converge last there
    for i in range(1, 40):  # 13 terms reach 1e-16 at x = 2
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * xx / i
        p = p / (i - mu)
        q = q / (i + mu)
        term = c * ff
        k0 = k0 + term
        k1 = k1 + c * (p - i * ff)
        if abs(term[last]) <= 1e-16 * abs(k0[last]):
            break
    return k0, 2.0 * k1 / x


def _cosh_trapezoid(mu, x):
    """K_mu(x), K_{mu+1}(x) for |mu| <= 1/2 and x > 2, from

        e^x sqrt(x) K_nu(x) = int_0^inf exp(-2x sinh(t/2)^2) cosh(nu t) dtau,

    t = tau / sqrt(x), by the trapezoidal rule in tau (step 1/3 on
    [0, 9]; Trefethen-Weideman, SIAM Rev. 56, 2014).  The integrand is
    even and entire, and the scaling keeps its width near 1 at every x,
    so the 28 nodes reach round-off (6e-16 against 30-digit values on
    x in [2, 1e4]).  Runs in chunks of _CHUNK values to bound memory.
    """
    k0, k1 = np.empty_like(x), np.empty_like(x)
    for lo in range(0, x.size, _CHUNK):
        xc = x[lo:lo + _CHUNK, None]
        t = _TAU / np.sqrt(xc)
        e = _TAU_WEIGHTS * np.exp(-2.0 * xc * np.sinh(0.5 * t) ** 2)
        scale = np.exp(-xc[:, 0]) / np.sqrt(xc[:, 0])
        k0[lo:lo + _CHUNK] = scale * np.sum(e * np.cosh(mu * t), axis=1)
        k1[lo:lo + _CHUNK] = scale * np.sum(e * np.cosh((mu + 1.0) * t), axis=1)
    return k0, k1


def bessel_k(nu, x):
    """Modified Bessel function of the third kind K_nu(x), x > 0, for a
    real scalar nu, vectorised over x.

    K_{-nu} = K_nu.  With nu = mu + n, |mu| <= 1/2, K_mu and K_{mu+1}
    come from Temme's series for x <= 2 and from a scaled trapezoidal
    rule on the cosh integral for x > 2; K_nu then follows from the
    upward recurrence K_{mu+i+1} = K_{mu+i-1} + (2 (mu+i)/x) K_{mu+i},
    which is stable for K.  On nu in [0, 10], x in [1e-6, 700] the
    relative error is below 1e-14 against 30-digit values; the tests pin
    1e-12 against scipy.  Returns 0 where K_nu underflows and inf where
    it overflows, never nan.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("bessel_k requires x > 0 (K_nu diverges at 0)")
    nu = abs(float(nu))
    n = int(nu + 0.5)
    mu = nu - n
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        for sel, method in ((x <= 2.0, _temme_series),
                            ((x > 2.0) & (x < _UNDERFLOW_X), _cosh_trapezoid)):
            if not np.any(sel):
                continue
            xs = x[sel]
            k0, k1 = method(mu, xs)
            for i in range(1, n):
                k0, k1 = k1, k0 + 2.0 * (mu + i) * k1 / xs
            out[sel] = k0 if n == 0 else k1
    if out.ndim == 0:
        return float(out)
    return out


def theta_profile(s, r):
    """Radial profile theta(r) = (2/Gamma(s)) (r/2)^s K_s(r).

    Diagonalizes the weighted half-space extension mode by mode.
    theta(0) = 1 is taken as the limiting value; theta decreases
    monotonically from 1 to 0 as r -> infinity, and the computed values
    are held in [0, 1] against round-off at tiny r.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("theta_profile requires r >= 0")
    out = np.ones_like(r)
    pos = r > 0.0
    rp = r[pos]
    # 2^(1-s) r^s rather than 2 (r/2)^s: r/2 underflows at r = 5e-324
    out[pos] = np.minimum(2.0 ** (1.0 - s) / Gamma(s) * rp**s * bessel_k(s, rp), 1.0)
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
    val = -(2.0 ** (1.0 - s) / Gamma(s)) * r**s * bessel_k(s - 1.0, r)
    if np.ndim(val) == 0:
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
    An order so small that some r rounds to 1 cancels nothing, and raises
    ZeroDivisionError instead of dividing by r - 1 = 0.
    """
    vals = np.asarray(vals, dtype=float)
    for p in orders:
        r = ((ys[1:] / ys[:-1]) ** p).reshape((-1,) + (1,) * (vals.ndim - 1))
        if np.any(r == 1.0):
            raise ZeroDivisionError(f"degenerate Richardson ladder: order {p:.3g} makes "
                                    "(y_b/y_a)^p round to 1")
        vals = (r * vals[:-1] - vals[1:]) / (r - 1.0)
        ys = ys[:-1]
    return vals[0]


def half_line_rule():
    """Nodes y and weights w with sum(w f(y)) ~ int_0^inf f(y) dy.

    The trapezoidal rule in t, step 1/8 on [-6.5, 4.5], under the map
    y = exp(t - e^(-t)) (Trefethen-Weideman, SIAM Rev. 56, 2014).  An
    integrand analytic on y > 0 that behaves like y^a (a > -1) at 0 and
    like e^(-c y) at infinity decays double exponentially in t at both
    ends, so the 89 nodes reach round-off unless a is near -1 or c near
    0; they leave out y < 2e-292 and y > 89.
    """
    t = np.linspace(-6.5, 4.5, 89)
    y = np.exp(t - np.exp(-t))
    return y, 0.125 * y * (1.0 + np.exp(-t))


def kappa_s(s):
    """kappa_s = integral_0^inf y^(1-2s) (theta'(y)^2 + theta(y)^2) dy.

    One theta and one theta' call on the nodes of `half_line_rule`.
    Near y = 0 the integrand behaves like y^(2s-1) + y^(1-2s), so the
    left-out y < 2e-292 costs ~ (2e-292)^(2 min(s, 1-s)) relative: the
    value is good to about 1e-15 for s in [0.05, 0.95], 3e-13 at
    s = 0.02 or 0.98 and 6e-7 at s = 0.01 or 0.99.
    Numerically this equals sigma_s; the identity is asserted in the
    test suite rather than assumed here.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    y, w = half_line_rule()
    th = theta_profile(s, y)
    dth = y ** (0.5 - s) * theta_profile_deriv(s, y)  # squared, y^(1-2s) theta'^2 would overflow
    return float(np.sum(w * (dth * dth + y ** (1.0 - 2.0 * s) * th * th)))


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
