"""Weighted half-space extension of a trace field.

The degenerate problem -div(y^(1-2s) grad U) + m^2 y^(1-2s) U = 0 with
U(., 0) = u diagonalizes per Fourier mode: the mode at frequency k is
damped by theta(y sqrt(|k|^2 + m^2)), where theta is the Bessel profile
from specfun.  We therefore never mesh the (N+1)-dimensional problem;
a stack of horizontal slabs at chosen heights carries everything needed
for the Dirichlet-to-Neumann limit and the weighted energy.  Slabs and
x-derivatives are half-spectrum multipliers (`operator.spectral_multiply`).
"""

from dataclasses import dataclass, field

import numpy as np

from .operator import Field, Grid, GridMismatchError, spectral_multiply
from .specfun import DomainError, FracParams, richardson, theta_profile


class ExtrapolationError(RuntimeError):
    """Conormal-limit extrapolation did not behave as expected."""


@dataclass(frozen=True)
class ExtensionStack:
    """Horizontal slabs U(., y_j) of the extension, y_0 = 0."""

    grid: Grid
    params: FracParams
    y_levels: np.ndarray = field(repr=False)
    slabs: np.ndarray = field(repr=False)  # shape (len(y_levels),) + grid.shape

    def __post_init__(self):
        y = np.asarray(self.y_levels, dtype=float)
        if y[0] != 0.0 or np.any(np.diff(y) <= 0.0):
            raise DomainError("y_levels must start at 0 and increase strictly")
        object.__setattr__(self, "y_levels", y)


def default_y_levels(m: float, n_levels: int = 48) -> np.ndarray:
    """0 plus n_levels log-spaced heights in [1e-4/m, 20/m]."""
    ys = np.geomspace(1e-4 / m, 20.0 / m, n_levels)
    return np.concatenate(([0.0], ys))


def extend(u: Field, params: FracParams, y_levels=None) -> ExtensionStack:
    """Extend a trace field into the half-space, slab by slab.

    Each slab is the inverse transform of u_hat(k) * theta(y w(k)),
    w(k) = sqrt(|k|^2 + m^2); the y = 0 slab is the input bit-exactly.
    """
    g = u.grid
    if params.n_dim != g.n_dim:
        raise GridMismatchError("params.n_dim does not match grid")
    if y_levels is None:
        y_levels = default_y_levels(params.m)
    y_levels = np.asarray(y_levels, dtype=float)

    w = np.sqrt(g.half_k_squared() + params.m**2)
    slabs = np.empty((len(y_levels),) + g.shape)
    slabs[0] = u.values
    for j, y in enumerate(y_levels[1:], start=1):
        slabs[j] = spectral_multiply(theta_profile(params.s, y * w), u.values)
    return ExtensionStack(grid=g, params=params, y_levels=y_levels, slabs=slabs)


def conormal_derivative(stack: ExtensionStack, params: FracParams):
    """Dirichlet-to-Neumann map -lim_{y->0} y^(1-2s) dU/dy.

    Near y = 0 the extension behaves like
    U(y) = U(0) - q0 y^(2s) / (2s) + O(y^2), where q0 is the conormal
    derivative, so the plain difference quotient has no limit (s < 1/2)
    or the wrong one; the y^(2s)-weighted quotient

        Q(y) = -2s (U(y) - U(0)) / y^(2s) = q0 + O(y^(2-2s)) + O(y^2)

    does converge, and we Richardson-extrapolate it on the four smallest
    positive levels (`specfun.richardson`), eliminating the y^(2-2s)
    error (the assumed leading order from the theta expansion) and then
    y^2.  A third pass, on y^(4-2s), leaves a larger error on the bump
    of `frns kernels` and is not taken.

    Returns (field, diagnostics) where diagnostics carries the
    estimated convergence order of the ladder.
    """
    y = stack.y_levels
    if len(y) < 5:
        raise ExtrapolationError("need at least 4 positive levels clustered near y = 0")
    s = params.s

    ys = y[1:5]
    qs = [-2.0 * s * (stack.slabs[j] - stack.slabs[0]) / y[j] ** (2.0 * s) for j in range(1, 5)]
    p = 2.0 - 2.0 * s
    limit = richardson(qs, ys, (p, 2.0))

    # empirical order from the raw ladder, as a diagnostic
    d1 = np.max(np.abs(qs[1] - qs[0]))
    d2 = np.max(np.abs(qs[2] - qs[1]))
    if d2 > 0.0 and d1 > 0.0 and ys[2] != ys[1]:
        order = float(np.log(d2 / d1) / np.log(ys[2] / ys[1]))
    else:
        order = np.nan
    diagnostics = {"assumed_order": p, "estimated_order": order}
    return Field(grid=stack.grid, values=limit), diagnostics


def _spectral_gradient_sq(u_vals: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad_x u|^2 by spectral differentiation; i k_j is zeroed at the
    Nyquist mode of axis j, its own mirror, where it has no real part."""
    acc = np.zeros(grid.shape)
    for k in grid.half_wavenumbers():
        k = k.copy()
        k.flat[grid.points_per_dim // 2] = 0.0
        acc += spectral_multiply(1j * k, u_vals) ** 2
    return acc


def extension_energy(stack: ExtensionStack, params: FracParams) -> float:
    """Weighted energy iint y^(1-2s) (|grad U|^2 + m^2 U^2) dx dy.

    Spectral differentiation in x, central differences in y, trapezoid
    quadrature in y with the y^(1-2s) weight handled analytically on
    the first interval (where the power singularity lives).  For
    band-limited traces this matches sigma_s * sum_k (|k|^2+m^2)^s
    |u_hat(k)|^2 within the 2% contract.
    """
    g = stack.grid
    y = stack.y_levels
    if len(y) < 32:
        import warnings

        warnings.warn("y-grid too coarse for the energy quadrature (< 32 levels)")
    s, m = params.s, params.m
    hN = g.spacing**g.n_dim

    # integrand per level: I(y) = int_x (|grad U|^2 + m^2 U^2) dx, split so
    # the y-weight can be integrated exactly near 0.
    n_lev = len(y)
    horiz = np.empty(n_lev)   # |grad_x U|^2 + m^2 U^2, x-integrated
    for j in range(n_lev):
        gsq = _spectral_gradient_sq(stack.slabs[j], g)
        horiz[j] = hN * np.sum(gsq + m**2 * stack.slabs[j] ** 2)

    # dU/dy at interior levels by central differences, endpoints one-sided
    dy_sq = np.empty(n_lev)
    for j in range(n_lev):
        if j == 0:
            d = (stack.slabs[1] - stack.slabs[0]) / (y[1] - y[0])
        elif j == n_lev - 1:
            d = (stack.slabs[-1] - stack.slabs[-2]) / (y[-1] - y[-2])
        else:
            d = (stack.slabs[j + 1] - stack.slabs[j - 1]) / (y[j + 1] - y[j - 1])
        dy_sq[j] = hN * np.sum(d * d)

    integrand = horiz + dy_sq

    # first interval: integrand ~ const, weight integrated exactly:
    # int_0^y1 y^(1-2s) dy = y1^(2-2s)/(2-2s); the vertical-derivative
    # part scales like y^(1-2s) * y^(2-4s)... dominated by the same
    # power, so we use the y1-values as the constant.
    p = 2.0 - 2.0 * s
    total = integrand[1] * y[1] ** p / p
    w_tail = y[1:] ** (1.0 - 2.0 * s) * integrand[1:]
    total += float(np.trapezoid(w_tail, y[1:]))
    return total
