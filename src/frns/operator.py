"""Discrete (-Delta + m^2)^s on a uniform periodic grid.

The box [-L, L)^N stands in for R^N: decaying functions are truncated
periodically and the operator acts mode by mode through the symbol
(|k|^2 + m^2)^s.  This is the program's one Fourier layer: fields are
real, so every spectral multiplier (`spectral_multiply`) and quadratic
form (`spectral_sum`) runs on real FFTs with its weight on the half
spectrum, whose last axis keeps the modes 0..n/2; a spectrum taken once
(`half_spectrum`) serves any number of multipliers.  A field even in every
axis about the grid centre is also transformed from its even block alone
(`Grid.even_block`, `even_block_spectrum`).  A direct principal-value
quadrature of the singular-integral form is kept (1D only) as an
independent cross-check of the spectral path, and the resolvent /
Bessel-kernel pair gives the Green-function view.
"""

from dataclasses import dataclass, field
from math import gamma as Gamma

import numpy as np
from numpy.fft import irfftn, rfft, rfftn

from .specfun import DomainError, FracParams, bessel_k, half_line_rule, kernel_constants

MAX_TOTAL_POINTS = 2**22  # desk-scale cap


class GridMismatchError(ValueError):
    """Fields/tables built on different grids were combined."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^N with 2^k points per axis."""

    n_dim: int
    points_per_dim: int
    half_length: float

    def __post_init__(self):
        if self.n_dim not in (1, 2):
            raise DomainError(f"n_dim must be 1 or 2, got {self.n_dim}")
        n = self.points_per_dim
        if n < 32 or (n & (n - 1)) != 0:
            raise DomainError(f"points_per_dim must be a power of two >= 32, got {n}")
        h = np.float64(self.spacing)  # h^N weights every sum; (pi/h)^2 is the top |k|^2
        with np.errstate(all="ignore"):
            if not (h > 0.0 and 0.0 < h**self.n_dim < np.inf and 0.0 < (np.pi / h) ** 2 < np.inf):
                raise DomainError(f"half_length {self.half_length}: h^N or (pi/h)^2 is not "
                                  "a positive finite number")
        if n**self.n_dim > MAX_TOTAL_POINTS:
            raise DomainError(
                f"total points {n**self.n_dim} exceed desk-scale cap {MAX_TOTAL_POINTS}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points_per_dim

    @property
    def total_points(self) -> int:
        return self.points_per_dim**self.n_dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_dim,) * self.n_dim

    def axis(self) -> np.ndarray:
        """1D coordinate axis, shared by every dimension."""
        n = self.points_per_dim
        return -self.half_length + self.spacing * np.arange(n)

    def coords(self) -> list:
        """Meshgrid coordinate arrays (ij indexing), one per dimension."""
        return list(np.meshgrid(*(self.axis(),) * self.n_dim, indexing="ij"))

    def radii(self, center=None) -> np.ndarray:
        """Distance from each grid point to `center` (default: origin)."""
        if center is None:
            center = (0.0,) * self.n_dim
        acc = np.zeros(self.shape)
        for c, x in zip(center, self.coords()):
            acc += (x - c) ** 2
        return np.sqrt(acc)

    def half_wavenumbers(self) -> list:
        """k_j = pi * integer / L per axis, broadcasting to the shape of rfftn
        of a field: fftfreq order on every axis but the last, which holds
        the modes 0..n/2 (rfftfreq).  Index n/2 is each axis's Nyquist mode."""
        n, d = self.points_per_dim, self.spacing
        ks = [np.fft.fftfreq(n, d=d)] * (self.n_dim - 1) + [np.fft.rfftfreq(n, d=d)]
        return [(2.0 * np.pi * k).reshape((-1,) + (1,) * (self.n_dim - 1 - j))
                for j, k in enumerate(ks)]

    def half_k_squared(self) -> np.ndarray:
        """|k|^2 on the half spectrum, the shape of rfftn of a field."""
        return sum(k * k for k in self.half_wavenumbers())

    def even_block(self) -> tuple:
        """(|x|^2, |k|^2, multiplicity) on the even block, shape (n/2+1,)*N.

        A field even in every axis about x = 0 (grid index n/2) is fixed by
        its samples at indices n/2..n, read mod n: x_j = 0, h, ..., L, where
        L stands for index 0 (x = -L).  Its spectrum is even too, fixed by
        the modes 0..n/2 (`even_block_spectrum`).  Per axis both carry the
        multiplicity 1, 2, ..., 2, 1, the number of full-grid samples or
        modes an entry stands for, so a full-grid sum is the block sum
        weighted by the product of the axes' multiplicities.
        """
        n, N = self.points_per_dim, self.n_dim
        x = self.spacing * np.arange(n // 2 + 1)
        k = self.half_wavenumbers()[-1]
        mult = np.full(n // 2 + 1, 2.0)
        mult[[0, -1]] = 1.0
        r2, k2, weight = 0.0, 0.0, 1.0
        for j in range(N):
            shape = (-1,) + (1,) * (N - 1 - j)
            r2 = r2 + (x * x).reshape(shape)
            k2 = k2 + (k * k).reshape(shape)
            weight = weight * mult.reshape(shape)
        return r2, k2, weight


@dataclass(frozen=True)
class Field:
    """Real samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def check_same_grid(self, other_grid: Grid):
        if self.grid != other_grid:
            raise GridMismatchError("operands live on different grids")


def inner(u: Field, v: Field) -> float:
    """Discrete L^2 inner product h^N sum(u v)."""
    u.check_same_grid(v.grid)
    return float(u.grid.spacing**u.grid.n_dim * np.sum(u.values * v.values))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


@dataclass(frozen=True)
class KernelTable:
    """Precomputed symbol (|k|^2 + m^2)^s on the half spectrum.

    `symbol` has the shape of rfftn of a field on `grid`: the full
    lattice on every axis but the last, which holds n/2 + 1 modes.
    """

    grid: Grid
    params: FracParams
    symbol: np.ndarray = field(repr=False)

    def form(self, vhat) -> float:
        """<Av, v> = h^N/n^N sum_k symbol |v_hat|^2 from the half spectrum
        vhat = `half_spectrum`(v) of raw samples on `grid` (`spectral_sum`)."""
        g = self.grid
        return float(g.spacing**g.n_dim / g.total_points * spectral_sum(self.symbol, vhat))


def build_symbol(grid: Grid, params: FracParams) -> KernelTable:
    """Tabulate (|k|^2 + m^2)^s on the half-spectrum frequency lattice."""
    if params.n_dim != grid.n_dim:
        raise GridMismatchError("params.n_dim does not match grid.n_dim")
    sym = (grid.half_k_squared() + params.m**2) ** params.s
    return KernelTable(grid=grid, params=params, symbol=sym)


def apply_operator(u: Field, table: KernelTable) -> Field:
    """Spectral application: irfftn of symbol * rfftn(u).

    Linear and self-adjoint with respect to the discrete inner product;
    the quadratic form <Au, u> is the discrete H^s norm squared.
    """
    u.check_same_grid(table.grid)
    return Field(grid=u.grid, values=spectral_multiply(table.symbol, u.values))


def half_spectrum(values):
    """rfftn(values): the half spectrum of real samples, to take once
    and weight many times (`from_half_spectrum`, `spectral_sum`)."""
    return rfftn(values)


def from_half_spectrum(weight, vhat, shape):
    """irfftn(weight * vhat) onto the real grid `shape`, `weight` given on
    the half spectrum.

    irfftn reads a Hermitian spectrum, so weight(-k) = conj(weight(k)) must
    hold, where each axis's Nyquist mode is its own mirror: real even
    weights qualify, a derivative i k_j only once zeroed at that mode.
    """
    return irfftn(weight * vhat, s=shape, axes=range(len(shape)))


def even_block_spectrum(block):
    """The real DFT, on the even block, of a field even in every axis about
    the grid centre, from its samples on the block (`Grid.even_block`).

    Per axis the block is mirrored to the full length n (the cosine, or
    DCT-I, form of the DFT of an even sequence) and one rfft keeps the
    modes 0..n/2, whose imaginary part is round-off.  The DFT is taken
    about index n/2, so it equals the full-grid spectrum up to the phase
    (-1)^(k_1 + ... + k_N): |v_hat|^2 and every even weight agree.
    """
    out = block
    for ax in range(block.ndim):
        interior = (slice(None),) * ax + (slice(-2, 0, -1),)  # indices n/2-1..1
        out = rfft(np.concatenate((out, out[interior]), axis=ax), axis=ax).real
    return out


def spectral_multiply(weight, values):
    """irfftn(weight * rfftn(values)) (`from_half_spectrum`)."""
    return from_half_spectrum(weight, rfftn(values), values.shape)


def spectral_sum(weight, vhat):
    """sum_k weight(k) |v_hat(k)|^2 over the full spectrum, from the half
    spectrum vhat = `half_spectrum`(v).

    `weight` is even in k and given on the half spectrum; the sum runs
    over it with the modes 1..n/2 - 1 of the last axis standing for
    themselves and their conjugates (weight 2), the modes 0 and n/2
    only for themselves (weight 1).
    """
    spec = weight * (vhat.real**2 + vhat.imag**2)
    return 2.0 * np.sum(spec) - np.sum(spec[..., 0]) - np.sum(spec[..., -1])


def operator_quadratic_form(u: Field, table: KernelTable) -> float:
    """<Au, u>, the discrete H^s norm squared (`KernelTable.form`)."""
    u.check_same_grid(table.grid)
    return table.form(rfftn(u.values))


def solve_resolvent(mu: Field, table: KernelTable) -> Field:
    """Solve (-Delta + m^2)^s z = mu by symbol division.

    The symbol is bounded below by m^(2s) > 0, so the solve is always
    well posed and apply_operator(z) recovers mu to round-off.
    """
    mu.check_same_grid(table.grid)
    return Field(grid=mu.grid, values=spectral_multiply(1.0 / table.symbol, mu.values))


def bessel_kernel(params: FracParams, r):
    """Green function G_{2s,m}(r) of (-Delta + m^2)^s at radius r > 0,

        G_{2s,m}(r) = m^((N-2s)/2) K_((N-2s)/2)(m r) r^((2s-N)/2)
                      / (2^((N+2s-2)/2) pi^(N/2) Gamma(s)).

    Positive, radially symmetric, ~ r^(2s-N) at the origin and
    exponentially decaying at infinity.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("bessel_kernel is singular at r = 0; need r > 0")
    N, s, m = float(params.n_dim), params.s, params.m
    nu = (N - 2.0 * s) / 2.0
    with np.errstate(over="ignore"):
        val = (
            m**nu
            * bessel_k(nu, m * r)
            * r ** (-nu)
            / (2.0 ** ((N + 2.0 * s - 2.0) / 2.0) * np.pi ** (N / 2.0) * Gamma(s))
        )
    if np.ndim(val) == 0:
        return float(val)
    return val


def apply_operator_singular(
    u: Field, params: FracParams, truncation_radius: float
) -> Field:
    """Principal-value quadrature of the singular-integral form (1D only),

        m^(2s) u(x) + C(N,s) m^((N+2s)/2)
            P.V. int (u(x)-u(y)) K_nu(m|x-y|) / |x-y|^nu dy,

    with nu = (N+2s)/2.  The singularity is handled by a symmetric
    exclusion window of one grid cell (the odd part of the integrand
    cancels) plus an analytic second-order correction for the even
    part, and the integral is truncated at `truncation_radius`.

    Cross-check path only: the spectral application is the production
    route and the agreement contract is ~1e-2 in relative L^2.
    """
    g = u.grid
    if g.n_dim != 1:
        raise DomainError("singular-integral cross-check supports n_dim = 1 only")
    if params.n_dim != 1:
        raise GridMismatchError("params.n_dim must be 1")
    s, m = params.s, params.m
    h = g.spacing
    nu = (1.0 + 2.0 * s) / 2.0
    pref = kernel_constants(params) * m**nu

    n = g.points_per_dim
    n_off = min(int(truncation_radius / h), n // 2 - 1)
    vals = u.values
    out = m ** (2.0 * s) * vals.copy()

    # P.V. sum over symmetric offsets, one-cell exclusion around r = 0.
    offsets = np.arange(1, n_off + 1)
    r = offsets * h
    w = bessel_k(nu, m * r) / r**nu
    acc = np.zeros_like(vals)
    for j, wj in zip(offsets, w):
        acc += (2.0 * vals - np.roll(vals, j) - np.roll(vals, -j)) * wj
    out += pref * acc * h

    # Even-part correction for the excluded cell:
    # u(x)-u(x+r)+u(x)-u(x-r) ~ -u''(x) r^2, integrated against the kernel
    # over (0, h] with r = h e^(-y) on the half-line rule.
    y, wy = half_line_rule()
    rr = h * np.exp(-y)
    cell = float(np.sum(wy * rr ** (3.0 - nu) * bessel_k(nu, m * rr)))
    d2u = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h**2
    out += pref * (-d2u) * cell

    return Field(grid=g, values=out)
