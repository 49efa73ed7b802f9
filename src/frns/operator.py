"""Discrete (-Delta + m^2)^s on a uniform periodic grid.

The box [-L, L)^N stands in for R^N: decaying functions are truncated
periodically and the operator acts mode by mode through the symbol
(|k|^2 + m^2)^s.  This is the program's one Fourier layer: fields are
real, so every spectral multiplier (`spectral_multiply`) and quadratic
form (`KernelTable.form`) runs on real FFTs with its weight on the half
spectrum, whose last axis keeps the modes 0..n/2; a spectrum taken once
(`half_spectrum`) serves any number of multipliers.  A field even along
some axes about the grid centre is held and transformed as its even block
alone (`Grid.block`, `even_block_spectrum`, `KernelTable.even_block`), as
the descent's iterates and the bubbles of the trace Sobolev quotient
(`estimate_s_star`) are.  A direct
principal-value quadrature of the singular-integral form is kept (1D
only) as an independent cross-check of the spectral path, and the
resolvent / Bessel-kernel pair gives the Green-function view.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gamma as Gamma, prod

import numpy as np
from numpy.fft import irfft, irfftn, rfft, rfftn

from .params import DomainError, FracParams, check_grid
from .specfun import (bessel_k, half_line_rule, kernel_constants, sigma_s,
                      sobolev_trace_constant)


class GridMismatchError(ValueError):
    """Fields/tables built on different grids were combined."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^N with 2^k points per axis."""

    n_dim: int
    points_per_dim: int
    half_length: float

    def __post_init__(self):
        check_grid(self.n_dim, self.points_per_dim, self.half_length)

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

    def multiplicity(self, axes):
        """The product over `axes` of 1, 2, ..., 2, 1 (n/2 + 1 entries)
        along each, broadcasting to a block even along them (1.0 for no
        axes): the full-grid samples, or modes, each entry stands for."""
        n, N = self.points_per_dim, self.n_dim
        mult = np.full(n // 2 + 1, 2.0)
        mult[[0, -1]] = 1.0
        weight = 1.0
        for j in axes:
            weight = weight * mult.reshape((-1,) + (1,) * (N - 1 - j))
        return weight

    def block(self, values, axes):
        """The block of a field even along `axes` about the grid centre:
        its samples at indices n/2..n (read mod n), x = 0, h, ..., L, along
        each of them, where L stands for index 0 (x = -L).  Its spectrum
        is even too, fixed by the modes 0..n/2 (`even_block_spectrum`)."""
        n = self.points_per_dim
        for ax in axes:
            values = np.take(values, np.arange(n // 2, n + 1) % n, axis=ax)
        return values

    def unfold(self, block, axes):
        """The full-grid field even along `axes` whose `block` is given:
        index i holds block entry |i - n/2| along each of them."""
        n = self.points_per_dim
        for ax in axes:
            block = np.take(block, np.abs(np.arange(n) - n // 2), axis=ax)
        return block


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
    """Precomputed symbol on the half spectrum: (|k|^2 + m^2)^s from
    `build_symbol`, or any even weight such as the m = 0 |k|^(2s).

    `symbol` has the shape of rfftn of a field on `grid`: the full
    lattice on every axis but the last, which holds n/2 + 1 modes.  A
    table from `even_block` holds it on the spectrum of the block of its
    `even_axes` instead.
    """

    grid: Grid
    symbol: np.ndarray = field(repr=False)
    even_axes: tuple = ()

    def form(self, vhat) -> float:
        """<Av, v> = h^N/n^N sum_k symbol |v_hat|^2 over the full spectrum,
        from vhat = `half_spectrum`(v, even_axes) of raw samples on `grid`
        or on their block.  On an axis that keeps the modes 0..n/2, each
        mode but 0 and n/2 stands for itself and its mirror -k, whose
        |v_hat|^2 and symbol are the same (`Grid.multiplicity`)."""
        v = np.ascontiguousarray(vhat)
        if np.iscomplexobj(v):
            v = v.view(np.float64)  # real and imaginary parts side by side
        return float(np.sum(self._form_weight * (v * v)))

    @cached_property
    def _form_weight(self) -> np.ndarray:
        g = self.grid
        halved = (0, 1) if self.even_axes and g.n_dim == 2 else (g.n_dim - 1,)
        w = g.spacing**g.n_dim / g.total_points * self.symbol * g.multiplicity(halved)
        return np.repeat(w, 2, axis=-1) if len(self.even_axes) < g.n_dim else w

    def even_block(self, axes) -> "KernelTable":
        """The table of fields even along `axes`, held as their block
        (`Grid.block`), whose `half_spectrum` keeps the modes 0..n/2 on
        each even axis and on the last of the others: in 2D on both."""
        symbol = self.symbol
        if axes and self.grid.n_dim == 2:
            symbol = symbol[: self.grid.points_per_dim // 2 + 1]
        return replace(self, symbol=symbol, even_axes=tuple(axes))


def build_symbol(grid: Grid, params: FracParams) -> KernelTable:
    """Tabulate (|k|^2 + m^2)^s on the half-spectrum frequency lattice."""
    if params.n_dim != grid.n_dim:
        raise GridMismatchError("params.n_dim does not match grid.n_dim")
    sym = (grid.half_k_squared() + params.m**2) ** params.s
    return KernelTable(grid=grid, symbol=sym)


def apply_operator(u: Field, table: KernelTable) -> Field:
    """Spectral application: irfftn of symbol * rfftn(u).

    Linear and self-adjoint with respect to the discrete inner product;
    the quadratic form <Au, u> is the discrete H^s norm squared.
    """
    u.check_same_grid(table.grid)
    return Field(grid=u.grid, values=spectral_multiply(table.symbol, u.values))


def half_spectrum(values, even_axes=()):
    """rfftn(values): the half spectrum of real samples, to take once
    and weight many times (`from_half_spectrum`, `KernelTable.form`).  On the
    block of a field even along `even_axes` (`Grid.block`), those axes
    take the real DFT of `even_block_spectrum`, and rfftn the others."""
    rest = [ax for ax in range(values.ndim) if ax not in even_axes]
    out = even_block_spectrum(values, even_axes)
    if len(rest) == 1:  # rfft alone skips rfftn's per-call argument handling
        return rfft(out, axis=rest[0])
    return rfftn(out, axes=rest) if rest else out


def from_half_spectrum(weight, vhat, shape, even_axes=()):
    """irfftn(weight * vhat) onto the real grid `shape`, `weight` given on
    the half spectrum; with `even_axes`, onto the block of that shape
    (`half_spectrum`), where the inverse real DFT of an even spectrum is
    its forward one over n (`even_block_spectrum`).

    irfftn reads a Hermitian spectrum, so weight(-k) = conj(weight(k)) must
    hold, where each axis's Nyquist mode is its own mirror: real even
    weights qualify, a derivative i k_j only once zeroed at that mode.
    """
    rest = [ax for ax in range(len(shape)) if ax not in even_axes]
    out = weight * vhat
    if len(rest) == 1:
        out = irfft(out, shape[rest[0]], axis=rest[0])
    elif rest:
        out = irfftn(out, s=[shape[ax] for ax in rest], axes=rest)
    if even_axes:
        out = even_block_spectrum(out, even_axes) / prod(
            2 * (shape[ax] - 1) for ax in even_axes)
    return out


def even_block_spectrum(block, axes):
    """The real DFT, on the even block, of a field even about the grid
    centre along `axes`, from its samples on the block (`Grid.block`).

    Per axis the block is mirrored to the full length n (the cosine, or
    DCT-I, form of the DFT of an even sequence) and one rfft keeps the
    modes 0..n/2, whose imaginary part is round-off.  The DFT is taken
    about index n/2, so it equals the full-grid spectrum up to the phase
    (-1)^(k_1 + ... + k_N): |v_hat|^2 and every even weight agree.
    """
    out = block
    for ax in axes:
        interior = (slice(None),) * ax + (slice(-2, 0, -1),)  # indices n/2-1..1
        out = rfft(np.concatenate((out, out[interior]), axis=ax), axis=ax).real
    return out


def estimate_s_star(frac: FracParams) -> dict:
    """Rayleigh-quotient estimate of the trace Sobolev constant S_*.

    Evaluates, over the bubble family
    u_rho(x) = rho^((N-2s)/2) / (|x|^2 + rho^2)^((N-2s)/2)
    times a radial taper that starts at r = L/2 and is zero from r = 0.9 L
    (so the support stays inside the ball inscribed in the box and the
    periodization is exact), the quotient

        sigma_s * sum_k |k|^(2s) |u_hat|^2 / (sum |u|^(2*_s) h^N)^(2/2*_s),

    whose numerator is the weighted Dirichlet energy of the m = 0
    extension (property (E2) written through the kappa_s = sigma_s
    identity).  The continuum quotient is rho-independent on the bubble
    family, but the discrete one is polluted by grid resolution at small
    rho and by box truncation at large rho (where it degenerates toward
    the constant-function limit 0 on the torus).  The estimate is
    therefore read off where the curve is flattest in log rho, and an
    edge warning is raised if that plateau sits at the end of the range.
    The family is sampled at 16 log-spaced rho in [0.02, 2], on 16384
    points of half-length 800 in 1D and 512^2 of half-length 30 in 2D.

    Each u_rho is radial about x = 0, grid index n/2, so it is even in
    every axis about that index, and both full-grid sums are evaluated
    exactly on its block, as the descent's are (`Grid.block`,
    `Grid.multiplicity`, `KernelTable.even_block`): (n/2+1)^N samples,
    one mirrored rfft per axis.  The numerator is the form of the m = 0
    symbol |k|^(2s).  Since 2*_s (N-2s)/2 = N, |u|^(2*_s) = q^N cut^(2*_s)
    with q = rho/(r^2+rho^2).
    """
    N, s = frac.n_dim, frac.s
    grid = Grid(N, 16384 if N == 1 else 512, 800.0 if N == 1 else 30.0)
    axes = tuple(range(N))
    rho_values = np.geomspace(0.02, 2.0, 16)
    two_star = frac.two_star
    r = grid.block(grid.radii(), axes)
    r2 = r * r
    form = KernelTable(grid, grid.half_k_squared() ** s).even_block(axes).form
    L = grid.half_length
    # smooth radial cutoff supported in r < 0.9 L
    cut = 0.5 * (1.0 + np.cos(np.pi * np.clip((r / L - 0.5) / 0.4, 0.0, 1.0)))
    mult_cut_2star = grid.multiplicity(axes) * cut**two_star

    sig = sigma_s(s)
    quotients = []
    for rho in rho_values:
        q = rho / (r2 + rho**2)
        num = sig * form(half_spectrum(q ** ((N - 2.0 * s) / 2.0) * cut, axes))
        den = (grid.spacing**N * float(np.sum(q**N * mult_cut_2star))) ** (2.0 / two_star)
        quotients.append(num / den)
    quotients = np.asarray(quotients)
    # central slope of log q vs log rho; flattest interior point
    dlogq = np.abs(np.log(quotients[2:]) - np.log(quotients[:-2]))
    i_best = 1 + int(np.argmin(dlogq))
    edge = i_best in (1, len(quotients) - 2)
    if edge:
        import warnings

        warnings.warn(
            "Rayleigh quotient plateau at the edge of the rho range; "
            "estimate may not be resolved"
        )
    return {
        "estimate": float(quotients[i_best]),
        "rho_values": list(map(float, rho_values)),
        "quotients": quotients.tolist(),
        "rho_at_plateau": float(rho_values[i_best]),
        "edge_warning": edge,
        "formula": float(sobolev_trace_constant(N, s)),
    }


def spectral_multiply(weight, values, even_axes=()):
    """irfftn(weight * rfftn(values)), of a field or of its block even
    along `even_axes` (`half_spectrum`, `from_half_spectrum`)."""
    return from_half_spectrum(weight, half_spectrum(values, even_axes), values.shape, even_axes)


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
