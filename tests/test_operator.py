"""Spectral operator on the periodic grid: algebraic identities and the
independent singular-integral / Green-function cross-checks."""

import ast
import os

import numpy as np
import pytest

from frns.specfun import DomainError, FracParams
from frns.operator import (
    Field,
    Grid,
    GridMismatchError,
    apply_operator,
    apply_operator_singular,
    bessel_kernel,
    build_symbol,
    even_block_spectrum,
    from_half_spectrum,
    half_spectrum,
    inner,
    norm_l2,
    operator_quadratic_form,
    solve_resolvent,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "frns")


def numpy_fft_lines(path) -> list:
    """Lines where a module imports numpy.fft or reads np.fft / numpy.fft."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            hit = mod.startswith("numpy.fft") or (
                mod == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "fft"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            lines.append(node.lineno)
    return lines


def scipy_import_lines(path) -> list:
    """Lines where a module imports scipy or one of its submodules."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "scipy" for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "scipy")]


class TestOneFourierLayer:
    # how a real field is stored in Fourier space (the half spectrum of
    # rfftn) is decided in operator.py alone: every spectral multiplier
    # and quadratic form of the program goes through it

    def test_only_operator_touches_numpy_fft(self):
        users = {name: numpy_fft_lines(os.path.join(SRC, name))
                 for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
        assert {name for name, lines in users.items() if lines} == {"operator.py"}, users

    def test_no_module_imports_scipy(self):
        # the program runs on numpy alone; scipy is only the tests' oracle
        users = {name: scipy_import_lines(os.path.join(SRC, name))
                 for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
        assert not any(users.values()), users


def make(n_dim=2, n=64, L=10.0, s=0.5, m=1.0):
    grid = Grid(n_dim, n, L)
    params = FracParams(s=s, m=m, n_dim=n_dim)
    return grid, params, build_symbol(grid, params)


class TestGridInvariants:
    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            Grid(2, 100, 10.0)     # not a power of two
        with pytest.raises(DomainError):
            Grid(2, 16, 10.0)      # too small
        with pytest.raises(DomainError):
            Grid(2, 4096, 10.0)    # exceeds the desk-scale cap
        with pytest.raises(DomainError):
            Grid(1, 64, -1.0)

    def test_field_shape_and_finiteness(self):
        g = Grid(1, 64, 5.0)
        with pytest.raises(GridMismatchError):
            Field(grid=g, values=np.zeros(65))
        bad = np.zeros(64)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid=g, values=bad)

    def test_inner_product_weight(self):
        # h^N sum over a constant equals the box volume
        g = Grid(2, 64, 3.0)
        one = Field(grid=g, values=np.ones(g.shape))
        assert inner(one, one) == pytest.approx(6.0**2, rel=1e-14)
        assert norm_l2(one) == pytest.approx(6.0, rel=1e-14)


class TestSpectralIdentities:
    def test_fourier_mode_is_eigenfunction(self):
        grid, params, table = make()
        x, y = grid.coords()
        k = np.pi / grid.half_length * np.array([3.0, 5.0])
        u = Field(grid=grid, values=np.cos(k[0] * x + k[1] * y))
        Au = apply_operator(u, table)
        lam = (k @ k + params.m**2) ** params.s
        assert np.allclose(Au.values, lam * u.values, rtol=1e-12, atol=1e-12)

    def test_constant_eigenvalue_m2s(self):
        grid, params, table = make(s=0.4, m=2.0)
        u = Field(grid=grid, values=np.ones(grid.shape))
        Au = apply_operator(u, table)
        assert np.allclose(Au.values, 2.0 ** (2 * 0.4), rtol=1e-13)

    def test_linearity_and_self_adjointness(self):
        grid, params, table = make()
        rng = np.random.default_rng(7)
        u = Field(grid=grid, values=rng.standard_normal(grid.shape))
        v = Field(grid=grid, values=rng.standard_normal(grid.shape))
        a, b = 1.7, -0.3
        lin = apply_operator(
            Field(grid=grid, values=a * u.values + b * v.values), table
        )
        ref = a * apply_operator(u, table).values + b * apply_operator(v, table).values
        assert np.allclose(lin.values, ref, rtol=1e-12, atol=1e-12)
        lhs = inner(apply_operator(u, table), v)
        rhs = inner(u, apply_operator(v, table))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_quadratic_form_positivity(self):
        # <Au, u> >= m^{2s} ||u||^2 since the symbol is bounded below
        grid, params, table = make(s=0.6, m=1.5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = Field(grid=grid, values=rng.standard_normal(grid.shape))
            q = operator_quadratic_form(u, table)
            assert q >= 1.5 ** (2 * 0.6) * inner(u, u) * (1 - 1e-12)

    def test_quadratic_form_matches_inner(self):
        # also against h^N/n^N sum symbol |u_hat|^2 over the full spectrum,
        # which checks the half-spectrum multiplicities (Nyquist included)
        rng = np.random.default_rng(3)
        for n_dim, s in ((2, 0.5), (1, 0.25)):
            grid, params, table = make(n_dim=n_dim, s=s)
            u = Field(grid=grid, values=rng.standard_normal(grid.shape))
            q = operator_quadratic_form(u, table)
            assert q == pytest.approx(inner(apply_operator(u, table), u), rel=1e-12)
            k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.spacing)
            k_sq = sum(k * k for k in np.meshgrid(*(k1,) * n_dim, indexing="ij"))
            full_symbol = (k_sq + params.m**2) ** params.s
            w = grid.spacing**n_dim / grid.total_points
            full = w * np.sum(full_symbol * np.abs(np.fft.fftn(u.values)) ** 2)
            assert q == pytest.approx(full, rel=1e-12)

    def test_mode_quadratic_form_value(self):
        # Q(cos kx) = (|k|^2 + m^2)^s Vol/2 for a resolved mode
        grid, params, table = make(n_dim=1, n=128, L=5.0, s=0.25)
        x = grid.coords()[0]
        k = 2.0 * np.pi / 10.0 * 4
        u = Field(grid=grid, values=np.cos(k * x))
        expected = (k**2 + 1.0) ** 0.25 * 10.0 / 2.0
        assert operator_quadratic_form(u, table) == pytest.approx(expected, rel=1e-12)

    def test_symbol_continuous_in_m(self):
        grid, p1, t1 = make(m=1.0)
        _, p2, t2 = make(m=1.0 + 1e-7)
        assert np.max(np.abs(t1.symbol - t2.symbol) / t1.symbol) < 1e-6


class TestEvenBlock:
    """A field even in every axis about grid index n/2, given on its block
    of indices n/2..n, against the same field on the full grid."""

    @staticmethod
    def even_field(n_dim, n, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((n // 2 + 1,) * n_dim)
        idx = np.abs(np.arange(n) - n // 2)  # full index j holds block entry |j - n/2|
        return block, block[np.ix_(*(idx,) * n_dim)]

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_block_sums_match_full_grid(self, n_dim):
        grid = Grid(n_dim, 64, 7.0)
        s = 0.3
        _, k2, mult = grid.even_block()
        for seed in range(3):
            block, u = self.even_field(n_dim, 64, seed)
            G = even_block_spectrum(block)
            power = np.abs(np.fft.fftn(u)) ** 2
            k2_full = sum(k * k for k in np.meshgrid(
                *(2.0 * np.pi * np.fft.fftfreq(64, d=grid.spacing),) * n_dim, indexing="ij"))
            for block_w, full_w in ((1.0, 1.0), (k2**s, k2_full**s)):
                full = float(np.sum(full_w * power))
                assert float(np.sum(mult * block_w * G * G)) == pytest.approx(full, rel=1e-12)
            assert float(np.sum(mult * block)) == pytest.approx(float(np.sum(u)), rel=1e-12)

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_block_coordinates_are_the_grid_radii(self, n_dim):
        grid = Grid(n_dim, 64, 7.0)
        r2, _, mult = grid.even_block()
        idx = np.abs(np.arange(64) - 32)  # block index 32 (x = L) stands for x = -L
        assert np.allclose(r2[np.ix_(*(idx,) * n_dim)], grid.radii() ** 2, rtol=1e-14, atol=0.0)
        assert float(np.sum(mult)) == grid.total_points


class TestEvenAxes:
    """A 2D field even along some axes about grid index n/2, held as its
    block along those axes (`Grid.block`), against the field itself."""

    GRID = Grid(2, 64, 7.0)

    def even_field(self, axes, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(33 if ax in axes else 64 for ax in range(2))
        block = rng.standard_normal(shape)
        u = self.GRID.unfold(block, axes)
        assert np.array_equal(self.GRID.block(u, axes), block)
        return block, u

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
    def test_spectrum_matches_rfftn_up_to_the_phase(self, axes):
        block, u = self.even_field(axes, sum(axes) + len(axes))
        full = np.fft.rfftn(u)[:33]  # modes 0..n/2 on the first axis too
        # the DFT about index n/2: (-1)^k on each even axis
        phase = np.ones((33, 33))
        for ax in axes:
            phase = phase * (-1.0) ** np.arange(33).reshape((-1,) + (1,) * (1 - ax))
        vhat = half_spectrum(block, axes)
        assert np.allclose(vhat, phase * full, rtol=0.0, atol=1e-12 * np.max(np.abs(full)))
        if axes == (0, 1):
            assert np.array_equal(vhat, even_block_spectrum(block))
        # the inverse returns the block, and a multiplier acts as on u
        assert np.allclose(from_half_spectrum(1.0, vhat, block.shape, axes), block,
                           rtol=0.0, atol=1e-13)
        weight = self.GRID.half_k_squared() ** 0.3
        Au = from_half_spectrum(weight, half_spectrum(u), u.shape)
        Ab = from_half_spectrum(weight[:33], vhat, block.shape, axes)
        assert np.allclose(Ab, self.GRID.block(Au, axes), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
    def test_block_table_form_matches_full_grid(self, axes):
        table = build_symbol(self.GRID, FracParams(s=0.3, m=1.0, n_dim=2))
        block, u = self.even_field(axes, 7)
        vhat = half_spectrum(block, axes)
        assert table.even_block(axes).form(vhat) == pytest.approx(
            table.form(half_spectrum(u)), rel=1e-12)
        mult = self.GRID.multiplicity(axes)
        assert float(np.sum(mult * block)) == pytest.approx(float(np.sum(u)), rel=1e-12)
        assert float(np.sum(mult * np.ones_like(block))) == self.GRID.total_points


class TestResolvent:
    def test_round_trip(self):
        grid, params, table = make()
        rng = np.random.default_rng(5)
        mu = Field(grid=grid, values=rng.standard_normal(grid.shape))
        z = solve_resolvent(mu, table)
        back = apply_operator(z, table)
        err = norm_l2(Field(grid=grid, values=back.values - mu.values)) / norm_l2(mu)
        assert err < 1e-10

    def test_spike_approximates_green_function(self):
        # resolvent of a delta-like spike tracks G_{2s,m} away from the
        # origin (grid regularizes the singularity at r ~ h)
        grid = Grid(2, 256, 12.0)
        params = FracParams(s=0.5, m=1.0, n_dim=2)
        table = build_symbol(grid, params)
        spike = np.zeros(grid.shape)
        spike[0, 0] = 1.0 / grid.spacing**2  # unit mass at the origin index
        z = solve_resolvent(Field(grid=grid, values=np.fft.fftshift(spike)), table)
        r = grid.radii()
        sel = (r > 1.0) & (r < 5.0)
        ref = bessel_kernel(params, r[sel])
        rel = np.abs(z.values[sel] - ref) / ref
        assert np.median(rel) < 1e-2

    def test_green_function_positive_and_decaying(self):
        params = FracParams(s=0.4, m=1.0, n_dim=2)
        r = np.linspace(0.05, 12.0, 300)
        G = bessel_kernel(params, r)
        assert np.all(G > 0)
        # exponential decay rate for r >= 2: fit log G, slope < 0
        sel = r >= 2.0
        slope = np.polyfit(r[sel], np.log(G[sel]), 1)[0]
        assert slope < -0.9  # ~ -m with algebraic correction

    def test_green_function_singularity_exponent(self):
        # G ~ c r^{2s-N} as r -> 0
        params = FracParams(s=0.25, m=1.0, n_dim=1)
        r1, r2 = 1e-4, 2e-4
        ratio = bessel_kernel(params, r2) / bessel_kernel(params, r1)
        assert ratio == pytest.approx(2.0 ** (2 * 0.25 - 1), rel=1e-2)


class TestSingularIntegral:
    @pytest.mark.parametrize("s,tol", [(0.25, 5e-3), (0.4, 1e-2)])
    def test_matches_spectral_on_gaussian(self, s, tol):
        grid = Grid(1, 512, 20.0)
        params = FracParams(s=s, m=1.0, n_dim=1)
        table = build_symbol(grid, params)
        x = grid.coords()[0]
        u = Field(grid=grid, values=np.exp(-(x**2)))
        spec = apply_operator(u, table)
        sing = apply_operator_singular(u, params, truncation_radius=18.0)
        err = norm_l2(Field(grid=grid, values=spec.values - sing.values))
        assert err / norm_l2(spec) < tol

    def test_rejects_2d(self):
        grid = Grid(2, 32, 5.0)
        params = FracParams(s=0.25, m=1.0, n_dim=2)
        u = Field(grid=grid, values=np.zeros(grid.shape))
        with pytest.raises(DomainError):
            apply_operator_singular(u, params, truncation_radius=4.0)
