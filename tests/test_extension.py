"""Half-space extension: trace identity, Poisson-kernel mass, the
Dirichlet-to-Neumann map and the weighted-energy identity."""

import numpy as np
import pytest

from frns.specfun import DomainError, FracParams, sigma_s, theta_profile
from frns.operator import Field, Grid, apply_operator, build_symbol, norm_l2
from frns.extension import (
    ExtensionStack,
    ExtrapolationError,
    _spectral_gradient_sq,
    conormal_derivative,
    default_y_levels,
    extend,
    extension_energy,
)


def gaussian_field(grid, width=1.5):
    r2 = grid.radii() ** 2
    return Field(grid=grid, values=np.exp(-r2 / (2.0 * width**2)))


class TestExtend:
    def test_trace_is_bit_exact(self):
        grid = Grid(2, 64, 10.0)
        params = FracParams(s=0.4, m=1.0, n_dim=2)
        u = gaussian_field(grid)
        stack = extend(u, params)
        assert np.array_equal(stack.slabs[0], u.values)

    def test_per_mode_damping(self):
        # a single Fourier mode extends to cos(kx) theta(y sqrt(k^2+m^2))
        grid = Grid(1, 64, 5.0)
        params = FracParams(s=0.25, m=2.0, n_dim=1)
        x = grid.coords()[0]
        k = 2.0 * np.pi / 10.0 * 3
        u = Field(grid=grid, values=np.cos(k * x))
        ys = np.array([0.0, 0.1, 0.5, 2.0])
        stack = extend(u, params, y_levels=ys)
        w = np.sqrt(k**2 + 4.0)
        for j, y in enumerate(ys[1:], start=1):
            ref = np.cos(k * x) * theta_profile(0.25, y * w)
            assert np.allclose(stack.slabs[j], ref, rtol=1e-12, atol=1e-12)

    def test_poisson_kernel_mass(self):
        # constant trace: U(x, y) = theta(m y) exactly, i.e. the massive
        # Poisson kernel integrates to theta(m y)
        for s, m, n_dim in [(0.25, 1.0, 1), (0.5, 2.0, 2), (0.75, 0.5, 2)]:
            grid = Grid(n_dim, 64, 5.0)
            params = FracParams(s=s, m=m, n_dim=n_dim)
            u = Field(grid=grid, values=np.ones(grid.shape))
            ys = np.array([0.0, 0.05, 0.3, 1.0, 4.0])
            stack = extend(u, params, y_levels=ys)
            for j, y in enumerate(ys[1:], start=1):
                ref = theta_profile(s, m * y)
                assert np.max(np.abs(stack.slabs[j] - ref)) < 1e-6 * abs(ref)

    def test_level_validation(self):
        grid = Grid(1, 64, 5.0)
        params = FracParams(s=0.4, m=1.0, n_dim=1)
        u = gaussian_field(grid)
        with pytest.raises(DomainError):
            extend(u, params, y_levels=np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            extend(u, params, y_levels=np.array([0.0, 0.2, 0.2]))


class TestHalfSpectrumMatchesFullSpectrum:
    # the complex full-spectrum formulas, on a rough random field whose
    # Nyquist modes carry as much as any other

    @staticmethod
    def full_lattice(n_dim, n):
        grid = Grid(n_dim, n, 5.0)
        u = np.random.default_rng(7).standard_normal(grid.shape)
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        return grid, u, np.meshgrid(*(k1,) * n_dim, indexing="ij"), np.fft.fftn(u)

    @pytest.mark.parametrize("n_dim, n", [(1, 64), (2, 32)])
    def test_extend_slabs(self, n_dim, n):
        grid, u, ks, uhat = self.full_lattice(n_dim, n)
        params = FracParams(s=0.3, m=1.5, n_dim=n_dim)
        stack = extend(Field(grid=grid, values=u), params)
        w = np.sqrt(sum(k * k for k in ks) + params.m**2)
        for y, slab in zip(stack.y_levels[1:], stack.slabs[1:]):
            ref = np.fft.ifftn(uhat * theta_profile(params.s, y * w)).real
            assert np.max(np.abs(slab - ref)) <= 1e-13

    @pytest.mark.parametrize("n_dim, n", [(1, 64), (2, 32)])
    def test_spectral_gradient_sq(self, n_dim, n):
        # .real of the complex odd derivative drops each differentiated
        # axis's Nyquist mode; the half-spectrum path must zero it too
        grid, u, ks, uhat = self.full_lattice(n_dim, n)
        ref = sum(np.fft.ifftn(1j * k * uhat).real ** 2 for k in ks)
        got = _spectral_gradient_sq(u, grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


class TestConormalDerivative:
    @pytest.mark.parametrize("s,n_dim", [(0.25, 1), (0.4, 1), (0.5, 2), (0.75, 2)])
    def test_recovers_operator(self, s, n_dim):
        # -lim y^{1-2s} dU/dy = sigma_s (-Delta + m^2)^s u
        grid = Grid(n_dim, 256 if n_dim == 1 else 128, 10.0)
        params = FracParams(s=s, m=1.0, n_dim=n_dim)
        u = gaussian_field(grid, width=1.0)
        stack = extend(u, params)
        dtn = conormal_derivative(stack, params)
        ref = sigma_s(s) * apply_operator(u, build_symbol(grid, params)).values
        err = norm_l2(Field(grid=grid, values=dtn.values - ref)) / norm_l2(
            Field(grid=grid, values=ref)
        )
        assert err < 1e-4

    @pytest.mark.parametrize("s,n_dim", [(0.25, 1), (0.5, 2)])
    def test_eliminates_both_error_orders(self, s, n_dim):
        # the ladder cancels y^(2-2s) and y^2, leaving round-off, on the
        # grid and bump of `frns kernels`
        grid = Grid(n_dim, 64, 10.0)
        params = FracParams(s=s, m=1.0, n_dim=n_dim)
        u = Field(grid=grid, values=np.exp(-grid.radii() ** 2))
        dtn = conormal_derivative(extend(u, params), params)
        ref = sigma_s(s) * apply_operator(u, build_symbol(grid, params)).values
        err = norm_l2(Field(grid=grid, values=dtn.values - ref)) / norm_l2(
            Field(grid=grid, values=ref)
        )
        assert err < 1e-10

    def test_needs_four_positive_levels(self):
        grid = Grid(1, 64, 5.0)
        params = FracParams(s=0.4, m=1.0, n_dim=1)
        stack = extend(gaussian_field(grid), params, y_levels=np.array([0.0, 0.1, 0.2, 0.4]))
        with pytest.raises(ExtrapolationError):
            conormal_derivative(stack, params)

    def test_2d_case(self):
        grid = Grid(2, 64, 8.0)
        params = FracParams(s=0.5, m=1.0, n_dim=2)
        u = gaussian_field(grid, width=1.2)
        stack = extend(u, params)
        dtn = conormal_derivative(stack, params)
        ref = sigma_s(0.5) * apply_operator(u, build_symbol(grid, params)).values
        err = norm_l2(Field(grid=grid, values=dtn.values - ref)) / norm_l2(
            Field(grid=grid, values=ref)
        )
        assert err < 1e-2


class TestExtensionEnergy:
    @pytest.mark.parametrize("s,n_dim", [(0.25, 1), (0.5, 2), (0.75, 2)])
    def test_energy_identity(self, s, n_dim):
        # iint y^{1-2s}(|grad U|^2 + m^2 U^2) = sigma_s sum (|k|^2+m^2)^s |u_hat|^2
        grid = Grid(n_dim, 64, 8.0)
        params = FracParams(s=s, m=1.0, n_dim=n_dim)
        u = gaussian_field(grid, width=1.2)
        stack = extend(u, params, y_levels=default_y_levels(1.0, n_levels=96))
        lhs = extension_energy(stack, params)
        table = build_symbol(grid, params)
        from frns.operator import operator_quadratic_form

        rhs = sigma_s(s) * operator_quadratic_form(u, table)
        assert lhs == pytest.approx(rhs, rel=2e-2)

    def test_extension_is_energy_minimizer(self):
        # perturbing interior slabs only increases the weighted energy
        grid = Grid(1, 64, 8.0)
        params = FracParams(s=0.4, m=1.0, n_dim=1)
        u = gaussian_field(grid, width=1.2)
        ys = default_y_levels(1.0, n_levels=64)
        stack = extend(u, params, y_levels=ys)
        base = extension_energy(stack, params)
        rng = np.random.default_rng(0)
        for _ in range(10):
            bump = rng.standard_normal(stack.slabs.shape) * 0.02
            bump[0] = 0.0  # keep the trace fixed
            pert = ExtensionStack(grid=grid, y_levels=ys, slabs=stack.slabs + bump)
            assert extension_energy(pert, params) > base

    def test_trace_inequality(self):
        # sigma_s Q(u) <= weighted energy of ANY extension with trace u,
        # sharp at the canonical one; a crude linear-decay competitor
        grid = Grid(1, 64, 8.0)
        params = FracParams(s=0.25, m=1.0, n_dim=1)
        u = gaussian_field(grid, width=1.2)
        ys = default_y_levels(1.0, n_levels=64)
        competitor = np.empty((len(ys),) + grid.shape)
        for j, y in enumerate(ys):
            competitor[j] = u.values * max(1.0 - y / 10.0, 0.0)
        stack = ExtensionStack(grid=grid, y_levels=ys, slabs=competitor)
        from frns.operator import operator_quadratic_form

        table = build_symbol(grid, params)
        lhs = sigma_s(0.25) * operator_quadratic_form(u, table)
        assert extension_energy(stack, params) > lhs
