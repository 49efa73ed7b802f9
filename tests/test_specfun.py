"""Special-function layer: Bessel profile, extension constants, Sobolev constant.

Oracle values come from independent routes: the integral representation
of K_nu, closed forms at half-integer order, the defining ODE of the
theta profile, and direct quadrature of the extension energy integrand.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, kve

from frns.specfun import (
    DomainError,
    FracParams,
    bessel_k,
    kappa_s,
    kernel_constants,
    richardson,
    sigma_s,
    sobolev_trace_constant,
    theta_profile,
    theta_profile_deriv,
)

S_VALUES = [0.25, 0.4, 0.5, 0.6, 0.75]


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


def bessel_k_oracle(nu, x):
    # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt
    val, err = quad(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
                    0.0, 40.0, limit=200)
    assert err < 1e-8 * max(abs(val), 1.0)
    return val


class TestBesselK:
    def test_integral_representation(self):
        for nu in [0.25, 0.5, 1.0, 1.5, 2.5]:
            for x in [0.1, 0.7, 1.0, 3.0, 8.0]:
                ref = bessel_k_oracle(nu, x)
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0, 1.5, 2.5, 10.0])
    def test_matches_scipy(self, nu):
        # kv flushes to 0 above x = 697.9, so the oracle is the scaled kve
        # times e^(-x), whose own conditioning is about 1e-13 at x = 700
        x = np.geomspace(1e-6, 700.0, 400)
        ref = kve(nu, x) * np.exp(-x)
        assert np.max(np.abs(bessel_k(nu, x) / ref - 1.0)) <= 1e-12
        assert np.max(np.abs(bessel_k(-nu, x) / ref - 1.0)) <= 1e-12

    def test_past_underflow_and_overflow(self):
        # 0 where K_nu underflows, inf where it overflows, never nan
        big = np.array([760.0, 1e6, np.inf])
        assert np.array_equal(bessel_k(0.25, big), np.zeros(3))
        tiny = np.array([1e-300, 1e-310, 5e-324])
        assert np.all(np.isfinite(bessel_k(0.5, tiny)))
        assert np.all(np.isinf(bessel_k(10.0, tiny)))
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x} stays finite at subnormal x
        assert bessel_k(0.5, 1e-310) == pytest.approx(np.sqrt(np.pi / 2) / np.sqrt(1e-310), rel=1e-13)

    def test_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        x = np.linspace(0.1, 10.0, 47)
        ref = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
        assert np.allclose(bessel_k(0.5, x), ref, rtol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)


class TestThetaProfile:
    def test_value_at_zero(self):
        for s in S_VALUES:
            assert theta_profile(s, 0.0) == 1.0

    def test_half_case_is_exponential(self):
        r = np.linspace(1e-3, 20.0, 200)
        assert np.allclose(theta_profile(0.5, r), np.exp(-r), rtol=1e-10, atol=0)

    def test_ode_residual(self):
        # theta'' + (1-2s)/y theta' - theta = 0 away from the origin
        for s in S_VALUES:
            y = np.linspace(0.05, 10.0, 400)
            d = 1e-5
            th = theta_profile(s, y)
            d1 = (theta_profile(s, y + d) - theta_profile(s, y - d)) / (2 * d)
            d2 = (theta_profile(s, y + d) - 2 * th + theta_profile(s, y - d)) / d**2
            res = d2 + (1.0 - 2.0 * s) / y * d1 - th
            assert np.max(np.abs(res)) < 1e-4

    def test_deriv_matches_profile(self):
        for s in S_VALUES:
            y = np.linspace(0.1, 6.0, 60)
            d = 1e-6
            fd = (theta_profile(s, y + d) - theta_profile(s, y - d)) / (2 * d)
            assert np.allclose(theta_profile_deriv(s, y), fd, rtol=1e-7, atol=1e-12)

    def test_small_argument_expansion(self):
        # theta(t) = 1 - sigma_s/(2s) t^{2s} + O(t^2)
        # next correction is O(t^2), i.e. t^(2-2s) relative: keep t small
        for s in [0.25, 0.4, 0.6, 0.75]:
            t = 1e-6
            lead = sigma_s(s) / (2.0 * s) * t ** (2.0 * s)
            assert 1.0 - theta_profile(s, t) == pytest.approx(lead, rel=5e-3)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_tiny_radii_stay_in_unit_interval(self, s):
        # theta(r) -> 1 as r -> 0, also at subnormal r, and never exceeds 1
        th = theta_profile(s, np.array([1e-300, 1e-310, 5e-324]))
        assert np.all((th >= 0.0) & (th <= 1.0))
        assert np.allclose(th, 1.0, rtol=0.0, atol=1e-12)

    def test_monotone_decay(self):
        y = np.linspace(0.0, 30.0, 500)
        for s in S_VALUES:
            th = theta_profile(s, y)
            assert np.all(np.diff(th) <= 0)
            assert th[-1] < 1e-9


class TestKappaSigma:
    def test_quadrature_equals_sigma(self):
        # kappa_s = int y^{1-2s} (theta'^2 + theta^2) dy = sigma_s
        for s in np.linspace(0.1, 0.9, 9):
            assert kappa_s(s) == pytest.approx(sigma_s(s), rel=1e-9)

    def test_limit_equals_sigma(self):
        # -lim y^{1-2s} theta'(y) = sigma_s, Richardson-extrapolated over
        # the orders 2-2s, 2 and 4-2s: round-off is all that is left
        for s in np.linspace(0.1, 0.9, 9):
            assert abs(kappa_s_limit(s) - sigma_s(s)) < 1e-12

    def test_sigma_closed_form(self):
        # sigma_s = 2^{1-2s} Gamma(1-s)/Gamma(s); s = 1/2 gives exactly 1
        assert sigma_s(0.5) == pytest.approx(1.0, rel=1e-15)
        assert sigma_s(0.25) == pytest.approx(
            2.0**0.5 * gamma(0.75) / gamma(0.25), rel=1e-14
        )


class TestSobolevTraceConstant:
    def test_frozen_values(self):
        # independent evaluations of the closed form, frozen
        assert sobolev_trace_constant(1, 0.25) == pytest.approx(
            0.4049583636151845, rel=1e-12
        )
        assert sobolev_trace_constant(2, 0.5) == pytest.approx(
            np.sqrt(np.pi), rel=1e-12
        )
        assert sobolev_trace_constant(3, 0.5) == pytest.approx(
            2.70256769006349, rel=1e-10
        )

    def test_positive_and_parameter_sensitive(self):
        vals = set()
        for (n, s) in [(1, 0.25), (1, 0.4), (2, 0.5), (2, 0.75), (3, 0.5)]:
            v = sobolev_trace_constant(n, s)
            assert v > 0
            vals.add(round(v, 12))
        assert len(vals) == 5

    def test_requires_subcritical_dimension(self):
        with pytest.raises(DomainError):
            sobolev_trace_constant(1, 0.5)


class TestFracParams:
    def test_two_star(self):
        p = FracParams(s=0.5, m=1.0, n_dim=2)
        assert p.two_star == 4.0
        p = FracParams(s=0.25, m=1.0, n_dim=1)
        assert p.two_star == 4.0

    def test_invariants(self):
        with pytest.raises(DomainError):
            FracParams(s=1.0, m=1.0, n_dim=2)
        with pytest.raises(DomainError):
            FracParams(s=0.5, m=0.0, n_dim=2)
        with pytest.raises(DomainError):
            FracParams(s=0.5, m=1.0, n_dim=1)  # needs N > 2s


class TestKernelConstants:
    def test_values(self):
        p = FracParams(s=0.4, m=2.0, n_dim=2)
        N, s = 2.0, 0.4
        nu = (N + 2.0 * s) / 2.0
        C = (2.0 ** (-nu + 1.0) * np.pi ** (-N / 2.0) * 2.0 ** (2.0 * s)
             * s * (1.0 - s) / gamma(2.0 - s))
        assert kernel_constants(p) == pytest.approx(C, rel=1e-13)

    def test_all_positive(self):
        for (n, s) in [(1, 0.25), (2, 0.5), (3, 0.75)]:
            assert kernel_constants(FracParams(s=s, m=1.0, n_dim=n)) > 0
