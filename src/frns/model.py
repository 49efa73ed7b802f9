"""Problem data on arrays: the potential V and the well region Lambda on
the grid, and the penalized nonlinearity g with its primitive G.

The potential V has a designated well region Lambda containing the set
M of its minima; outside Lambda the nonlinearity is truncated above the
threshold a to the small linear term (V1/kappa) t, which is what makes
the variational problem compact-friendly while leaving solutions that
stay below a outside Lambda untouched.  The specs, the threshold a and
the check of the hypotheses need no arrays and live in `params`.

All optimization happens on trace fields over R^N with the spectral
operator (the energy and its gradient live in the solver module); the
half-space only appears in the extension module.
"""

import numpy as np

# validate_config is not called here; perfbench/worker.py times it as
# model.validate_config
from .params import ModelConfig, PotentialSpec, smooth_ramp, validate_config


def potential_values(pot: PotentialSpec, *coords):
    """V at coordinate arrays (one per dimension), `PotentialSpec`'s
    formula with the ramp shared with its exact scalar checks."""
    d2min = None
    for p in pot.M_points:
        d2 = sum((x - c) ** 2 for x, c in zip(coords, p))
        d2min = d2 if d2min is None else np.minimum(d2min, d2)
    r = np.sqrt(d2min) / pot.well_width
    return -pot.V0 + pot.barrier * smooth_ramp(np.clip(r, 0.0, 1.0))


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
    return potential_values(config.potential, *coords)


def lambda_mask(config: ModelConfig, grid) -> np.ndarray:
    """Characteristic function of Lambda_eps = Lambda / eps on the grid."""
    coords = [config.eps * c for c in grid.coords()]
    return config.potential.in_lambda(*coords)

