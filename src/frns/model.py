"""Problem data on arrays: the potential V and the well region Lambda on
the grid, and the penalized nonlinearity g with its primitive G.

The potential V has a designated well region Lambda containing the set
M of its minima; outside Lambda the nonlinearity is truncated above the
threshold a to the small linear term (V1/kappa) t, which is what makes
the variational problem compact-friendly while leaving solutions that
stay below a outside Lambda untouched.  The specs, the check of the
hypotheses and the threshold a (derived by `ModelConfig`) need no arrays
and live in `params`.  Both Nehari problems of the solver evaluate g and
G here, the autonomous one with Lambda the whole box: g untruncated.

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
    return -pot.V0 + smooth_ramp(np.clip(np.sqrt(d2min), 0.0, 1.0))


# ---------------------------------------------------------------------------
# penalized nonlinearity g and primitive G


def g_eval(config, in_lambda, t):
    """Penalized nonlinearity g(x, t).

    Inside Lambda: f(t) + (t+)^(2*_s - 1), the sum c t^(e-1) over the
    config's `terms`.  Outside: the same below the threshold a, and
    slope * t above it (slope = V1/kappa); the two branches agree at
    t = a by the threshold identity.  Zero for t <= 0.  `in_lambda`
    marks x in Lambda, broadcast to the shape of t; where it holds
    everywhere, g is untruncated for every a.
    """
    t = np.asarray(t, dtype=float)
    # only t > 0 (and nan, which stays nan) goes through pow: it takes a
    # slow path for a 0.0 base, and the clipped field holds many zeros
    pos = np.logical_not(t <= 0.0)
    tp = t[pos]
    g = np.zeros(t.shape)
    g[pos] = sum(c * tp ** (e - 1.0) for c, e in config.terms)
    high = np.logical_and(np.logical_not(in_lambda), t >= config.a)
    if high.any():
        g[high] = config.slope * t[high]
    return g


def G_eval(config, in_lambda, t):
    """Primitive G(x, t) = int_0^t g(x, tau) dtau: sum c (t+)^e / e over
    the `terms`, and G_a + (slope / 2)(t^2 - a^2) for x outside Lambda
    and t >= a, which matches the inner branch C^1 at t = a; it is
    evaluated only where it applies, so an `in_lambda` that holds
    everywhere leaves G untruncated.
    """
    a = config.a
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    G = np.asarray(sum(c * tp**e / e for c, e in config.terms))  # a 0-d t gives a numpy scalar
    high = np.logical_and(np.logical_not(in_lambda), t >= a)
    if high.any():
        G[high] = config.G_a + (0.5 * config.slope) * (t[high] ** 2 - a**2)
    return G


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

