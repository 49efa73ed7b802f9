"""End-to-end acceptance suite.

Eleven criteria covering the kernel identities, the operator and
extension cross-checks, the trace-constant estimate, the penalized
ground-state contract, the concentration sweep, the level comparison
and bit-level determinism.  Each criterion prints one pass/fail line.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gamma, kv

from frns.specfun import (
    FracParams,
    kappa_s,
    sigma_s,
    sobolev_trace_constant,
    theta_profile,
    theta_profile_deriv,
)
from frns.operator import (
    Field,
    Grid,
    apply_operator,
    apply_operator_singular,
    build_symbol,
    estimate_s_star,
    norm_l2,
)
from frns.extension import conormal_derivative, extend
from frns.solver import (
    NehariProblem,
    autonomous_ground_state,
    concentration_sweep,
    grid_for_eps,
    ground_state,
    mp_threshold,
)
from frns.cli import build_config, load_config, main as cli_main


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG_2D = os.path.join(REPO, "configs", "double_well_2d.cfg")
CFG_1D = os.path.join(REPO, "configs", "single_well_1d.cfg")


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def default_config():
    cfg, _ = build_config(load_config(CFG_2D))
    return cfg


@pytest.fixture(scope="module")
def default_solve(default_config):
    """Criterion 8 solve on the pinned 128^2 grid, shared with 10/11."""
    grid = grid_for_eps(default_config, default_config.eps, 128)
    return grid, ground_state(default_config, grid)


@pytest.fixture(scope="module")
def d_solve(default_config):
    """The autonomous level d_{V(0)} on 128^2, half-length 20, as `frns
    sweep` solves it; shared by criterion 10 and the reference levels."""
    return autonomous_ground_state(default_config, Grid(2, 128, 20.0))


@pytest.fixture(scope="module")
def sweep_rows(default_config):
    """Criterion 9 sweep at 256 points per dim, shared with criterion 10."""
    return concentration_sweep(
        default_config, (0.5, 0.25, 0.1), points_per_dim=256,
        jobs=min(3, os.cpu_count() or 1),
    )


def test_criterion_01_poisson_kernel_mass(capsys):
    # the extension of a constant trace is theta(m y) at every level
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        n_dim = 1 if s < 0.5 else 2
        for m in (1.0, 2.0):
            frac = FracParams(s=s, m=m, n_dim=n_dim)
            grid = Grid(n_dim, 64, 8.0)
            levels = np.array([0.0, 0.1 / m, 1.0 / m, 5.0 / m])
            stack = extend(Field(grid=grid, values=np.ones(grid.shape)), frac,
                           y_levels=levels)
            for j, y in enumerate(levels):
                expected = theta_profile(s, m * y)
                err = float(np.max(np.abs(stack.slabs[j] - expected))) / expected
                worst = max(worst, err)
    ok = worst <= 1e-6
    report(capsys, 1, f"Poisson kernel mass (worst rel {worst:.2e})", ok)
    assert ok


def test_criterion_02_theta_profile(capsys):
    # ODE residual with Bessel-recurrence derivatives, relative to the
    # largest term; plus theta(0) = 1 and the s = 1/2 closed form
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        y = np.geomspace(1e-3, 20.0, 400)
        c = (2.0 / gamma(s)) * 0.5**s
        th = theta_profile(s, y)
        d1 = theta_profile_deriv(s, y)
        d2 = -c * (
            s * y ** (s - 1.0) * kv(s - 1.0, y)
            - y**s * (kv(s - 2.0, y) + kv(s, y)) / 2.0
        )
        mid = (1.0 - 2.0 * s) / y * d1
        res = np.abs(d2 + mid - th)
        scale = np.maximum.reduce([np.abs(d2), np.abs(mid), np.abs(th)])
        worst = max(worst, float(np.max(res / scale)))
    ode_ok = worst <= 1e-4
    zero_ok = all(theta_profile(s, 0.0) == 1.0 for s in (0.25, 0.5, 0.75))
    r = np.linspace(0.01, 15.0, 500)
    half_err = float(np.max(np.abs(theta_profile(0.5, r) - np.exp(-r))))
    half_ok = half_err <= 1e-10
    ok = ode_ok and zero_ok and half_ok
    report(capsys, 2,
           f"theta ODE residual {worst:.2e}, theta(0)=1, "
           f"s=1/2 closed form err {half_err:.2e}", ok)
    assert ok


def test_criterion_03_kappa_equals_sigma(capsys):
    worst = 0.0
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        sig = sigma_s(s)
        worst = max(worst, abs(kappa_s(s) - sig) / sig)
    ok = worst <= 1e-6
    report(capsys, 3, f"kappa_s = sigma_s (worst rel {worst:.2e})", ok)
    assert ok


def test_criterion_04_operator_equivalence(capsys):
    # spectral vs singular-integral application; 1D admissibility needs
    # s < 1/2, checked at s = 0.25 and near the top of that range
    worst = 0.0
    grid = Grid(1, 512, 20.0)
    x = grid.coords()[0]
    u = Field(grid=grid, values=np.exp(-(x**2)))
    for s in (0.25, 0.4):
        frac = FracParams(s=s, m=1.0, n_dim=1)
        spec = apply_operator(u, build_symbol(grid, frac))
        sing = apply_operator_singular(u, frac, truncation_radius=18.0)
        rel = norm_l2(Field(grid=grid, values=spec.values - sing.values)) / norm_l2(spec)
        worst = max(worst, rel)
    ok = worst <= 1e-2
    report(capsys, 4, f"spectral vs singular integral (worst rel L2 {worst:.2e})", ok)
    assert ok


def test_criterion_05_dirichlet_to_neumann(capsys):
    worst = 0.0
    for s, n_dim in ((0.25, 1), (0.5, 2)):
        frac = FracParams(s=s, m=1.0, n_dim=n_dim)
        grid = Grid(n_dim, 64, 10.0)
        u = Field(grid=grid, values=np.exp(-grid.radii() ** 2))
        flux = conormal_derivative(extend(u, frac), frac)
        target = sigma_s(s) * apply_operator(u, build_symbol(grid, frac)).values
        rel = float(
            np.sqrt(np.sum((flux.values - target) ** 2) / np.sum(target**2))
        )
        worst = max(worst, rel)
    ok = worst <= 1e-2
    report(capsys, 5, f"conormal derivative vs sigma_s A u (worst rel L2 {worst:.2e})", ok)
    assert ok


def test_criterion_06_trace_constant_estimate(capsys):
    worst = 0.0
    for n_dim, s in ((1, 0.25), (2, 0.5)):
        exact = sobolev_trace_constant(n_dim, s)
        est = estimate_s_star(FracParams(s=s, m=1.0, n_dim=n_dim))["estimate"]
        worst = max(worst, abs(est - exact) / exact)
    ok = worst <= 0.05
    report(capsys, 6, f"S_* Rayleigh estimate (worst rel {worst:.2e})", ok)
    assert ok


def test_criterion_07_gradient_correctness(capsys, default_config):
    # the energy and gradient that the descent in `frns solve` runs
    grid = Grid(2, 64, 12.0)
    problem = NehariProblem.penalized(default_config, grid)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        u = np.abs(rng.standard_normal(grid.shape))
        v = rng.standard_normal(grid.shape)
        d = 1e-6
        fd = (problem.energy(u + d * v) - problem.energy(u - d * v)) / (2.0 * d)
        pairing = grid.spacing**2 * float(np.sum(problem.gradient(u) * v))
        worst = max(worst, abs(pairing - fd) / max(abs(fd), 1e-300))
    ok = worst <= 1e-6
    report(capsys, 7, f"gradient vs central differences (worst rel {worst:.2e})", ok)
    assert ok


def test_criterion_08_ground_state_contract(capsys, default_config, default_solve):
    _, res = default_solve
    c_star = mp_threshold(default_config)
    checks = {
        "converged": res.converged,
        "energy in (0, c_star)": 0.0 < res.energy < c_star,
        "nehari": res.nehari_residual <= 1e-10,
        "gradient": res.grad_residual <= 1e-6,
        "nonnegative": float(np.min(res.field.values)) >= -1e-12,
    }
    ok = all(checks.values())
    detail = f"energy {res.energy:.6f} vs c_star {c_star:.6f}"
    if not ok:
        detail += ", failed: " + ", ".join(k for k, v in checks.items() if not v)
    report(capsys, 8, f"ground-state contract ({detail})", ok)
    assert ok


def test_criterion_09_concentration_sweep(capsys, default_config, sweep_rows):
    rows = sweep_rows
    assert all(not r.get("error") for r in rows), [r.get("error") for r in rows]
    dists = [r["dist_to_M_rescaled"] for r in rows]
    cells = [r["eps"] * 2.0 * r["half_length"] / r["grid_points"] for r in rows]
    monotone = all(
        dists[i + 1] <= dists[i] + cells[i + 1] for i in range(len(dists) - 1)
    )
    final_close = dists[-1] <= 2.0 * cells[-1]
    outside_small = rows[-1]["max_outside_lambda"] < rows[-1]["a_threshold"]
    decay_ok = all(r["decay_C2"] > 0.0 and r["decay_r_squared"] >= 0.95 for r in rows)
    ok = monotone and final_close and outside_small and decay_ok
    report(
        capsys, 9,
        f"concentration sweep (dists {['%.4f' % d for d in dists]}, "
        f"final cell {cells[-1]:.4f}, outside {rows[-1]['max_outside_lambda']:.2e})",
        ok,
    )
    assert ok


def test_criterion_10_level_comparison(capsys, sweep_rows, d_solve):
    rows = sweep_rows
    c_eps = [r["energy"] for r in rows]
    nonincreasing = all(c_eps[i + 1] <= c_eps[i] + 1e-12 for i in range(len(c_eps) - 1))
    d_res = d_solve
    d = d_res.energy
    # smallest-eps level within 5% above the autonomous level d_{V(0)}
    within = d - 0.01 * d <= c_eps[-1] <= 1.05 * d
    ok = nonincreasing and d_res.converged and within
    report(
        capsys, 10,
        f"levels c_eps {['%.5f' % c for c in c_eps]} vs d {d:.5f} "
        f"(ratio {c_eps[-1] / d:.4f})",
        ok,
    )
    assert ok


def test_criterion_11_determinism(capsys, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code = cli_main(["solve", "--config", CFG_2D, "--out", out, "--seed", "3"])
        assert code == 0
        outs.append(out)
    same = all(
        open(os.path.join(outs[0], name), "rb").read()
        == open(os.path.join(outs[1], name), "rb").read()
        for name in ("solution.csv", "diagnostics.csv")
    )
    report(capsys, 11, "determinism (bit-identical CSVs for equal seed)", same)
    assert same


def test_determinism_under_blas_threads(tmp_path):
    # the even-block DCT-I runs through BLAS; one or two BLAS threads must
    # give the same bytes
    outs = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "frns.cli", "solve", "--config", CFG_2D,
                        "--out", out, "--seed", "3"],
                       env=env, check=True, capture_output=True, timeout=120)
        with open(os.path.join(out, "solution.csv"), "rb") as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


# Reference levels of the benchmark (`REFERENCES` in perfbench/workloads.py,
# taken at the seed commit), pinned here at its tolerance ENERGY_RTOL =
# 1e-10 relative, so that a descent change that moves a level fails here
# first.  The values are copied, not imported: tier-1 does not depend on
# the benchmark.
REFERENCE_RTOL = 1e-10
REFERENCE_2D = {"energy": 0.46410210866211055, "argmax_index": 6464}  # 128^2
REFERENCE_D_V0 = 0.45094893898605659  # 128^2, half-length 20


def test_reference_level_2d(default_solve):
    _, res = default_solve
    assert res.energy == pytest.approx(REFERENCE_2D["energy"], rel=REFERENCE_RTOL)
    # flat row-major index, as `solution.csv` lists the field
    assert int(np.argmax(res.field.values)) == REFERENCE_2D["argmax_index"]


def test_reference_level_d_v0(d_solve):
    assert d_solve.converged
    assert d_solve.energy == pytest.approx(REFERENCE_D_V0, rel=REFERENCE_RTOL)


# The 16 Rayleigh quotients of `frns sstar` on each shipped config, copied
# from its `sstar.csv` at commit 2f74e14, where the quotient was still
# evaluated on the full grid; the even-block evaluation reproduces them to
# round-off (4.7e-16 relative), so 1e-13 pins the bubble family, the
# cutoff and the quotient, and the plateau must sit at the same rho.
SSTAR_RTOL = 1e-13
SSTAR_REFERENCE = {
    CFG_2D: {"rho_at_plateau": 0.23318288023596637, "quotients": [
        1.9099505592903263, 1.8175167023848025, 1.7472467806615595, 1.7201310330841828,
        1.7356482396404704, 1.7621832947628717, 1.7764473150888831, 1.7818711382791403,
        1.7856994160510526, 1.7904975603222815, 1.7970136272112134, 1.8058903688972381,
        1.8179819985589891, 1.834439257937978, 1.8567881625333102, 1.8869906873301112]},
    CFG_1D: {"rho_at_plateau": 0.050237728630191596, "quotients": [
        0.4026631601967815, 0.39993684720201522, 0.39914241102844145, 0.39914916300806325,
        0.39899823655414224, 0.39837572008473304, 0.39739363019661061, 0.39618220158378209,
        0.39477084447147076, 0.39314029702131287, 0.39126025470727549, 0.38909666657677455,
        0.38661232243067783, 0.38376716489314328, 0.38051889580774195, 0.37682400601675059]},
}


@pytest.mark.parametrize("path", [CFG_2D, CFG_1D], ids=["2d", "1d"])
def test_reference_s_star_quotients(path):
    cfg, _ = build_config(load_config(path))
    out = estimate_s_star(cfg.frac)
    ref = SSTAR_REFERENCE[path]
    assert out["quotients"] == pytest.approx(ref["quotients"], rel=SSTAR_RTOL, abs=0.0)
    assert out["rho_at_plateau"] == ref["rho_at_plateau"]
    assert out["edge_warning"] is False


# Descent cost: the shipped config took 49 iterations at 128^2 and 222 on
# the 256^2 box of `grid_for_eps` at eps = 0.25 while the step and the
# KKT residual used different active sets; with one set, 32 and 81; with
# the Polak-Ribiere+ CG step, 23 and 52.  The 1D config took 86 with the
# preconditioned steepest step and 40 with CG.
def test_descent_iterations_128(default_solve):
    _, res = default_solve
    assert res.converged and res.iterations <= 40


def test_descent_iterations_256(sweep_rows):
    (row,) = [r for r in sweep_rows if r["eps"] == 0.25]
    assert row["converged"] and row["iterations"] <= 100


def test_descent_iterations_1d():
    cfg, _ = build_config(load_config(CFG_1D))
    res = ground_state(cfg, grid_for_eps(cfg, cfg.eps, 1024))
    assert res.converged and res.iterations <= 50
