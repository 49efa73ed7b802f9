"""Command-line front end: config ingestion, experiment orchestration and
artifact emission (CSV tables, minimal SVG plots).

Config files are flat ``key = value`` text with dotted sections (see
docs/config.md); unknown keys are hard errors so misconfiguration fails
loudly.  Exit codes: 0 pass, 1 numerical failure, 2 invalid parameters
or an --out that cannot be written, 3 parse error.

At module scope only the standard library and `params` are imported, so
`validate` runs without numpy; each command imports the array layers it
runs when it starts.
"""

import argparse
import json
import math
import os
import sys

# SHA-256 from CPython's own module: hashlib would load OpenSSL's libcrypto,
# about 4 MB of every process's peak RSS, to hash a few hundred bytes
try:
    from _sha2 import sha256
except ImportError:  # Python before 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .params import (
    AssumptionError,
    DomainError,
    FracParams,
    ModelConfig,
    NonlinearitySpec,
    NoPositivePartError,
    PotentialSpec,
    RunSettings,
    Tolerances,
    autonomous_box,
    box_half_length,
    check_run,
    cores,
)

EXIT_PASS = 0
EXIT_NUMERICAL = 1
EXIT_INVALID = 2
EXIT_PARSE = 3


class ConfigError(Exception):
    """Parse-level problem in a config file; carries the offending line."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# config schema and parsing

# key -> (kind, required, default); kinds: float, int, point_list, float_list,
# point (a single coordinate tuple)
_SCHEMA = {
    "frac.s": ("float", True, None),
    "frac.m": ("float", True, None),
    "frac.n_dim": ("int", True, None),
    "eps": ("float", True, None),
    "potential.V1": ("float", True, None),
    "potential.V0": ("float", True, None),
    "potential.M_points": ("point_list", True, None),
    "potential.lambda_center": ("point", True, None),
    "potential.lambda_radius": ("float", True, None),
    "nonlin.lam": ("float", True, None),
    "nonlin.p": ("float", True, None),
    "nonlin.ar_theta": ("float", True, None),
    "nonlin.q": ("float", True, None),
    "pen.kappa": ("float", True, None),
    "grid.points_per_dim": ("int", False, 128),
    "grid.half_length": ("float", False, None),
    "solver.grad_tol": ("float", False, Tolerances.grad),
    "solver.max_iterations": ("int", False, Tolerances.max_iterations),
    "sweep.eps": ("float_list", False, (0.5, 0.25, 0.1)),
    "sweep.points_per_dim": ("int", False, 256),
}


def _parse_scalar(kind, text, line_no):
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as {kind}", line_no)
    if not math.isfinite(val):
        raise ConfigError(f"{text!r} is not a finite number", line_no)
    if kind == "int":
        if val != int(val):
            raise ConfigError(f"cannot parse {text!r} as {kind}", line_no)
        return int(val)
    return val


def _parse_value(kind, text, line_no):
    if kind in ("float", "int"):
        return _parse_scalar(kind, text, line_no)
    if kind == "float_list":
        parts = [p for p in text.replace(",", " ").split() if p]
        if not parts:
            raise ConfigError("empty list", line_no)
        return tuple(_parse_scalar("float", p, line_no) for p in parts)
    if kind == "point":
        return tuple(
            _parse_scalar("float", p, line_no)
            for p in text.replace(",", " ").split()
        )
    if kind == "point_list":
        points = []
        for chunk in text.split(";"):
            coords = [p for p in chunk.replace(",", " ").split() if p]
            if not coords:
                raise ConfigError("empty point in list", line_no)
            points.append(tuple(_parse_scalar("float", p, line_no) for p in coords))
        return tuple(points)
    raise ConfigError(f"unknown value kind {kind!r}", line_no)


def load_config(path):
    """Parse a flat key-value config file against the schema.

    Returns a dict of the keys the file sets; `build_config` fills in
    the defaults of the others.  Unknown keys, duplicate keys, syntax
    problems and missing required keys raise ConfigError.
    """
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    for i, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", i)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", i)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", i)
        if not value:
            raise ConfigError(f"empty value for {key!r}", i)
        raw[key] = _parse_value(_SCHEMA[key][0], value, i)
    for key, (_, required, _) in _SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    return raw


def config_hash(raw) -> str:
    """SHA-256 hex digest of the canonical config (sorted key = repr lines).

    Only the keys the file sets are hashed, so adding or removing an
    optional schema key leaves the hash of an unchanged file alone.
    """
    canon = "\n".join(f"{k} = {raw[k]!r}" for k in sorted(raw))
    return sha256(canon.encode("utf-8")).hexdigest()


def build_config(raw):
    """Raw schema dict -> (ModelConfig, RunSettings), checked by
    `ModelConfig` and `params.check_run`: a violation raises
    AssumptionError or DomainError (exit code 2) for every command that
    builds a config, `validate` included.  An unset `grid.half_length` is
    `params.box_half_length`.
    """
    raw = {key: raw.get(key, default) for key, (_, _, default) in _SCHEMA.items()}
    frac = FracParams(s=raw["frac.s"], m=raw["frac.m"], n_dim=raw["frac.n_dim"])
    nonlin = NonlinearitySpec(
        lam=raw["nonlin.lam"], p=raw["nonlin.p"],
        ar_theta=raw["nonlin.ar_theta"], q=raw["nonlin.q"],
    )
    pot = PotentialSpec(
        V1=raw["potential.V1"], V0=raw["potential.V0"],
        M_points=raw["potential.M_points"],
        lambda_center=raw["potential.lambda_center"],
        lambda_radius=raw["potential.lambda_radius"],
    )
    cfg = ModelConfig(frac=frac, eps=raw["eps"], potential=pot, nonlin=nonlin,
                      kappa=raw["pen.kappa"])
    half_length = raw["grid.half_length"]
    settings = RunSettings(
        points_per_dim=raw["grid.points_per_dim"],
        half_length=box_half_length(cfg, cfg.eps) if half_length is None else half_length,
        tolerances=Tolerances(
            grad=raw["solver.grad_tol"],
            max_iterations=raw["solver.max_iterations"],
        ),
        sweep_eps=raw["sweep.eps"],
        sweep_points_per_dim=raw["sweep.points_per_dim"],
    )
    check_run(cfg, settings)
    return cfg, settings


# ---------------------------------------------------------------------------
# artifact emission

def _cell(value) -> str:
    """CSV text of one value: bools as true/false, ints as ints, strings
    as given and floats with 17 significant digits."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def write_csv(path, header, rows, cfg_hash):
    """CSV with a leading config-hash comment line, streamed row by row
    and cell by cell (`_cell`), so reruns are bit-comparable.  No field
    is quoted; names and strings hold no commas, quotes or line breaks.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# config-hash: {cfg_hash}\r\n" + ",".join(header) + "\r\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\r\n")


def _exactly_even(rows) -> bool:
    """Whether each row's value at index i is bit for bit that at n - i."""
    import numpy as np

    bits = np.ascontiguousarray(rows, dtype=float).view(np.uint64)
    return bool(np.array_equal(bits[:, 1:], bits[:, :0:-1]))


def write_field_csv(path, grid, values, cfg_hash):
    """`write_csv` of the rows (coordinates..., value), one per grid point
    in row-major order, byte for byte.

    Each axis value is formatted once (format(v, ".17g") is the text of
    "%.17g" % v), and each grid row (the points along the last axis) is
    one %-template of that text, filled with the row's values in one call.
    A field exactly even along the last axis about the grid centre (the
    value at index i bit for bit that at n - i) has m = n/2 + 1 distinct
    values per row: all of those are formatted in one call and each
    row's text is mirrored.
    """
    n = grid.points_per_dim
    rows = values.reshape(-1, n)
    even = _exactly_even(rows)
    m = n // 2 + 1 if even else n
    cells = rows[:, :m].ravel().tolist()
    if even:
        cells = (("%.17g\n" * len(cells)) % tuple(cells)).split("\n")
    axis = [format(v, ".17g") for v in grid.axis().tolist()]
    prefixes = [a + "," for a in axis] if grid.n_dim == 2 else [""]
    lines = [a + (",%s\r\n" if even else ",%.17g\r\n") for a in axis]
    header = ",".join(("x", "y")[: grid.n_dim] + ("u",))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# config-hash: {cfg_hash}\r\n{header}\r\n")
        for r, prefix in enumerate(prefixes):
            row = cells[r * m:(r + 1) * m]
            if even:
                row += row[-2:0:-1]
            f.write((prefix + prefix.join(lines)) % tuple(row))


def write_manifest(out_dir, cfg_hash, seed, outputs, **extra):
    manifest = {
        "config_hash": cfg_hash,
        "seed": int(seed),
        "version": __version__,
        "outputs": sorted(outputs),
        **extra,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def write_svg(path, xs, ys, title, xlabel, ylabel):
    """Minimal SVG 1.1 line plot: axes, polyline, labels.  No dependencies;
    figures are a convenience, the CSVs are the contract."""
    import numpy as np

    W, H = 640, 440
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[ok], ys[ok]
    if xs.size == 0:
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 0.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac_pos in (0.0, 0.5, 1.0):
        xv = x0 + frac_pos * (x1 - x0)
        yv = y0 + frac_pos * (y1 - y0)
        lines.append(
            f'<text x="{px(xv):.1f}" y="{H - mb + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        lines.append(
            f'<text x="{ml - 8}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    lines.append(
        f'<text x="{(ml + W - mr) / 2:.0f}" y="{H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    lines.append(
        f'<text x="16" y="{(mt + H - mb) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {(mt + H - mb) / 2:.0f})">{ylabel}</text>'
    )
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    raw = load_config(args.config)
    build_config(raw)  # every rule of every command that builds a config
    for name in ("(V1)", "(V2)", "(f2)", "kappa bound", "threshold a"):
        print(f"verified {name}")
    print(f"config-hash {config_hash(raw)}")
    return EXIT_PASS


def _kernel_checks(cfg):
    """(name, computed, expected, tolerance) rows for kernels.csv.

    Each check passes when |computed - expected| <= tolerance; the
    tolerances are absolute on the stated quantity.
    """
    import numpy as np

    from .extension import conormal_derivative, extend
    from .operator import Field, Grid, apply_operator, bessel_kernel, build_symbol, solve_resolvent
    from .specfun import kappa_s, sigma_s, theta_profile, theta_profile_deriv

    frac = cfg.frac
    s, m, N = frac.s, frac.m, frac.n_dim
    sig = sigma_s(s)
    checks = []

    # theta(r) = 1 - O(r^(2s)); probe where the correction is ~1e-8
    r0 = 1e-8 ** (1.0 / (2.0 * s))
    checks.append(("theta_at_zero", float(theta_profile(s, r0)), 1.0, 1e-6))
    checks.append(
        ("theta_half_exponential", float(theta_profile(0.5, 1.0)), float(np.exp(-1.0)), 1e-10)
    )

    # ODE residual theta'' + (1-2s)/y theta' = theta (profile with m = 1).
    # The second difference errs by O(h^2) truncation plus theta's rounding
    # times 1/h^2: at h = 1e-4 the residual reads about 1e-7 for s = 1/4,
    # 1/2 and 3/4, at 1e-5 rounding lifts it to 1e-5, and at 1e-3
    # truncation lifts it to 2e-5 for s = 1/4
    r = np.linspace(0.2, 6.0, 40)
    h = 1e-4
    th, th_plus, th_minus = theta_profile(s, np.concatenate((r, r + h, r - h))).reshape(3, -1)
    d2 = (th_plus - 2.0 * th + th_minus) / h**2
    resid = d2 + (1.0 - 2.0 * s) / r * theta_profile_deriv(s, r) - th
    checks.append(("theta_ode_residual", float(np.max(np.abs(resid))), 0.0, 1e-4))

    checks.append(("kappa_s_equals_sigma_s", float(kappa_s(s)), float(sig), 1e-6))

    # Poisson kernel mass: extension of a constant trace is theta(m y)
    grid = Grid(N, 64, 10.0)
    const = Field(grid=grid, values=np.ones(grid.shape))
    stack = extend(const, frac)
    expected = theta_profile(s, m * stack.y_levels).reshape((-1,) + (1,) * N)
    mass_err = float(np.max(np.abs(stack.slabs - expected)))
    checks.append(("poisson_kernel_mass", mass_err, 0.0, 1e-6))

    # conormal derivative of the extension reproduces sigma_s * A u; it
    # reads y = 0 and the four smallest positive levels alone
    table = build_symbol(grid, frac)
    bump = Field(grid=grid, values=np.exp(-grid.radii() ** 2))
    flux = conormal_derivative(extend(bump, frac, stack.y_levels[:5]), frac)
    target = sig * apply_operator(bump, table).values
    rel = float(
        np.sqrt(np.sum((flux.values - target) ** 2) / np.sum(target**2))
    )
    checks.append(("conormal_vs_operator", rel, 0.0, 1e-2))

    # resolvent round trip: A (A^{-1} mu) = mu
    mu = Field(grid=grid, values=np.cos(np.pi * grid.coords()[0] / grid.half_length))
    back = apply_operator(solve_resolvent(mu, table), table)
    checks.append(
        ("resolvent_round_trip", float(np.max(np.abs(back.values - mu.values))), 0.0, 1e-10)
    )

    # Green kernel positivity on (0, 6]
    rr = np.linspace(0.25, 6.0, 24)
    gmin = float(np.min(bessel_kernel(frac, rr)))
    checks.append(("green_kernel_min_positive", min(gmin, 0.0), 0.0, 0.0))

    return checks


def cmd_kernels(args) -> int:
    raw = load_config(args.config)
    cfg, _ = build_config(raw)
    cfg_hash = config_hash(raw)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    all_pass = True
    for name, computed, expected, tol in _kernel_checks(cfg):
        ok = abs(computed - expected) <= tol
        all_pass = all_pass and ok
        rows.append((name, computed, expected, tol, ok))
        print(f"{'pass' if ok else 'FAIL'} {name}: {computed:.6g} vs {expected:.6g}")
    path = os.path.join(args.out, "kernels.csv")
    write_csv(path, ("check", "computed", "expected", "tolerance", "pass"), rows, cfg_hash)
    write_manifest(args.out, cfg_hash, args.seed, [path])
    return EXIT_PASS if all_pass else EXIT_NUMERICAL


# CSV column -> solve_report key, where the two differ
_SWEEP_KEYS = {"max_outside_Lambda": "max_outside_lambda"}


def _columns(n_dim, before, after) -> tuple:
    """`before`, one argmax column per axis, `after`."""
    return before + tuple(f"argmax_{a}" for a in "xy"[:n_dim]) + after


def _select(row, columns, keys) -> tuple:
    """The values of `row` under `columns` (renamed by `keys`); nan where absent."""
    return tuple(row.get(keys.get(c, c), math.nan) for c in columns)


def cmd_solve(args) -> int:
    import numpy as np

    from .operator import Grid
    from .solver import ground_state, shell_envelope, solve_report

    raw = load_config(args.config)
    cfg, settings = build_config(raw)
    cfg_hash = config_hash(raw)
    os.makedirs(args.out, exist_ok=True)
    grid = Grid(cfg.frac.n_dim, settings.points_per_dim, settings.half_length)
    res = ground_state(cfg, grid, tolerances=settings.tolerances)
    report = solve_report(res, cfg)

    outputs = []
    sol_path = os.path.join(args.out, "solution.csv")
    write_field_csv(sol_path, grid, res.field.values, cfg_hash)
    outputs.append(sol_path)

    diag_header = _columns(
        grid.n_dim, ("energy", "c_star", "nehari_residual", "grad_residual"),
        ("sup_norm", "iterations", "converged",
         "max_outside_lambda", "a_threshold", "below_threshold",
         "decay_C1", "decay_C2", "decay_r_squared", "decay_bound_ok"),
    )
    diag_path = os.path.join(args.out, "diagnostics.csv")
    write_csv(diag_path, diag_header, [_select(report, diag_header, {})], cfg_hash)
    outputs.append(diag_path)

    radii, env = shell_envelope(res)
    ok = env > 0.0
    svg_path = os.path.join(args.out, "profile.svg")
    write_svg(svg_path, radii[ok], np.log10(env[ok]), "radial profile",
              "r = |x - argmax|", "log10 shell max of u")
    outputs.append(svg_path)

    outputs.append(write_manifest(
        args.out, cfg_hash, args.seed, outputs, wells_descended=list(res.wells_descended),
        even_axes=[list(axes) for axes, _ in res.descents],
        full_grid_continued=[continued for _, continued in res.descents]))
    status = "converged" if res.converged else "NOT CONVERGED"
    print(f"{status}: energy {res.energy:.10g}, c_star {report['c_star']:.10g}, "
          f"iterations {res.iterations}")
    return EXIT_PASS if res.converged else EXIT_NUMERICAL


def cmd_sweep(args) -> int:
    from .operator import Grid
    from .solver import autonomous_ground_state, concentration_sweep

    raw = load_config(args.config)
    # an --eps list stands in for sweep.eps, passes the same checks and is hashed
    if args.eps:
        raw = {**raw, "sweep.eps": tuple(args.eps)}
    cfg_hash = config_hash(raw)
    cfg, settings = build_config(raw)
    if args.jobs < 0:
        print("--jobs must be 0 (one per core) or positive", file=sys.stderr)
        return EXIT_INVALID
    os.makedirs(args.out, exist_ok=True)

    # eps-independent reference level d at constant potential -V0
    d_grid = Grid(cfg.frac.n_dim, *autonomous_box(cfg, settings))
    d_res = autonomous_ground_state(cfg, d_grid, tolerances=settings.tolerances)

    rows = concentration_sweep(
        cfg, settings.sweep_eps, points_per_dim=settings.sweep_points_per_dim,
        tolerances=settings.tolerances, jobs=args.jobs or cores(),
    )
    header = _columns(
        cfg.frac.n_dim, ("eps", "energy", "c_star", "d_V0_estimate"),
        ("dist_to_M_rescaled", "decay_C2", "max_outside_Lambda", "a_threshold", "converged"),
    )
    for row in rows:
        row["d_V0_estimate"] = d_res.energy
        if row["error"]:
            print(f"eps {row['eps']}: FAILED ({row['error']})")
        else:
            print(f"eps {row['eps']}: energy {row['energy']:.8g}, "
                  f"dist_to_M(rescaled) {row['dist_to_M_rescaled']:.4g}")
    path = os.path.join(args.out, "sweep.csv")
    write_csv(path, header, [_select(r, header, _SWEEP_KEYS) for r in rows], cfg_hash)
    outputs = [path]
    svg_path = os.path.join(args.out, "concentration.svg")
    write_svg(
        svg_path,
        [r["eps"] for r in rows], [r.get("dist_to_M_rescaled", math.nan) for r in rows],
        "concentration at the wells", "eps", "dist(eps x_max, M)",
    )
    outputs.append(svg_path)
    outputs.append(write_manifest(args.out, cfg_hash, args.seed, outputs,
                                  eps=list(settings.sweep_eps)))
    any_fail = not all(r["converged"] for r in rows)
    return EXIT_NUMERICAL if any_fail else EXIT_PASS


def cmd_sstar(args) -> int:
    from .operator import estimate_s_star

    raw = load_config(args.config)
    cfg, _ = build_config(raw)
    cfg_hash = config_hash(raw)
    os.makedirs(args.out, exist_ok=True)
    out = estimate_s_star(cfg.frac)
    formula = out["formula"]
    rows = [
        (rho, q, formula) for rho, q in zip(out["rho_values"], out["quotients"])
    ]
    path = os.path.join(args.out, "sstar.csv")
    write_csv(path, ("rho", "rayleigh_quotient", "formula_value"), rows, cfg_hash)
    write_manifest(args.out, cfg_hash, args.seed, [path])
    rel = abs(out["estimate"] - formula) / formula
    print(f"estimate {out['estimate']:.10g}, formula {formula:.10g}, "
          f"relative error {rel:.3g}")
    return EXIT_PASS if rel < 0.05 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frns",
        description="Ground states and kernel diagnostics for (-Delta + m^2)^s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs in (
        ("validate", cmd_validate, ()),
        ("kernels", cmd_kernels, ("out",)),
        ("solve", cmd_solve, ("out",)),
        ("sweep", cmd_sweep, ("out", "eps", "jobs")),
        ("sstar", cmd_sstar, ("out",)),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        if "out" in needs:
            p.add_argument("--out", default="out", metavar="DIR")
        if "eps" in needs:
            p.add_argument("--eps", type=float, nargs="+", default=None, metavar="LIST")
        if "jobs" in needs:
            p.add_argument("--jobs", type=int, default=0, metavar="N")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # glibc's malloc (mallopt(3)) maps each block above its mmap threshold
    # afresh, trims the heap top beyond twice that threshold, and raises
    # the threshold to the size of any mapped block that is freed.  From
    # its start value, 128 KiB, the grid-sized temporaries of the solver
    # are paged in again on nearly every allocation (about 1,500 minor
    # faults per warm 2D solve, against a handful after this); freeing one
    # 8 MiB block raises the threshold above the fields and half spectra of
    # every grid up to 512^2 points.  validate builds no arrays and runs
    # without numpy.
    if args.fn is not cmd_validate:
        import numpy as np

        np.empty(1 << 20)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AssumptionError, DomainError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ArithmeticError, RuntimeError, NoPositivePartError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # an unreadable config is a ConfigError: a file named here is --out's
        if exc.filename is None:
            raise
        print(f"cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
