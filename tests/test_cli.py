"""CLI layer: config parsing, exit codes, artifact emission, determinism."""

import contextlib
import csv
import io
import json
import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frns.cli as cli
import frns.solver as solver
import frns.specfun as specfun
from frns.operator import Grid
from frns.params import AssumptionError, DomainError, autonomous_box
from frns.cli import (
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_PARSE,
    EXIT_PASS,
    build_config,
    config_hash,
    load_config,
    main,
)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG_2D = os.path.join(REPO, "configs", "double_well_2d.cfg")
CFG_1D = os.path.join(REPO, "configs", "single_well_1d.cfg")


def write_cfg(tmp_path, text, name="test.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    with open(path, newline="") as f:
        first = f.readline()
        assert first.startswith("# config-hash: ")
        return list(csv.reader(f))


# Runs the CLI with the given arguments (none: import only) in a fresh
# interpreter and prints the exit code and the numpy, scipy and frns.*
# modules then loaded.
MODULE_PROBE = """
import sys
import frns.cli
rc = frns.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(rc, *sorted(m for m in sys.modules
                  if m in ("numpy", "scipy") or m.startswith(("scipy.", "frns."))))
"""

# the modules each command may load, beyond the standard library: validate
# checks scalar inequalities only, sstar needs the even-block transform and
# kernels the extension, but neither runs the solver
BASE = {"frns.cli", "frns.params"}
ARRAYS = BASE | {"numpy", "frns.specfun", "frns.operator"}
MODULE_BUDGET = {
    "import": BASE,
    "validate": BASE,
    "sstar": ARRAYS,
    "kernels": ARRAYS | {"frns.extension"},
    "solve": ARRAYS | {"frns.model", "frns.solver"},
}


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """command -> (exit code, loaded modules) of each command of
    MODULE_BUDGET in a fresh interpreter."""
    tmp = tmp_path_factory.mktemp("probe")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = {}
    for command in MODULE_BUDGET:
        argv = [command, "--config", CFG_1D]
        if command == "solve":
            text = open(CFG_2D).read().replace(
                "grid.points_per_dim = 128", "grid.points_per_dim = 64")
            argv = [command, "--config", write_cfg(tmp, text)]
        if command not in ("import", "validate"):
            argv += ["--out", str(tmp / command)]
        run = subprocess.run([sys.executable, "-c", MODULE_PROBE,
                              *(argv if command != "import" else [])],
                             env=env, check=True, capture_output=True, text=True, timeout=120)
        rc, *loaded = run.stdout.splitlines()[-1].split()
        out[command] = int(rc), set(loaded)
    return out


class TestScipyStaysUnloaded:
    # importing scipy.special and .integrate costs about 0.6 s, and no
    # command needs scipy: K_nu and the kappa_s rule are in specfun

    def test_import_loads_no_scipy(self, probes):
        rc, loaded = probes["import"]
        assert rc == EXIT_PASS
        assert not any(m.startswith("scipy") for m in loaded)

    @pytest.mark.parametrize("command", ["validate", "sstar", "solve", "kernels"])
    def test_command_loads_no_scipy(self, command, probes):
        rc, loaded = probes[command]
        assert rc == EXIT_PASS
        assert not any(m.startswith("scipy") for m in loaded)


class TestModuleBudget:
    # a fresh process pays for every module it imports: numpy alone takes
    # about 90 ms, and solver.py, which kernels and sstar never call, is
    # the largest module of the package

    @pytest.mark.parametrize("command", sorted(MODULE_BUDGET))
    def test_command_loads_only_its_layers(self, command, probes):
        rc, loaded = probes[command]
        assert rc == EXIT_PASS
        assert loaded == MODULE_BUDGET[command]


MALLOC_PROBE = """
import resource, sys
import frns.cli
argv = ["solve", "--config", sys.argv[1], "--out", sys.argv[2]]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert frns.cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_warm_solve_reuses_the_heap(tmp_path):
    # main frees one 8 MiB block before a command that builds arrays, which
    # lifts glibc's mmap threshold above the solver's temporaries; a second
    # 2D solve in the same process then takes a few minor page faults
    # (about 1,500 without the step, 2 with it on the 2D config)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", MALLOC_PROBE, CFG_2D, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert int(out.stdout.splitlines()[-1]) < 500


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for path in (CFG_2D, CFG_1D):
            raw = load_config(path)
            cfg, settings = build_config(raw)
            assert cfg.eps > 0
            assert settings.points_per_dim >= 32

    def test_unknown_key_rejected(self, tmp_path):
        # sweep.jobs and solver.restarts were keys once; --jobs sets the
        # pool size, and a solve starts once per well
        for line in ("nope = 1", "sweep.jobs = 2", "solver.restarts = 1"):
            p = write_cfg(tmp_path, f"frac.s = 0.5\n{line}\n")
            with pytest.raises(cli.ConfigError, match="unknown key"):
                load_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "frac.s = 0.5\nfrac.s = 0.5\n")
        with pytest.raises(cli.ConfigError):
            load_config(p)

    def test_missing_required_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "frac.s = 0.5\n")
        with pytest.raises(cli.ConfigError):
            load_config(p)

    def test_bad_number_rejected(self, tmp_path):
        base = open(CFG_2D).read().replace("frac.s = 0.5", "frac.s = half")
        p = write_cfg(tmp_path, base)
        with pytest.raises(cli.ConfigError):
            load_config(p)

    def test_hash_ignores_comments_and_order(self, tmp_path):
        raw1 = load_config(CFG_2D)
        lines = [
            line for line in open(CFG_2D).read().splitlines()
            if line.split("#", 1)[0].strip()
        ]
        p = write_cfg(tmp_path, "# rearranged\n" + "\n".join(reversed(lines)) + "\n")
        raw2 = load_config(p)
        assert config_hash(raw1) == config_hash(raw2)

    def test_hash_ignores_new_optional_schema_key(self, monkeypatch):
        # only the keys a file sets are hashed, so a schema that grows an
        # optional key keeps the hash of an unchanged config
        before = config_hash(load_config(CFG_2D))
        monkeypatch.setitem(cli._SCHEMA, "solver.new_option", ("int", False, 7))
        raw = load_config(CFG_2D)
        assert config_hash(raw) == before
        build_config(raw)


class TestExitCodes:
    def test_validate_shipped_config(self, capsys):
        assert main(["validate", "--config", CFG_2D]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in ("(V1)", "(V2)", "(f2)", "kappa bound", "threshold a"):
            assert name in out

    def test_validate_v1_too_large(self, tmp_path, capsys):
        bad = open(CFG_2D).read().replace("potential.V1 = 0.2", "potential.V1 = 1.5")
        p = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", p]) == EXIT_INVALID
        assert "(V1)" in capsys.readouterr().err

    def test_validate_kappa_too_small(self, tmp_path, capsys):
        bad = open(CFG_2D).read().replace("pen.kappa = 10.0", "pen.kappa = 1.0")
        p = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", p]) == EXIT_INVALID
        assert "kappa" in capsys.readouterr().err

    def test_validate_ar_theta_above_p(self, tmp_path, capsys):
        # theta F(t) <= f(t) t fails for the pure power once theta > p = 3
        bad = open(CFG_2D).read().replace("nonlin.ar_theta = 3.0", "nonlin.ar_theta = 3.4")
        p = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", p]) == EXIT_INVALID
        assert "(f2)" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "what is this\n")
        assert main(["validate", "--config", p]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_sstar_rejects_inadmissible_dimension(self, tmp_path, capsys):
        bad = open(CFG_1D).read().replace("frac.s = 0.25", "frac.s = 0.6")
        p = write_cfg(tmp_path, bad)
        assert main(["sstar", "--config", p, "--out", str(tmp_path / "o")]) == EXIT_INVALID

    @pytest.mark.parametrize("line, bad", [
        ("eps = 0.25", "eps = inf"),
        ("frac.m = 1.0", "frac.m = inf"),
        ("frac.n_dim = 2", "frac.n_dim = inf"),
        ("sweep.eps = 0.5, 0.25, 0.1", "sweep.eps = 0.5, nan, 0.1"),
        ("potential.lambda_center = 0 0", "potential.lambda_center = 0 -inf"),
    ], ids=["eps", "frac.m", "int", "list", "point"])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, capsys, line, bad):
        text = open(CFG_2D).read()
        assert line in text
        p = write_cfg(tmp_path, text.replace(line, bad))
        assert main(["validate", "--config", p]) == EXIT_PARSE
        assert "not a finite number" in capsys.readouterr().err

    def test_far_lambda_center_is_invalid(self, tmp_path, capsys):
        # the wells are 1e308 from the centre of Lambda; squaring that
        # distance overflows, its math.dist does not
        text = open(CFG_2D).read().replace(
            "potential.lambda_center = 0 0", "potential.lambda_center = 1e308 0")
        p = write_cfg(tmp_path, text)
        assert main(["validate", "--config", p]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: (V2)")
        assert err.count("\n") == 1

    def test_huge_lambda_radius_is_invalid_without_warnings(self, tmp_path, capsys):
        # (V2) holds, but the box Lambda/eps + 8 that solve and sweep
        # would sample overflows
        text = open(CFG_2D).read().replace(
            "potential.lambda_radius = 2.5", "potential.lambda_radius = 1e308")
        p = write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", p]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: Lambda (centre (0.0, 0.0), radius 1e+308)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_mass_with_infinite_square_is_invalid(self, tmp_path, capsys, command):
        # m^2 tabulates the symbol; m = 1e300 passes m > 0 but m^2 overflows
        text = open(CFG_2D).read().replace("frac.m = 1.0", "frac.m = 1e300")
        argv = [command, "--config", write_cfg(tmp_path, text)]
        if command == "solve":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: m^2 must be a positive finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("half_length", ["1e-300", "1e308", "-5", "0"])
    def test_extreme_half_length_is_invalid(self, tmp_path, capsys, half_length):
        # h^N underflows to 0 and (pi/h)^2 overflows, or h itself is inf,
        # or the box has no positive length: rejected with the config
        p = write_cfg(tmp_path, open(CFG_2D).read() + f"grid.half_length = {half_length}\n")
        for command in ["validate", "solve"]:
            argv = [command, "--config", p]
            if command == "solve":
                argv += ["--out", str(tmp_path / "o")]
            assert main(argv) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith("invalid parameters:")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("max_iterations", ["-3", "0"])
    def test_max_iterations_below_one_is_invalid(self, tmp_path, capsys, command,
                                                 max_iterations):
        # a descent of no iterations would report NOT CONVERGED, exit 1
        text = open(CFG_2D).read() + f"solver.max_iterations = {max_iterations}\n"
        argv = [command, "--config", write_cfg(tmp_path, text)]
        if command == "solve":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: solver.max_iterations")
        assert err.count("\n") == 1

    def test_solve_with_empty_start_is_a_numerical_failure(self, tmp_path, capsys):
        # Lambda_eps of radius 0.04 about the one well, at (-4, 0), holds
        # no point of the 128^2 grid (h = 0.28125), so the start has no
        # positive part inside it and no Nehari scale
        text = open(CFG_2D).read().replace(
            "potential.lambda_radius = 2.5", "potential.lambda_radius = 0.01")
        text = text.replace("potential.lambda_center = 0 0", "potential.lambda_center = -1 0")
        text = text.replace("potential.M_points = -1 0; 1 0", "potential.M_points = -1 0")
        p = write_cfg(tmp_path, text + "grid.half_length = 18\n")
        assert main(["validate", "--config", p]) == EXIT_PASS
        code = main(["solve", "--config", p, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_kernels_near_s_one_is_a_numerical_failure(self, tmp_path, capsys):
        # the conormal ladder's order 2 - 2s is 2.2e-16: every ratio
        # (y_b/y_a)^p rounds to 1 and the extrapolation cancels nothing
        text = open(CFG_2D).read()
        assert "frac.s = 0.5" in text
        p = write_cfg(tmp_path, text.replace("frac.s = 0.5", "frac.s = 0.9999999999999999"))
        code = main(["kernels", "--config", p, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: degenerate Richardson ladder")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, well, center, eps", [
        # the well (-1, 0) at eps = 0.01 sits at x = -100, outside [-5, 5]^2
        ("solve", "-1 0", "0 0", "0.01"),
        # (1e200, 0) sits at 4e200, whose squared distances overflow on
        # the grid; the box of the configured eps is checked first
        ("solve", "1e200 0", "1e200 0", "0.25"),
        ("sweep", "1e200 0", "1e200 0", "0.25"),
    ])
    def test_well_outside_the_box_is_invalid(self, tmp_path, capsys, command, well, center, eps):
        # no array is built: no overflow warning, no output, exit 2, and
        # validate rejects the config with the same line
        text = open(CFG_2D).read().replace("potential.M_points = -1 0; 1 0",
                                           f"potential.M_points = {well}")
        text = text.replace("potential.lambda_center = 0 0", f"potential.lambda_center = {center}")
        p = write_cfg(tmp_path, text.replace("eps = 0.25", f"eps = {eps}")
                      + "grid.half_length = 5\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", p, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert err.startswith("invalid parameters:") and err.count("\n") == 1
        assert "well 0 at" in err and "outside the box [-5.0, 5.0]^2" in err
        assert not (out / "manifest.json").exists()
        assert main(["validate", "--config", p]) == EXIT_INVALID
        assert capsys.readouterr().err == err

    def test_unconverged_solve_is_a_numerical_failure(self, tmp_path, capsys):
        # grad_tol = 1e-16 is out of reach: the descent ends unconverged
        text = open(CFG_2D).read().replace(
            "grid.points_per_dim = 128", "grid.points_per_dim = 64")
        p = write_cfg(tmp_path, text + "solver.grad_tol = 1e-16\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", p, "--out", str(out)]) == EXIT_NUMERICAL
        assert "NOT CONVERGED" in capsys.readouterr().out
        rows = read_rows(os.path.join(out, "diagnostics.csv"))
        assert dict(zip(rows[0], rows[1]))["converged"] == "false"

    def test_sweep_needs_three_eps(self, tmp_path, capsys):
        code = main([
            "sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"),
            "--eps", "0.5", "0.25",
        ])
        assert code == EXIT_INVALID
        assert "sweep.eps needs at least 3 positive finite values" in capsys.readouterr().err

    def test_sweep_rejects_non_finite_eps(self, tmp_path, capsys):
        code = main([
            "sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"),
            "--eps", "0.5", "nan", "0.1",
        ])
        assert code == EXIT_INVALID
        assert "sweep.eps needs at least 3 positive finite values" in capsys.readouterr().err

    def test_sweep_rejects_negative_jobs(self, tmp_path, capsys):
        code = main(["sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"), "--jobs", "-1"])
        assert code == EXIT_INVALID
        assert "--jobs" in capsys.readouterr().err


# Changes to the shipped 2D config that `validate` once accepted and a
# later command rejected: (replaced lines, appended text, part of the one
# error line)
GATE_CASES = {
    "points_per_dim_30": ({"grid.points_per_dim = 128": "grid.points_per_dim = 30"}, "",
                          "points_per_dim must be a power of two >= 32, got 30"),
    "half_length_1e-300": ({"grid.points_per_dim = 128": "grid.points_per_dim = 64"},
                           "grid.half_length = 1e-300\n", "half_length 1e-300: need h = 2L/n > 0"),
    # a descent that can never converge: solve ran to "NOT CONVERGED", exit 1
    "grad_tol_0": ({}, "solver.grad_tol = 0\n", "solver.grad_tol must be positive, got 0.0"),
    "grad_tol_-1": ({}, "solver.grad_tol = -1\n", "solver.grad_tol must be positive, got -1.0"),
    "n_dim_3": ({"frac.n_dim = 2": "frac.n_dim = 3",
                 "potential.M_points = -1 0; 1 0": "potential.M_points = -1 0 0; 1 0 0",
                 "potential.lambda_center = 0 0": "potential.lambda_center = 0 0 0",
                 "nonlin.p = 3.0": "nonlin.p = 2.5", "nonlin.ar_theta = 3.0": "nonlin.ar_theta = 2.5",
                 "nonlin.q = 3.5": "nonlin.q = 2.8"}, "", "n_dim must be 1 or 2, got 3"),
    "sweep_points_per_dim_48": ({"sweep.points_per_dim = 256": "sweep.points_per_dim = 48"}, "",
                                "points_per_dim must be a power of two >= 32, got 48"),
    "sweep_eps_negative": ({"sweep.eps = 0.5, 0.25, 0.1": "sweep.eps = 0.5, -0.25, 0.1"}, "",
                           "sweep.eps needs at least 3 positive finite values"),
    "sweep_eps_two": ({"sweep.eps = 0.5, 0.25, 0.1": "sweep.eps = 0.5, 0.25"}, "",
                      "sweep.eps needs at least 3 positive finite values"),
    # the squared centre overflows: the message names Lambda, not a box of inf
    "wells_at_1e200": ({"potential.M_points = -1 0; 1 0": "potential.M_points = 1e200 0",
                        "potential.lambda_center = 0 0": "potential.lambda_center = 1e200 0"},
                       "", "Lambda (centre (1e+200, 0.0), radius 2.5)"),
}


class TestOneGate:
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_every_command_rejects_what_validate_rejects(self, tmp_path, capsys, case):
        # each command stops at the config, before any array or output
        replaced, appended, message = GATE_CASES[case]
        text = open(CFG_2D).read()
        for old, new in replaced.items():
            assert old in text
            text = text.replace(old, new)
        p = write_cfg(tmp_path, text + appended)
        errors = {}
        for command in ("validate", "solve", "sweep", "kernels"):
            out = tmp_path / command
            argv = ["--config", p] + (["--out", str(out)] if command != "validate" else [])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command] + argv) == EXIT_INVALID, command
            errors[command] = capsys.readouterr().err
            assert not out.exists()
        err = errors.pop("validate")
        assert err.startswith("invalid parameters: ") and err.count("\n") == 1
        assert message in err
        assert errors == dict.fromkeys(errors, err)


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ("a", True, 3, float("nan"), np.bool_(False)),
            ("b", False, np.int64(-7), -0.0, np.True_),
            ("c", True, 12, np.float64(1e-300), False),
            ("d", False, 0, 0.1, True),
        ]
        cli.write_csv(path, ("name", "flag", "count", "value", "np_flag"), rows, "abc")
        assert path.read_bytes() == (
            b"# config-hash: abc\r\n"
            b"name,flag,count,value,np_flag\r\n"
            b"a,true,3,nan,false\r\n"
            b"b,false,-7,-0,true\r\n"
            b"c,true,12,1e-300,false\r\n"
            b"d,false,0,0.10000000000000001,true\r\n"
        )

    def test_no_rows_writes_header(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ("x", "u"), iter(()), "abc")
        assert path.read_bytes() == b"# config-hash: abc\r\nx,u\r\n"

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_field_csv_matches_row_writer(self, tmp_path, monkeypatch, n_dim):
        # solution.csv's writer gives the bytes of write_csv on the rows
        # (coordinates..., u) of every grid point in row-major order: on
        # a random field and on one even along its last axis about the
        # grid centre (index i bit for bit index n - i), which takes the
        # mirrored text; one ulp off even, or a signed zero facing an
        # unsigned one, takes the general path
        grid = Grid(n_dim, 32, 3.7)
        rng = np.random.default_rng(n_dim)
        u = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
        u.flat[:4] = (0.0, -0.0, 5e-324, 0.1)
        half = u[..., 15:].copy()  # 17 values per row
        half[..., :6] = (0.0, -0.0, 5e-324, 1e300, 1e-300, -1e300)
        even = grid.unfold(half, [n_dim - 1])
        off = even.copy()
        off[..., 3] = np.nextafter(off[..., 3], np.inf)
        zeros = even.copy()
        zeros[..., 1], zeros[..., 31] = -0.0, 0.0
        header = ("x", "y")[:n_dim] + ("u",)
        taken, real = [], cli._exactly_even
        monkeypatch.setattr(cli, "_exactly_even", lambda rows: taken.append(real(rows)) or taken[-1])
        for field in (u, even, off, zeros):
            rows = zip(*(c.ravel() for c in grid.coords()), field.ravel())
            cli.write_csv(tmp_path / "rows.csv", header, rows, "abc")
            cli.write_field_csv(tmp_path / "field.csv", grid, field, "abc")
            assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert taken == [False, True, False, False]


class TestKernels:
    def test_kernels_pass_and_emit_csv(self, tmp_path, capsys):
        out = str(tmp_path / "k")
        assert main(["kernels", "--config", CFG_2D, "--out", out]) == EXIT_PASS
        rows = read_rows(os.path.join(out, "kernels.csv"))
        header, body = rows[0], rows[1:]
        assert header == ["check", "computed", "expected", "tolerance", "pass"]
        assert len(body) >= 6
        assert all(r[-1] == "true" for r in body)

    def test_corrupted_sigma_fails(self, tmp_path, monkeypatch):
        # _kernel_checks imports sigma_s from specfun when it runs
        monkeypatch.setattr(specfun, "sigma_s", lambda s: 0.5)
        out = str(tmp_path / "k")
        assert main(["kernels", "--config", CFG_2D, "--out", out]) == EXIT_NUMERICAL


@pytest.fixture(scope="module")
def solve_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("solve"))
    code = main(["solve", "--config", CFG_2D, "--out", out, "--seed", "0"])
    return code, out


class TestSolve:
    def test_exit_and_artifacts(self, solve_out):
        code, out = solve_out
        assert code == EXIT_PASS
        for name in ("solution.csv", "diagnostics.csv", "profile.svg", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_diagnostics_content(self, solve_out):
        _, out = solve_out
        rows = read_rows(os.path.join(out, "diagnostics.csv"))
        rec = dict(zip(rows[0], rows[1]))
        assert rec["converged"] == "true"
        assert 0.0 < float(rec["energy"]) < float(rec["c_star"])
        assert float(rec["nehari_residual"]) <= 1e-10
        assert rec["below_threshold"] == "true"

    def test_solution_rows_cover_grid(self, solve_out):
        _, out = solve_out
        rows = read_rows(os.path.join(out, "solution.csv"))
        assert rows[0] == ["x", "y", "u"]
        assert len(rows) - 1 == 128 * 128

    def test_manifest_fields(self, solve_out):
        _, out = solve_out
        with open(os.path.join(out, "manifest.json")) as f:
            man = json.load(f)
        assert set(man) == {"config_hash", "seed", "version", "outputs", "wells_descended",
                            "even_axes", "full_grid_continued"}
        assert man["seed"] == 0
        # the mirror well (1, 0) shares the descent from (-1, 0), which
        # runs on the block even in y and needs no full-grid continuation
        assert man["wells_descended"] == [0]
        assert man["even_axes"] == [[1]]
        assert man["full_grid_continued"] == [False]
        assert len(man["config_hash"]) == 64

    def test_determinism_bit_identical(self, solve_out, tmp_path):
        _, out1 = solve_out
        out2 = str(tmp_path / "again")
        assert main(["solve", "--config", CFG_2D, "--out", out2, "--seed", "0"]) == EXIT_PASS
        for name in ("solution.csv", "diagnostics.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_svg_is_wellformed(self, solve_out):
        import xml.etree.ElementTree as ET

        _, out = solve_out
        root = ET.parse(os.path.join(out, "profile.svg")).getroot()
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"


def small_cfg(tmp_path, points):
    """The 2D config on a points^2 grid for solve and sweep."""
    text = open(CFG_2D).read()
    for key, default in (("grid.points_per_dim", 128), ("sweep.points_per_dim", 256)):
        text = text.replace(f"{key} = {default}", f"{key} = {points}")
    return write_cfg(tmp_path, text, name=f"c{points}.cfg")


def read_table(path):
    """(header, rows as dicts of strings) of a CSV written by the CLI."""
    header, *body = read_rows(path)
    return header, [dict(zip(header, r)) for r in body]


SWEEP_HEADER = [
    "eps", "energy", "c_star", "d_V0_estimate", "argmax_x", "argmax_y",
    "dist_to_M_rescaled", "decay_C2", "max_outside_Lambda", "a_threshold", "converged",
]


class TestSweep:
    def run(self, tmp_path, cfg_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--config", cfg_path, "--out", out, "--jobs", "1"])
        return code, read_table(os.path.join(out, "sweep.csv"))

    def test_sweep_csv_matches_concentration_sweep(self, tmp_path):
        path = small_cfg(tmp_path, 32)
        code, (header, rows) = self.run(tmp_path, path)
        assert code == EXIT_PASS
        assert header == SWEEP_HEADER
        assert len(rows) == 3
        cfg, settings = build_config(load_config(path))
        expected = solver.concentration_sweep(
            cfg, settings.sweep_eps, points_per_dim=32,
            tolerances=settings.tolerances,
        )
        assert [float(r["dist_to_M_rescaled"]) for r in rows] == [
            r["dist_to_M_rescaled"] for r in expected
        ]
        assert all(r["converged"] == "true" for r in rows)

    def test_failed_solve_writes_nan_row(self, tmp_path, monkeypatch, capsys):
        real = solver.ground_state

        def no_bracket_at_quarter(cfg, *args, **kwargs):
            if cfg.eps == 0.25:
                raise solver.NoBracketError("no Nehari bracket")
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(solver, "ground_state", no_bracket_at_quarter)
        code, (header, rows) = self.run(tmp_path, small_cfg(tmp_path, 32))
        assert code == EXIT_NUMERICAL
        assert "eps 0.25: FAILED (NoBracketError: no Nehari bracket)" in capsys.readouterr().out
        assert len(rows) == 3
        failed = rows[1]
        assert (failed["eps"], failed["converged"]) == ("0.25", "false")
        assert float(failed["d_V0_estimate"]) == float(rows[0]["d_V0_estimate"]) > 0.0
        assert all(failed[c] == "nan"
                   for c in header if c not in ("eps", "d_V0_estimate", "converged"))
        assert rows[0]["converged"] == rows[2]["converged"] == "true"

    def test_decay_linalg_error_gives_nan_decay(self, tmp_path, monkeypatch):
        def singular(result):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(solver, "decay_fit", singular)
        out = str(tmp_path / "solve")
        assert main(["solve", "--config", small_cfg(tmp_path, 64), "--out", out]) == EXIT_PASS
        _, (diag,) = read_table(os.path.join(out, "diagnostics.csv"))
        assert [diag[c] for c in ("decay_C1", "decay_C2", "decay_r_squared")] == ["nan"] * 3
        assert diag["decay_bound_ok"] == "false"
        assert diag["converged"] == "true"

        code, (_, rows) = self.run(tmp_path, small_cfg(tmp_path, 32))
        assert code == EXIT_PASS
        assert [r["decay_C2"] for r in rows] == ["nan"] * 3
        assert all(r["energy"] != "nan" for r in rows)


# ---------------------------------------------------------------------------
# properties of the config parser, which runs on the standard library alone
# (module-level functions: hypothesis's differing_executors health check
# fails @given methods of a parametrized class)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POINT = st.lists(FINITE, min_size=1, max_size=3).map(tuple)
KIND_VALUES = {
    "float": FINITE,
    "int": st.integers(-(2**53), 2**53),  # read through float, exact up to 2^53
    "point": POINT,
    "float_list": st.lists(FINITE, min_size=1, max_size=4).map(tuple),
    "point_list": st.lists(POINT, min_size=1, max_size=3).map(tuple),
}
CONFIG_VALUES = st.fixed_dictionaries(
    {key: KIND_VALUES[kind] for key, (kind, _, _) in cli._SCHEMA.items()})
# comment text: anything but control characters, which include the line breaks
COMMENT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)
SHIPPED_LINES = [line for line in open(CFG_2D).read().splitlines()
                 if line.split("#", 1)[0].strip()]


def format_value(kind, value) -> str:
    """The config text of `value`, every number written with repr."""
    if kind in ("float", "int"):
        return repr(value)
    if kind == "point":
        return " ".join(map(repr, value))
    if kind == "float_list":
        return ", ".join(map(repr, value))
    return "; ".join(" ".join(map(repr, p)) for p in value)


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(max_examples=60, deadline=None)
@given(values=CONFIG_VALUES)
def test_load_config_reads_back_every_kind(values, cfg_dir):
    text = "".join(f"{key} = {format_value(cli._SCHEMA[key][0], v)}\n"
                   for key, v in values.items())
    raw = load_config(write_cfg(cfg_dir, text))
    # repr tells -0.0 from 0.0 and an int from a float
    assert {k: repr(v) for k, v in raw.items()} == {k: repr(v) for k, v in values.items()}


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(SHIPPED_LINES), data=st.data())
def test_hash_ignores_order_comments_and_blank_lines(order, data, cfg_dir):
    fillers = st.sampled_from(["", "  "]) | COMMENT.map(lambda c: "#" + c)
    lines = []
    for line in order:
        key, _, value = line.partition("=")
        lines += data.draw(st.lists(fillers, max_size=2))
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        tail = data.draw(st.none() | COMMENT.map(lambda c: " #" + c))
        lines.append(f"{pad}{key.strip()}{pad}={pad}{value.strip()}{tail or ''}")
    raw = load_config(write_cfg(cfg_dir, "\n".join(lines) + "\n"))
    assert config_hash(raw) == config_hash(load_config(CFG_2D))


@settings(max_examples=60, deadline=None)
@given(line=st.sampled_from(SHIPPED_LINES), data=st.data(),
       bad=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400"]))
def test_non_finite_number_is_a_parse_error_on_its_line(line, data, bad, cfg_dir):
    text = open(CFG_2D).read().splitlines()
    line_no = text.index(line) + 1
    key, _, value = line.partition("=")
    numbers = list(re.finditer(r"[^\s,;]+", value))
    hit = data.draw(st.sampled_from(numbers))
    text[line_no - 1] = f"{key}={value[:hit.start()]}{bad}{value[hit.end():]}"
    path = write_cfg(cfg_dir, "\n".join(text) + "\n")
    with pytest.raises(cli.ConfigError, match="not a finite number") as exc:
        load_config(path)
    assert exc.value.line_no == line_no
    assert main(["validate", "--config", path]) == EXIT_PARSE


# the numeric keys of the schema, and values at the edges of the rules:
# zero, negatives, the float extremes, non-powers of two and the grid cap.
# A half-length of 1 leaves the 2D wells outside the box; m = 1e154 passes
# every rule but the (pi/h)^2 of the d_V0 grid of sweep.  An int key reads
# an integral float as an int and any other as a parse error.
SCALAR_KEYS = sorted(key for key, (kind, _, _) in cli._SCHEMA.items() if kind in ("float", "int"))
EDGE_VALUES = [0.0, -0.0, -1.0, 1.0, 3.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1e154,
               -64, 30, 48, 100, 4096, 2**22, 2**23]


def run_main(argv):
    """(exit code, stderr) of `main(argv)`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def with_edge_examples(test):
    for value in EDGE_VALUES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("key", SCALAR_KEYS)
@settings(max_examples=15, deadline=None)
@given(value=st.sampled_from(EDGE_VALUES) | st.integers(-(2**40), 2**40) | FINITE)
@with_edge_examples
def test_validate_exits_as_building_the_config_and_its_grids(key, value, cfg_dir):
    # each shipped config with `key` set to `value`; never solves: a valid
    # config only builds its grids, which hold no arrays
    for path in (CFG_1D, CFG_2D):
        lines = [line for line in open(path).read().splitlines()
                 if line.partition("=")[0].strip() != key]
        cfg_path = write_cfg(cfg_dir, "\n".join(lines + [f"{key} = {value!r}"]) + "\n")
        code, err = run_main(["validate", "--config", cfg_path])
        try:
            cfg, settings = build_config(load_config(cfg_path))
            n_dim = cfg.frac.n_dim
            boxes = [(cfg.eps, Grid(n_dim, settings.points_per_dim, settings.half_length))]
            boxes += [(e, solver.grid_for_eps(cfg, e, settings.sweep_points_per_dim))
                      for e in settings.sweep_eps]
            Grid(n_dim, *autonomous_box(cfg, settings))
            built = EXIT_PASS
        except cli.ConfigError:
            built = EXIT_PARSE
        except (AssumptionError, DomainError):
            built = EXIT_INVALID
        except (ArithmeticError, RuntimeError):
            built = EXIT_NUMERICAL
        assert code == built
        if code == EXIT_PASS:
            # what the commands would run on: every well in every box, a
            # reachable stopping rule and a sweep of at least 3 eps
            assert all(abs(c / eps) <= grid.half_length for eps, grid in boxes
                       for point in cfg.potential.M_points for c in point)
            assert settings.tolerances.grad > 0.0 and settings.tolerances.max_iterations >= 1
            assert len(settings.sweep_eps) >= 3
        else:
            out = os.path.join(cfg_dir, "never")
            for command in ("solve", "sweep", "kernels"):
                assert run_main([command, "--config", cfg_path, "--out", out]) == (code, err)
            assert not os.path.exists(out)
