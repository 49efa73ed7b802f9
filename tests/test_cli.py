"""CLI layer: config parsing, exit codes, artifact emission, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import frns.cli as cli
import frns.solver as solver
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
# interpreter and prints the exit code and the scipy modules then loaded.
SCIPY_PROBE = """
import sys
import frns.cli
rc = frns.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(rc, *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def run_scipy_probe(*argv):
    """(exit code, loaded scipy modules) of `frns *argv` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    rc, *loaded = out.stdout.splitlines()[-1].split()
    return int(rc), loaded


class TestScipyStaysUnloaded:
    # importing scipy.fft, .special or .optimize costs about 0.6 s; only
    # `kernels` (Bessel K and quadrature) imports scipy, inside specfun

    def test_import_loads_no_scipy(self):
        assert run_scipy_probe() == (EXIT_PASS, [])

    @pytest.mark.parametrize("command", ["validate", "sstar", "solve"])
    def test_command_loads_no_scipy(self, command, tmp_path):
        argv = [command, "--config", CFG_1D]
        if command == "solve":
            text = open(CFG_2D).read().replace(
                "grid.points_per_dim = 128", "grid.points_per_dim = 64")
            argv = [command, "--config", write_cfg(tmp_path, text)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        assert run_scipy_probe(*argv) == (EXIT_PASS, [])

    def test_kernels_passes_with_scipy(self, tmp_path):
        rc, loaded = run_scipy_probe(
            "kernels", "--config", CFG_1D, "--out", str(tmp_path / "out"))
        assert rc == EXIT_PASS
        assert {"scipy.special", "scipy.integrate"} <= set(loaded)


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

    @pytest.mark.parametrize("half_length", ["1e-300", "1e308"])
    def test_extreme_half_length_is_invalid(self, tmp_path, capsys, half_length):
        # h^N underflows to 0 and (pi/h)^2 overflows, or h itself is inf
        p = write_cfg(tmp_path, open(CFG_2D).read() + f"grid.half_length = {half_length}\n")
        assert main(["solve", "--config", p, "--out", str(tmp_path / "o")]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters:")
        assert err.count("\n") == 1

    def test_solve_with_empty_start_is_a_numerical_failure(self, tmp_path, capsys):
        # at eps = 0.01 the well sits at x = -100, so on [-5, 5)^2 the
        # starting bump underflows to zero and has no Nehari scale
        text = open(CFG_2D).read().replace("eps = 0.25", "eps = 0.01")
        p = write_cfg(tmp_path, text + "grid.half_length = 5\n")
        assert main(["validate", "--config", p]) == EXIT_PASS
        code = main(["solve", "--config", p, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err
        assert err.count("\n") == 1

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

    def test_sweep_needs_three_eps(self, tmp_path):
        code = main([
            "sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"),
            "--eps", "0.5", "0.25",
        ])
        assert code == EXIT_INVALID

    def test_sweep_rejects_non_finite_eps(self, tmp_path):
        code = main([
            "sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"),
            "--eps", "0.5", "nan", "0.1",
        ])
        assert code == EXIT_INVALID

    def test_sweep_rejects_negative_jobs(self, tmp_path, capsys):
        code = main(["sweep", "--config", CFG_2D, "--out", str(tmp_path / "o"), "--jobs", "-1"])
        assert code == EXIT_INVALID
        assert "--jobs" in capsys.readouterr().err


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
        monkeypatch.setattr(cli, "sigma_s", lambda s: 0.5)
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
        assert set(man) == {"config_hash", "seed", "version", "outputs", "wells_descended"}
        assert man["seed"] == 0
        # the mirror well (1, 0) shares the descent from (-1, 0)
        assert man["wells_descended"] == [0]
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
