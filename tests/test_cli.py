"""CLI layer: config parsing, exit codes, artifact emission, determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

import frns.cli as cli
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


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs 40-60 ms to import; only kappa_s and the
    # singular-integral check use it, and they import it themselves
    code = "import sys, frns.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for path in (CFG_2D, CFG_1D):
            raw = load_config(path)
            cfg, settings = build_config(raw)
            assert cfg.eps > 0
            assert settings.points_per_dim >= 32

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "frac.s = 0.5\nnope = 1\n")
        with pytest.raises(cli.ConfigError):
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
        assert set(man) == {"config_hash", "seed", "version", "outputs"}
        assert man["seed"] == 0
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
