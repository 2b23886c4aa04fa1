import json
import os
import subprocess
import sys

import pytest

import freewave
from freewave import cli


def test_speed_logistic(capsys):
    assert cli.main(["speed", "--reaction", "logistic"]) == 0
    out = capsys.readouterr().out
    assert "c_star_decreasing = 2.000" in out or "c_star_decreasing = 1.999" in out


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["speed", "--nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_bad_reaction_exits_3(capsys):
    assert cli.main(["speed", "--reaction", "quintic"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_bad_reaction_parameter_exits_3(capsys):
    assert cli.main(["speed", "--reaction", "cubic:abc"]) == 3
    assert cli.main(["speed", "--reaction", "cubic:0.5"]) == 3
    assert cli.main(["speed", "--reaction", "poly:0.1,1,-1"]) == 3
    capsys.readouterr()


def test_missing_required_exits_3(capsys):
    assert cli.main(["two", "--f", "logistic", "--alpha", "1", "--beta", "1"]) == 3
    assert "--g" in capsys.readouterr().err


def test_infeasible_exits_4(capsys):
    assert cli.main(["compact", "--f2", "cubic:0.25", "--sigma", "0.2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible:")


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"reaction": "logistic"}))
    assert cli.main(["speed", "--config", str(cfg)]) == 0
    assert "c_star_decreasing" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    # config alone would be infeasible; the flag must win
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f2": "cubic:0.25", "sigma": 0.2}))
    assert cli.main(["compact", "--config", str(cfg), "--sigma", "0.5"]) == 0
    assert "window" in capsys.readouterr().out


def test_bad_config_file_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("not json")
    assert cli.main(["speed", "--config", str(cfg)]) == 3
    assert cli.main(["speed", "--config", str(tmp_path / "absent.json"),
                     "--reaction", "logistic"]) == 3
    capsys.readouterr()


def test_tol_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FREEWAVE_TOL", "1e-6")
    assert cli.main(["speed", "--reaction", "logistic"]) == 0
    monkeypatch.setenv("FREEWAVE_TOL", "banana")
    assert cli.main(["speed", "--reaction", "logistic"]) == 3
    capsys.readouterr()


def test_two_symmetric_prints_zero_speed(capsys):
    assert cli.main(["two", "--f", "logistic", "--g", "logistic",
                     "--alpha", "1", "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert "c = 0.00000000" in out


def test_three_symmetric_matches_balanced_coefficient(capsys):
    assert cli.main(["three", "--f1", "cubic:0.25", "--f2", "logistic",
                     "--f3", "cubic:0.25", "--alpha", "1", "--gamma", "1",
                     "--sigma", "0.5", "--c", "0"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("beta_l"))
    parts = line.split()
    beta_l = float(parts[2])
    tilde_line = next(l for l in out.splitlines() if l.startswith("tilde_beta_l"))
    tilde = float(tilde_line.split()[2])
    assert abs(beta_l - tilde) < 1e-6


def test_semiwave_outputs(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert cli.main(["semiwave", "--f", "logistic", "--c", "0", "--out", out,
                     "--plot"]) == 0
    capsys.readouterr()
    csv_path = os.path.join(out, "semiwave_profile.csv")
    lines = open(csv_path).read().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "z,phi"
    assert os.path.exists(os.path.join(out, "semiwave_profile.svg"))


def test_plot_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"plot": True}))
    out = str(tmp_path / "res")
    assert cli.main(["semiwave", "--f", "logistic", "--c", "0.3", "--config", str(cfg),
                     "--out", out]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "semiwave_profile.svg"))


@pytest.mark.parametrize("argv", [
    ["speed", "--reaction", "cubic:0.25", "--tol", "0"],
    ["compact", "--f2", "logistic", "--sigma", "0.5", "--tol", "-1"],
    ["semiwave", "--f", "logistic", "--c", "0", "--far-tol", "0"],
    ["semiwave", "--f", "logistic", "--c", "0", "--far-tol", "-1"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--L", "0"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--N", "0"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--N", "-5"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--T", "0"],
])
def test_non_positive_values_exit_3(argv, capsys):
    assert cli.main(argv) == 3
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "3"])
def test_verify_too_few_cells_exits_3(n, capsys):
    # the interface stencil and the tridiagonal solver need N >= 4
    assert cli.main(["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1",
                     "--beta", "1", "--N", n]) == 3
    assert "--N must be at least 4" in capsys.readouterr().err


def test_non_positive_tol_env_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("FREEWAVE_TOL", "0")
    assert cli.main(["speed", "--reaction", "cubic:0.25"]) == 3
    assert "must be positive" in capsys.readouterr().err


def test_tol_only_where_read(capsys):
    assert cli.main(["two", "--f", "logistic", "--g", "logistic", "--alpha", "1",
                     "--beta", "1", "--tol", "1e-6"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_huge_speed_exits_4(capsys):
    # the first step size overflows to NaN; the integrator stops instead of looping
    assert cli.main(["semiwave", "--f", "logistic", "--c", "1e300"]) == 4
    assert capsys.readouterr().err.startswith("error: infeasible:")


def test_rounding_sized_constant_term_gives_the_exact_speed(capsys):
    # classify accepts |f(0)| up to 1e-10 of the largest coefficient
    assert cli.main(["speed", "--reaction", "poly:1e-12,1,-1"]) == 0
    assert "c_star_decreasing = 2.0000000\n" in capsys.readouterr().out


def test_out_on_a_file_exits_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["speed", "--reaction", "logistic", "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("argv, key, val, expected", [
    (["semiwave", "--c", "0.3"], "f", 1, "a string"),
    (["semiwave", "--f", "logistic", "--c", "0.3"], "out", 5, "a string"),
    (["semiwave", "--f", "logistic", "--c", "0.3"], "plot", "yes", "true or false"),
    (["compact", "--f2", "cubic:0.25"], "sigma", "0.5", "a number"),
    (["dispersion", "--kind", "two_beta", "--f", "logistic", "--g", "logistic",
      "--alpha", "1"], "grid", 3, "a string"),
])
def test_config_field_types_exit_3(argv, key, val, expected, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: val}))
    assert cli.main(argv + ["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "error: config field %r: expected %s, got %s\n" % (
        key, expected, json.dumps(val))


def test_config_integer_beyond_float_range_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"c": 1%s}' % ("0" * 400))
    assert cli.main(["semiwave", "--f", "logistic", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "error: --c must be finite, got inf\n"


@pytest.mark.parametrize("argv", [
    ["two", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "nan"],
    ["two", "--f", "logistic", "--g", "logistic", "--beta", "1", "--alpha", "inf"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--L", "inf"],
    ["verify", "--f", "logistic", "--g", "logistic", "--alpha", "1", "--beta", "1",
     "--T", "inf"],
    ["speed", "--reaction", "cubic:0.25", "--tol", "inf"],
    ["semiwave", "--f", "logistic", "--c", "0.3", "--far-tol", "inf"],
    ["compact", "--f2", "cubic:0.25", "--sigma", "nan"],
])
def test_non_finite_values_exit_3(argv, capsys):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: %s must be finite, got %s\n" % tuple(argv[-2:])


def test_cli_import_loads_no_quadrature():
    code = ("import sys, freewave.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(freewave.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
