"""Command-line interface.

Commands
--------
speed       critical speeds of one reaction term
semiwave    decreasing semi-wave (or full front) profile at a given speed
compact     compact middle profile and its speed window
two         assemble a two-species wave (find the balanced speed)
three       assemble a three-species wave at a given admissible speed
dispersion  coefficient-vs-speed curves
verify      simulate an assembled two-species wave in the front frame

One table, _COMMANDS, declares each command's help, run function and
options. A run function prints its stdout lines and returns {file name:
data}; main writes the files under --out once the command has succeeded:
.json data with the resolved config added, .csv data as (header, rows),
.svg data as (series, title) only under --plot.

Reactions are given as family strings: "logistic", "cubic:THETA", or
"poly:c0,c1,..." (classified automatically). A JSON config file may supply
any long option (flags override it); its values must have the option's
JSON type, and numeric values must be finite. FREEWAVE_TOL overrides the
default root-finding tolerance of speed and compact. Exit codes: 0
success, 2 usage error, 3 invalid value or schema, 4 infeasible
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import compact_wave, matching, output, pde_verify, phase_plane, reaction
from .errors import (BracketError, FreewaveError, Infeasible, InvalidReaction,
                     NoSemiWave, StepError)

EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_INFEASIBLE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class SchemaError(Exception):
    pass


def parse_reaction(text: str) -> reaction.ReactionSpec:
    """Parse a reaction family string."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "logistic":
            if arg:
                raise SchemaError("logistic takes no parameter, got %r" % arg)
            return reaction.logistic()
        if name == "cubic":
            if not arg:
                raise SchemaError("cubic requires a threshold, e.g. cubic:0.25")
            return reaction.cubic_bistable(float(arg))
        if name == "poly":
            if not arg:
                raise SchemaError("poly requires coefficients, e.g. poly:0,1,-1")
            return reaction.polynomial([float(c) for c in arg.split(",")])
    except ValueError as exc:
        raise SchemaError("bad numeric value in reaction %r: %s" % (text, exc))
    except InvalidReaction as exc:
        raise SchemaError("invalid reaction %r: %s" % (text, exc))
    raise SchemaError("unknown reaction family %r (use logistic, cubic:A, poly:...)" % text)


def parse_grid(text: str) -> np.ndarray:
    """Parse lo:hi:n into a uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("grid must be lo:hi:n, got %r" % text)
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError("bad grid %r: %s" % (text, exc))
    if n < 2 or not -math.inf < lo < hi < math.inf:
        raise SchemaError("grid needs finite lo < hi and n >= 2, got %r" % text)
    return np.linspace(lo, hi, n)


def _typed(key: str, val, types, what: str):
    """val if it has the JSON type the option takes (a flag value always has)."""
    if isinstance(val, bool) != (types is bool) or not isinstance(val, types):
        raise SchemaError("config field %r: expected %s, got %s"
                          % (key, what, json.dumps(val)))
    return val


def _text(key: str, val) -> str:
    return _typed(key, val, str, "a string")


def _real(key: str, val) -> float:
    try:
        val = float(_typed(key, val, (int, float), "a number"))
    except OverflowError:       # a JSON integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise SchemaError("--%s must be finite, got %r" % (key, val))
    return val


def _positive(key: str, val):
    if not val > 0:
        raise SchemaError("--%s must be positive, got %r" % (key, val))
    return val


def _env_tol() -> float:
    env = os.environ.get("FREEWAVE_TOL") or "1e-8"
    try:
        tol = float(env)
    except ValueError:
        raise SchemaError("FREEWAVE_TOL is not a number: %r" % env)
    if not tol > 0:
        raise SchemaError("FREEWAVE_TOL must be positive, got %r" % env)
    return tol


# An option kind: argparse keyword arguments, and the one check that turns a flag
# or config value into the value a command reads; parse_reaction is found per call.
REACTION = ({}, lambda key, val: parse_reaction(_text(key, val)))
GRID = ({}, lambda key, val: parse_grid(_text(key, val)))
TEXT = ({}, _text)
REAL = ({"type": float}, _real)
POSITIVE = ({"type": float}, lambda key, val: _positive(key, _real(key, val)))
COUNT = ({"type": int}, lambda key, val: _positive(key, _typed(key, val, int, "an integer")))
SWITCH = ({"action": "store_true"}, lambda key, val: _typed(key, val, bool, "true or false"))

REQUIRED = object()      # the default of an option that has none

# the options each kind of dispersion curve reads
_DISPERSION = {"two_beta": ("f", "g", "alpha"), "two_alpha": ("f", "g", "beta"),
               "three": ("f1", "f2", "f3", "alpha", "gamma", "sigma")}

_TOL = ("tol", POSITIVE, _env_tol, "root tolerance override")
_TWO = (("f", REACTION, REQUIRED, "left (decreasing) reaction"),
        ("g", REACTION, REQUIRED, "right (increasing) reaction"),
        ("alpha", REAL, REQUIRED, "left interface coefficient"),
        ("beta", REAL, REQUIRED, "right interface coefficient"))
_THREE = (("f1", REACTION, REQUIRED, "left reaction"),
          ("f2", REACTION, REQUIRED, "middle reaction"),
          ("f3", REACTION, REQUIRED, "right reaction"),
          ("alpha", REAL, REQUIRED, "left interface coefficient"),
          ("gamma", REAL, REQUIRED, "right interface coefficient"),
          ("sigma", REAL, REQUIRED, "apex height of the middle species"))
_COMMON = (("out", TEXT, None, "directory for CSV/JSON outputs"),
           ("plot", SWITCH, False, "also write an SVG plot"))


def _profile(name: str, prof):
    """CSV data of a sampled profile: columns z and name."""
    return ("z", name), zip(prof.z, prof.phi)


def _run_speed(o: dict) -> dict:
    c_dec = phase_plane.critical_speed_decreasing(o["reaction"], tol=o["tol"])
    c_inc = phase_plane.critical_speed_increasing(o["reaction"], tol=o["tol"])
    print("c_star_decreasing = %.7f" % c_dec)
    print("c_star_increasing = %.7f" % c_inc)
    return {"speed.json": {"c_star_decreasing": c_dec, "c_star_increasing": c_inc}}


def _run_semiwave(o: dict) -> dict:
    prof = phase_plane.semiwave_profile(o["f"], o["c"], far_tol=o["far-tol"])
    mode = "semiwave" if prof.z[-1] == 0.0 else "front"
    print("mode = %s" % mode)
    if mode == "semiwave":
        print("interface_slope = %.7f" % prof.interface_slope)
    print("span = [%.4f, %.4f]" % (prof.z[0], prof.z[-1]))
    return {"semiwave_profile.csv": _profile("phi", prof),
            "semiwave_profile.svg": ([("phi", prof.z, prof.phi)], "semi-wave profile")}


def _run_compact(o: dict) -> dict:
    win = compact_wave.speed_window(o["f2"], o["sigma"], tol=o["tol"])
    print("window = (%.7f, %.7f)" % (win.c_star_l, win.c_star_r))
    print("inner = (%.7f, %.7f)" % (win.L_sigma, win.R_sigma))
    result = {"c_star_l": win.c_star_l, "c_star_r": win.c_star_r,
              "L_sigma": win.L_sigma, "R_sigma": win.R_sigma}
    files = {"compact.json": result}
    if o["c"] is not None:
        wave = compact_wave.compact_profile(o["f2"], o["sigma"], o["c"])
        print("width = %.7f" % wave.width)
        print("slope_left = %.7f  slope_right = %.7f"
              % (wave.slope_left, wave.slope_right))
        result.update(width=wave.width, apex=wave.apex,
                      slope_left=wave.slope_left, slope_right=wave.slope_right)
        files["compact_profile.csv"] = _profile("phi", wave)
        files["compact_profile.svg"] = ([("phi2", wave.z, wave.phi)], "compact profile")
    return files


def _run_two(o: dict) -> dict:
    wave = matching.solve_two_species(o["f"], o["g"], o["alpha"], o["beta"])
    print("c = %.8f" % wave.c)
    print("tilde_beta = %.8f" % wave.tilde_beta)
    print("residual = %.2e" % wave.residual)
    return {
        "two_left.csv": _profile("phi", wave.left),
        "two_right.csv": _profile("psi", wave.right),
        "two.json": {"c": wave.c, "tilde_beta": wave.tilde_beta, "residual": wave.residual,
                     "slope_left": wave.left.interface_slope,
                     "slope_right": wave.right.interface_slope},
        "two_profiles.svg": ([("phi", wave.left.z, wave.left.phi),
                              ("psi", wave.right.z, wave.right.phi)],
                             "two-species wave, c = %.5f" % wave.c),
    }


def _run_three(o: dict) -> dict:
    wave = matching.solve_three_species(o["f1"], o["f2"], o["f3"], o["alpha"],
                                        o["gamma"], o["sigma"], o["c"])
    tag = wave.case_tag
    print("beta_l = %.8f  beta_r = %.8f" % (wave.beta_l, wave.beta_r))
    print("tilde_beta_l = %.8f  tilde_beta_r = %.8f"
          % (wave.tilde_beta_l, wave.tilde_beta_r))
    print("cases = %s/%s  interval = (%.7f, %.7f)"
          % (tag.left_case, tag.right_case, tag.c_minus, tag.c_plus))
    print("width = %.7f  residuals = (%.2e, %.2e)"
          % (wave.middle.width, wave.residual_left, wave.residual_right))
    return {
        "three_left.csv": _profile("phi1", wave.left),
        "three_middle.csv": _profile("phi2", wave.middle),
        "three_right.csv": _profile("phi3", wave.right),
        "three.json": {
            "c": wave.c, "beta_l": wave.beta_l, "beta_r": wave.beta_r,
            "tilde_beta_l": wave.tilde_beta_l, "tilde_beta_r": wave.tilde_beta_r,
            "cases": [tag.left_case, tag.right_case], "interval": [tag.c_minus, tag.c_plus],
            "window": [tag.c_star_l, tag.c_star_r], "hat_c1": tag.hat_c1,
            "hat_c3": tag.hat_c3, "width": wave.middle.width},
        "three_profiles.svg": ([("phi1", wave.left.z, wave.left.phi),
                                ("phi2", wave.middle.z, wave.middle.phi),
                                ("phi3", wave.right.z + wave.middle.width, wave.right.phi)],
                               "three-species wave, c = %.5f" % wave.c),
    }


def _run_dispersion(o: dict) -> dict:
    kind = o["kind"]
    if kind not in _DISPERSION:     # a flag is checked by argparse, a config field here
        raise SchemaError("unknown dispersion kind %r" % kind)
    for name in _DISPERSION[kind]:
        if o[name] is None:
            raise SchemaError("missing required option --%s" % name)
    curve = matching.dispersion_curve(kind, o, o["grid"])
    names = sorted(curve.columns)
    print("endpoints = (%.7f, %.7f)" % curve.endpoints)
    print("columns = c," + ",".join(names))
    return {
        "dispersion_%s.csv" % kind: (["c"] + names,
                                     zip(curve.c, *[curve.columns[k] for k in names])),
        "dispersion_%s.svg" % kind: ([(k, curve.c, curve.columns[k]) for k in names],
                                     "dispersion %s" % kind),
    }


def _run_verify(o: dict) -> dict:
    if o["N"] < pde_verify.MIN_N:
        raise SchemaError("--N must be at least %d, got %d" % (pde_verify.MIN_N, o["N"]))
    wave = matching.solve_two_species(o["f"], o["g"], o["alpha"], o["beta"])
    report = pde_verify.run(wave, L=o["L"], N=o["N"], T=o["T"])
    rel = abs(report.mean_speed - wave.c) / max(abs(wave.c), 1e-12)
    print("c = %.8f" % wave.c)
    print("mean_speed = %.8f" % report.mean_speed)
    print("rel_speed_error = %.4e" % rel)
    print("profile_drift = %.4e" % report.profile_drift)
    return {
        "verify_history.csv": (("t", "s", "s_prime"), report.history),
        "verify.json": {"c": wave.c, "mean_speed": report.mean_speed,
                        "rel_speed_error": rel, "profile_drift": report.profile_drift},
        "verify_history.svg": ([("s_prime", report.history[:, 0], report.history[:, 2])],
                               "boundary speed history"),
    }


# command: (help, run function, options); every option is (name, kind, default, help)
_COMMANDS = {
    "speed": ("critical speeds of one reaction term", _run_speed, (
        ("reaction", REACTION, REQUIRED, "reaction family string"), _TOL)),
    "semiwave": ("semi-wave profile at a given speed", _run_semiwave, (
        ("f", REACTION, REQUIRED, "reaction of the decreasing species"),
        ("c", REAL, REQUIRED, "wave speed"),
        ("far-tol", POSITIVE, 1e-8, "far-field truncation level"))),
    "compact": ("compact profile and speed window", _run_compact, (
        ("f2", REACTION, REQUIRED, "reaction of the middle species"),
        ("sigma", REAL, REQUIRED, "apex height"), _TOL,
        ("c", REAL, None, "wave speed (omit for window only)"))),
    "two": ("assemble a two-species wave", _run_two, _TWO),
    "three": ("assemble a three-species wave", _run_three,
              _THREE + (("c", REAL, REQUIRED, "wave speed"),)),
    # the kind decides which of the other options are read
    "dispersion": ("coefficient-vs-speed curves", _run_dispersion, (
        ("kind", ({"choices": tuple(_DISPERSION)}, _text), REQUIRED, "curve to tabulate"),
        ("grid", GRID, REQUIRED, "c grid as lo:hi:n"))
        + tuple({name: (name, kind, None, text)
                 for name, kind, _, text in _TWO + _THREE}.values())),
    "verify": ("front-frame simulation of a two-species wave", _run_verify, _TWO + (
        ("L", POSITIVE, 40.0, "half-width of the frame (default 40)"),
        ("N", COUNT, 2000, "grid points per side (default 2000)"),
        ("T", POSITIVE, 20.0, "final time (default 20)"))),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="freewave",
                description="traveling waves with free boundaries for "
                            "reaction-diffusion systems")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, _, opts) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name, (kwargs, _), _, text in opts + _COMMON:
            sp.add_argument("--" + name, default=None, help=text, **kwargs)
        sp.add_argument("--config", help="JSON file supplying defaults for long options")
    return p


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read config file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise SchemaError("config file is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise SchemaError("config file must hold a JSON object")
    return cfg


def _options(args, cfg: dict, opts) -> dict:
    """Each option's checked value: its flag, else its config field, else its default."""
    vals = {}
    for name, (_, check), default, _ in opts:
        val = getattr(args, name.replace("-", "_"))
        if val is not None or name in cfg:
            vals[name] = check(name, cfg[name] if val is None else val)
        elif default is REQUIRED:
            raise SchemaError("missing required option --%s" % name)
        else:
            vals[name] = default() if callable(default) else default
    return vals


def _resolved_config(cmd: str, vals: dict) -> dict:
    cfg = {"command": cmd}
    for name, val in vals.items():
        if isinstance(val, reaction.ReactionSpec):
            val = {"coeffs": list(val.coeffs), "kind": val.kind}
        elif isinstance(val, np.ndarray):
            val = [float(x) for x in val]
        if val is not None:
            cfg[name.replace("-", "_")] = val
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _, run, opts = _COMMANDS[args.command]
    try:
        vals = _options(args, _load_config(args.config), opts + _COMMON)
        out, plot = vals.pop("out"), vals.pop("plot")
        files = run(vals)
        if out:
            config = _resolved_config(args.command, vals)
            try:
                output.ensure_dir(out)
                for name, data in files.items():
                    path = os.path.join(out, name)
                    if name.endswith(".json"):
                        output.write_json(path, dict(data, config=config))
                    elif name.endswith(".csv"):
                        output.write_csv(path, *data, config)
                    elif plot:
                        output.svg_polylines(path, *data)
            except OSError as exc:
                raise SchemaError("cannot write under --out: %s" % exc)
    except SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except InvalidReaction as exc:
        print("error: invalid reaction: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except (Infeasible, NoSemiWave, BracketError, StepError) as exc:
        print("error: infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except FreewaveError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    return 0


if __name__ == "__main__":
    sys.exit(main())
