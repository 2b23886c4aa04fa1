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

Reactions are given as family strings: "logistic", "cubic:THETA", or
"poly:c0,c1,..." (classified automatically). A JSON config file may supply
any long option (flags override it). FREEWAVE_TOL overrides the default
root-finding tolerance of speed and compact. Exit codes: 0 success, 2 usage
error, 3 invalid value or schema, 4 infeasible configuration.
"""

from __future__ import annotations

import argparse
import json
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
    if n < 2 or not lo < hi:
        raise SchemaError("grid needs lo < hi and n >= 2, got %r" % text)
    return np.linspace(lo, hi, n)


def _build_parser() -> _Parser:
    p = _Parser(prog="freewave",
                description="traveling waves with free boundaries for "
                            "reaction-diffusion systems")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file supplying defaults for long options")
        sp.add_argument("--out", help="directory for CSV/JSON outputs")
        sp.add_argument("--plot", action="store_true", default=None,
                        help="also write an SVG plot")

    sp = sub.add_parser("speed", help="critical speeds of one reaction term")
    sp.add_argument("--reaction", help="reaction family string")
    sp.add_argument("--tol", type=float, help="root tolerance override")
    add_common(sp)

    sp = sub.add_parser("semiwave", help="semi-wave profile at a given speed")
    sp.add_argument("--f", help="reaction of the decreasing species")
    sp.add_argument("--c", type=float, help="wave speed")
    sp.add_argument("--far-tol", type=float, help="far-field truncation level")
    add_common(sp)

    sp = sub.add_parser("compact", help="compact profile and speed window")
    sp.add_argument("--f2", help="reaction of the middle species")
    sp.add_argument("--sigma", type=float, help="apex height")
    sp.add_argument("--c", type=float, help="wave speed (omit for window only)")
    sp.add_argument("--tol", type=float, help="root tolerance override")
    add_common(sp)

    sp = sub.add_parser("two", help="assemble a two-species wave")
    sp.add_argument("--f", help="left (decreasing) reaction")
    sp.add_argument("--g", help="right (increasing) reaction")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    add_common(sp)

    sp = sub.add_parser("three", help="assemble a three-species wave")
    sp.add_argument("--f1", help="left reaction")
    sp.add_argument("--f2", help="middle reaction")
    sp.add_argument("--f3", help="right reaction")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--c", type=float)
    add_common(sp)

    sp = sub.add_parser("dispersion", help="coefficient-vs-speed curves")
    sp.add_argument("--kind", choices=("two_beta", "two_alpha", "three"))
    sp.add_argument("--f", help="left reaction (two_*)")
    sp.add_argument("--g", help="right reaction (two_*)")
    sp.add_argument("--f1")
    sp.add_argument("--f2")
    sp.add_argument("--f3")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--grid", help="c grid as lo:hi:n")
    add_common(sp)

    sp = sub.add_parser("verify", help="front-frame simulation of a two-species wave")
    sp.add_argument("--f")
    sp.add_argument("--g")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--L", type=float, help="half-width of the frame (default 40)")
    sp.add_argument("--N", type=int, help="grid points per side (default 2000)")
    sp.add_argument("--T", type=float, help="final time (default 20)")
    add_common(sp)
    return p


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read config file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise SchemaError("config file is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise SchemaError("config file must hold a JSON object")
    return cfg


def _resolve(args, cfg: dict, key: str, required: bool = False, cast=None):
    """Flag value if given, else config value, else None (or schema error)."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in cfg:
        val = cfg[key]
        if cast is not None:
            try:
                val = cast(val)
            except (TypeError, ValueError) as exc:
                raise SchemaError("config field %r: %s" % (key, exc))
    if val is None and required:
        raise SchemaError("missing required option --%s" % key)
    return val


def _positive(args, cfg: dict, key: str, default, cast=float):
    """Like _resolve, with a default, rejecting values that are not positive."""
    val = _resolve(args, cfg, key, cast=cast)
    if val is None:
        return default
    if not val > 0:
        raise SchemaError("--%s must be positive, got %r" % (key, val))
    return val


def _default_tol(args, cfg) -> float:
    tol = _positive(args, cfg, "tol", None)
    if tol is not None:
        return tol
    env = os.environ.get("FREEWAVE_TOL")
    if env:
        try:
            tol = float(env)
        except ValueError:
            raise SchemaError("FREEWAVE_TOL is not a number: %r" % env)
        if not tol > 0:
            raise SchemaError("FREEWAVE_TOL must be positive, got %r" % env)
        return tol
    return 1e-8

def _out_dir(args, cfg):
    out = _resolve(args, cfg, "out")
    if out:
        output.ensure_dir(out)
    return out


def _resolved_config(cmd: str, **kv) -> dict:
    cfg = {"command": cmd}
    for k, v in kv.items():
        if isinstance(v, reaction.ReactionSpec):
            cfg[k] = {"coeffs": list(v.coeffs), "kind": v.kind}
        elif isinstance(v, np.ndarray):
            cfg[k] = [float(x) for x in v]
        elif v is not None:
            cfg[k] = v
    return cfg


def _cmd_speed(args) -> int:
    cfg = _load_config(args)
    spec = parse_reaction(_resolve(args, cfg, "reaction", required=True))
    tol = _default_tol(args, cfg)
    c_dec = phase_plane.critical_speed_decreasing(spec, tol=tol)
    c_inc = phase_plane.critical_speed_increasing(spec, tol=tol)
    print("c_star_decreasing = %.7f" % c_dec)
    print("c_star_increasing = %.7f" % c_inc)
    out = _out_dir(args, cfg)
    if out:
        output.write_json(os.path.join(out, "speed.json"), {
            "config": _resolved_config("speed", reaction=spec, tol=tol),
            "c_star_decreasing": c_dec,
            "c_star_increasing": c_inc,
        })
    return 0


def _cmd_semiwave(args) -> int:
    cfg = _load_config(args)
    spec = parse_reaction(_resolve(args, cfg, "f", required=True))
    c = _resolve(args, cfg, "c", required=True, cast=float)
    far_tol = _positive(args, cfg, "far-tol", 1e-8)
    prof = phase_plane.semiwave_profile(spec, c, far_tol=far_tol)
    rc = _resolved_config("semiwave", f=spec, c=c, far_tol=far_tol)
    mode = "semiwave" if prof.z[-1] == 0.0 else "front"
    print("mode = %s" % mode)
    if mode == "semiwave":
        print("interface_slope = %.7f" % prof.interface_slope)
    print("span = [%.4f, %.4f]" % (prof.z[0], prof.z[-1]))
    out = _out_dir(args, cfg)
    if out:
        output.write_profile_csv(os.path.join(out, "semiwave_profile.csv"),
                                 prof.z, prof.phi, rc, value_name="phi")
        if _resolve(args, cfg, "plot"):
            output.svg_polylines(os.path.join(out, "semiwave_profile.svg"),
                                 [("phi", prof.z, prof.phi)], title="semi-wave profile")
    return 0


def _cmd_compact(args) -> int:
    cfg = _load_config(args)
    spec = parse_reaction(_resolve(args, cfg, "f2", required=True))
    sigma = _resolve(args, cfg, "sigma", required=True, cast=float)
    tol = _default_tol(args, cfg)
    c = _resolve(args, cfg, "c", cast=float)
    win = compact_wave.speed_window(spec, sigma, tol=tol)
    print("window = (%.7f, %.7f)" % (win.c_star_l, win.c_star_r))
    print("inner = (%.7f, %.7f)" % (win.L_sigma, win.R_sigma))
    rc = _resolved_config("compact", f2=spec, sigma=sigma, c=c, tol=tol)
    out = _out_dir(args, cfg)
    payload = {"config": rc, "c_star_l": win.c_star_l, "c_star_r": win.c_star_r,
               "L_sigma": win.L_sigma, "R_sigma": win.R_sigma}
    if c is not None:
        wave = compact_wave.compact_profile(spec, sigma, c)
        print("width = %.7f" % wave.width)
        print("slope_left = %.7f  slope_right = %.7f"
              % (wave.slope_left, wave.slope_right))
        payload.update(width=wave.width, apex=wave.apex,
                       slope_left=wave.slope_left, slope_right=wave.slope_right)
        if out:
            output.write_profile_csv(os.path.join(out, "compact_profile.csv"),
                                     wave.z, wave.phi, rc, value_name="phi")
            if _resolve(args, cfg, "plot"):
                output.svg_polylines(os.path.join(out, "compact_profile.svg"),
                                     [("phi2", wave.z, wave.phi)],
                                     title="compact profile")
    if out:
        output.write_json(os.path.join(out, "compact.json"), payload)
    return 0


def _two_from_args(args, cfg):
    f = parse_reaction(_resolve(args, cfg, "f", required=True))
    g = parse_reaction(_resolve(args, cfg, "g", required=True))
    alpha = _resolve(args, cfg, "alpha", required=True, cast=float)
    beta = _resolve(args, cfg, "beta", required=True, cast=float)
    return f, g, alpha, beta


def _cmd_two(args) -> int:
    cfg = _load_config(args)
    f, g, alpha, beta = _two_from_args(args, cfg)
    wave = matching.solve_two_species(f, g, alpha, beta)
    print("c = %.8f" % wave.c)
    print("tilde_beta = %.8f" % wave.tilde_beta)
    print("residual = %.2e" % wave.residual)
    rc = _resolved_config("two", f=f, g=g, alpha=alpha, beta=beta)
    out = _out_dir(args, cfg)
    if out:
        output.write_profile_csv(os.path.join(out, "two_left.csv"),
                                 wave.left.z, wave.left.phi, rc, value_name="phi")
        output.write_profile_csv(os.path.join(out, "two_right.csv"),
                                 wave.right.z, wave.right.phi, rc, value_name="psi")
        output.write_json(os.path.join(out, "two.json"), {
            "config": rc, "c": wave.c, "tilde_beta": wave.tilde_beta,
            "residual": wave.residual,
            "slope_left": wave.left.interface_slope,
            "slope_right": wave.right.interface_slope,
        })
        if _resolve(args, cfg, "plot"):
            output.svg_polylines(os.path.join(out, "two_profiles.svg"),
                                 [("phi", wave.left.z, wave.left.phi),
                                  ("psi", wave.right.z, wave.right.phi)],
                                 title="two-species wave, c = %.5f" % wave.c)
    return 0


def _cmd_three(args) -> int:
    cfg = _load_config(args)
    f1 = parse_reaction(_resolve(args, cfg, "f1", required=True))
    f2 = parse_reaction(_resolve(args, cfg, "f2", required=True))
    f3 = parse_reaction(_resolve(args, cfg, "f3", required=True))
    alpha = _resolve(args, cfg, "alpha", required=True, cast=float)
    gamma = _resolve(args, cfg, "gamma", required=True, cast=float)
    sigma = _resolve(args, cfg, "sigma", required=True, cast=float)
    c = _resolve(args, cfg, "c", required=True, cast=float)
    wave = matching.solve_three_species(f1, f2, f3, alpha, gamma, sigma, c)
    tag = wave.case_tag
    print("beta_l = %.8f  beta_r = %.8f" % (wave.beta_l, wave.beta_r))
    print("tilde_beta_l = %.8f  tilde_beta_r = %.8f"
          % (wave.tilde_beta_l, wave.tilde_beta_r))
    print("cases = %s/%s  interval = (%.7f, %.7f)"
          % (tag.left_case, tag.right_case, tag.c_minus, tag.c_plus))
    print("width = %.7f  residuals = (%.2e, %.2e)"
          % (wave.middle.width, wave.residual_left, wave.residual_right))
    rc = _resolved_config("three", f1=f1, f2=f2, f3=f3, alpha=alpha,
                          gamma=gamma, sigma=sigma, c=c)
    out = _out_dir(args, cfg)
    if out:
        output.write_profile_csv(os.path.join(out, "three_left.csv"),
                                 wave.left.z, wave.left.phi, rc, value_name="phi1")
        output.write_profile_csv(os.path.join(out, "three_middle.csv"),
                                 wave.middle.z, wave.middle.phi, rc, value_name="phi2")
        output.write_profile_csv(os.path.join(out, "three_right.csv"),
                                 wave.right.z, wave.right.phi, rc, value_name="phi3")
        output.write_json(os.path.join(out, "three.json"), {
            "config": rc, "c": wave.c, "beta_l": wave.beta_l, "beta_r": wave.beta_r,
            "tilde_beta_l": wave.tilde_beta_l, "tilde_beta_r": wave.tilde_beta_r,
            "cases": [tag.left_case, tag.right_case],
            "interval": [tag.c_minus, tag.c_plus],
            "window": [tag.c_star_l, tag.c_star_r],
            "hat_c1": tag.hat_c1, "hat_c3": tag.hat_c3,
            "width": wave.middle.width,
        })
        if _resolve(args, cfg, "plot"):
            width = wave.middle.width
            output.svg_polylines(os.path.join(out, "three_profiles.svg"),
                                 [("phi1", wave.left.z, wave.left.phi),
                                  ("phi2", wave.middle.z, wave.middle.phi),
                                  ("phi3", wave.right.z + width, wave.right.phi)],
                                 title="three-species wave, c = %.5f" % wave.c)
    return 0


def _cmd_dispersion(args) -> int:
    cfg = _load_config(args)
    kind = _resolve(args, cfg, "kind", required=True)
    grid = parse_grid(_resolve(args, cfg, "grid", required=True))
    if kind == "two_beta":
        params = {"f": parse_reaction(_resolve(args, cfg, "f", required=True)),
                  "g": parse_reaction(_resolve(args, cfg, "g", required=True)),
                  "alpha": _resolve(args, cfg, "alpha", required=True, cast=float)}
    elif kind == "two_alpha":
        params = {"f": parse_reaction(_resolve(args, cfg, "f", required=True)),
                  "g": parse_reaction(_resolve(args, cfg, "g", required=True)),
                  "beta": _resolve(args, cfg, "beta", required=True, cast=float)}
    elif kind == "three":
        params = {"f1": parse_reaction(_resolve(args, cfg, "f1", required=True)),
                  "f2": parse_reaction(_resolve(args, cfg, "f2", required=True)),
                  "f3": parse_reaction(_resolve(args, cfg, "f3", required=True)),
                  "alpha": _resolve(args, cfg, "alpha", required=True, cast=float),
                  "gamma": _resolve(args, cfg, "gamma", required=True, cast=float),
                  "sigma": _resolve(args, cfg, "sigma", required=True, cast=float)}
    else:
        raise SchemaError("unknown dispersion kind %r" % kind)
    curve = matching.dispersion_curve(kind, params, grid)
    names = sorted(curve.columns)
    print("endpoints = (%.7f, %.7f)" % curve.endpoints)
    print("columns = c," + ",".join(names))
    rc = _resolved_config("dispersion", kind=kind, grid=grid,
                          **{k: v for k, v in params.items()})
    out = _out_dir(args, cfg)
    if out:
        rows = zip(curve.c, *[curve.columns[k] for k in names])
        output.write_csv(os.path.join(out, "dispersion_%s.csv" % kind),
                         ["c"] + names, rows, rc)
        if _resolve(args, cfg, "plot"):
            output.svg_polylines(os.path.join(out, "dispersion_%s.svg" % kind),
                                 [(k, curve.c, curve.columns[k]) for k in names],
                                 title="dispersion %s" % kind)
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    f, g, alpha, beta = _two_from_args(args, cfg)
    L = _positive(args, cfg, "L", 40.0)
    N = _positive(args, cfg, "N", 2000, cast=int)
    if N < pde_verify.MIN_N:
        raise SchemaError("--N must be at least %d, got %d" % (pde_verify.MIN_N, N))
    T = _positive(args, cfg, "T", 20.0)
    wave = matching.solve_two_species(f, g, alpha, beta)
    report = pde_verify.run(wave, L=L, N=N, T=T)
    rel = abs(report.mean_speed - wave.c) / max(abs(wave.c), 1e-12)
    print("c = %.8f" % wave.c)
    print("mean_speed = %.8f" % report.mean_speed)
    print("rel_speed_error = %.4e" % rel)
    print("profile_drift = %.4e" % report.profile_drift)
    rc = _resolved_config("verify", f=f, g=g, alpha=alpha, beta=beta, L=L, N=N, T=T)
    out = _out_dir(args, cfg)
    if out:
        output.write_csv(os.path.join(out, "verify_history.csv"),
                         ("t", "s", "s_prime"), report.history, rc)
        output.write_json(os.path.join(out, "verify.json"), {
            "config": rc, "c": wave.c, "mean_speed": report.mean_speed,
            "rel_speed_error": rel, "profile_drift": report.profile_drift,
        })
        if _resolve(args, cfg, "plot"):
            output.svg_polylines(os.path.join(out, "verify_history.svg"),
                                 [("s_prime", report.history[:, 0],
                                   report.history[:, 2])],
                                 title="boundary speed history")
    return 0


_COMMANDS = {
    "speed": _cmd_speed,
    "semiwave": _cmd_semiwave,
    "compact": _cmd_compact,
    "two": _cmd_two,
    "three": _cmd_three,
    "dispersion": _cmd_dispersion,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
