"""Seeded job lists for the benchmark workloads, and the exact checks of their outputs.

Every job is one README subcommand, given as the argument list that
`freewave.cli.main` receives (without `--out`). Reactions come from three
families whose critical speed c* is known in closed form:

* pulled KPP `poly:0,r,-r`, c* = 2 sqrt(r);
* pushed Hadeler-Rothe `poly:0,1,nu-1,-nu` (u (1-u)(1+nu u), nu > 2),
  c* = (nu + 2) / sqrt(2 nu);
* bistable `cubic:theta`, c* = (1 - 2 theta) / sqrt(2).

Each pass of a run draws fresh inputs from (seed, pass index), so a run
summarises several draws; parameters come from narrow ranges inside each
family, so that the cost of a pass changes little from draw to draw.
References are computed here, from the coefficients alone, never by calling
the program.

`assemble` and `frontframe` use bistable reactions only: with a monostable
term a single `two`, `three` or `compact` job costs 5 to 15 s, which would
leave room for one pass at most within a run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)
# The tightest tolerance the program is asked for (the speed root of
# solve_two_species, 1e-12): where a root finder lands inside it is arbitrary,
# so smaller errors count as this one in `digits`.
ERROR_FLOOR = 1e-12

# tolerances of the acceptance gate (tests/test_acceptance.py)
TOL_PULLED = 1e-3            # criterion 1
TOL_SPEED = 1e-4             # criterion 2
TOL_BALANCED = 1e-6          # criteria 4 and 6
TOL_WIDTH = 1e-4             # criterion 5
TOL_RESIDUAL = 1e-6          # two-species matching residual
TOL_REL_SPEED = 2e-2         # criterion 8
TOL_DRIFT = 5e-2
TOL_PINNED = 1e-3
TOL_CLOSED_FORM = 1e-9       # values the program also evaluates in closed form

PDE_SIZE = ("--L", "40", "--N", "2000", "--T", "20")


# ---------------------------------------------------------------------------
# reactions and their exact quantities


@dataclass(frozen=True)
class Reaction:
    text: str                # CLI reaction string
    coeffs: tuple            # increasing powers, exactly as the CLI builds them
    family: str              # pulled, pushed or bistable
    c_star: float            # exact critical speed

    def primitive(self, u: float) -> float:
        """F(u) = int_0^u f, from the coefficients."""
        return sum(c * u ** (k + 1) / (k + 1) for k, c in enumerate(self.coeffs))


def pulled(r: float) -> Reaction:
    return Reaction("poly:0,%r,%r" % (r, -r), (0.0, r, -r), "pulled", 2.0 * math.sqrt(r))


def pushed(nu: float) -> Reaction:
    coeffs = (0.0, 1.0, nu - 1.0, -nu)
    text = "poly:" + ",".join(repr(c) for c in (0, 1.0, nu - 1.0, -nu))
    return Reaction(text, coeffs, "pushed", (nu + 2.0) / math.sqrt(2.0 * nu))


def bistable(theta: float) -> Reaction:
    return Reaction("cubic:%r" % theta, (0.0, -theta, 1.0 + theta, -1.0), "bistable",
                    (1.0 - 2.0 * theta) / SQRT2)


def zero_speed_width(f2: Reaction, sigma: float) -> float:
    """Width of the c = 0 compact profile from the first integral (quadrature)."""
    f_sig = f2.primitive(sigma)

    def integrand(t):
        gap = f_sig - f2.primitive(sigma - t * t)
        return 2.0 * t / math.sqrt(2.0 * gap) if gap > 0.0 else 0.0

    half, _ = quad(integrand, 0.0, math.sqrt(sigma), limit=200, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * half


# ---------------------------------------------------------------------------
# checks


@dataclass
class Outcome:
    """What one job's outputs showed: failed checks, reference errors, extras."""

    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)     # errors against exact references
    values: dict = field(default_factory=dict)     # per-layer accuracy figures

    def close(self, label, got, exact, tol, digits=True):
        """|got - exact| <= tol; unless digits is False the error enters `digits`
        (relative, or absolute where exact is 0)."""
        err = abs(got - exact)
        if not err <= tol:
            self.failures.append("%s: got %.12g, exact %.12g, error %.3g > %g"
                                 % (label, got, exact, err, tol))
        if digits:
            self.errors.append(err / abs(exact) if exact != 0.0 else err)

    def require(self, label, ok):
        if not ok:
            self.failures.append(label)


def _json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _csv(out_dir, name):
    """Columns of a CLI CSV (config comment, header, rows) as lists of floats."""
    with open(os.path.join(out_dir, name)) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return {h: [float(r[i]) for r in body] for i, h in enumerate(header)}


def _check_semiwave_csv(out, out_dir, name, col, decreasing):
    prof = _csv(out_dir, name)
    z, phi = prof["z"], prof[col]
    edge, far = (-1, 0) if decreasing else (0, -1)
    out.require("%s: interface at z = 0 with value 0" % name,
                z[edge] == 0.0 and phi[edge] == 0.0)
    out.require("%s: far field within 1e-6 of 1" % name, abs(phi[far] - 1.0) <= 1e-6)
    steps = [b - a for a, b in zip(phi, phi[1:])]
    out.require("%s: monotone profile" % name,
                all(s <= 0.0 for s in steps) if decreasing else all(s >= 0.0 for s in steps))


def check_speed(job, out_dir) -> Outcome:
    out = Outcome()
    res = _json(out_dir, "speed.json")
    f = job.params["reaction"]
    tol = TOL_PULLED if f.family == "pulled" else TOL_SPEED
    out.close("c*_decreasing", res["c_star_decreasing"], f.c_star, tol)
    out.close("c*_increasing", res["c_star_increasing"], -f.c_star, tol)
    return out


def _tilde_beta(f, g, alpha):
    return alpha * math.sqrt(f.primitive(1.0) / g.primitive(1.0))


def check_two(job, out_dir) -> Outcome:
    out = Outcome()
    p = job.params
    f, g, alpha, beta = p["f"], p["g"], p["alpha"], p["beta"]
    res = _json(out_dir, "two.json")
    c, bt = res["c"], _tilde_beta(f, g, alpha)
    out.close("tilde_beta", res["tilde_beta"], bt, TOL_CLOSED_FORM * bt)
    out.close("written residual", res["residual"], 0.0, TOL_RESIDUAL)
    out.close("residual of written slopes",
              alpha * res["slope_left"] + beta * res["slope_right"] + c, 0.0, TOL_RESIDUAL)
    if p["balanced"]:
        out.close("c at beta = tilde_beta", c, 0.0, TOL_BALANCED)
    else:
        out.require("sign law: c > 0 exactly when beta < tilde_beta", (c > 0.0) == (beta < bt))
    out.require("c inside (-c*(g), c*(f))", -g.c_star < c < f.c_star)
    _check_semiwave_csv(out, out_dir, "two_left.csv", "phi", decreasing=True)
    _check_semiwave_csv(out, out_dir, "two_right.csv", "psi", decreasing=False)
    return out


def check_dispersion(job, out_dir) -> Outcome:
    out = Outcome()
    p = job.params
    bt = _tilde_beta(p["f"], p["g"], p["alpha"])
    curve = _csv(out_dir, "dispersion_two_beta.csv")
    cs, betas = curve["c"], curve["beta"]
    out.require("grid of %d points ending at c = 0" % p["n"], len(cs) == p["n"] and cs[-1] == 0.0)
    out.require("beta strictly decreasing", all(b < a for a, b in zip(betas, betas[1:])))
    out.require("sign law: beta > tilde_beta for c < 0",
                all(b > bt for c, b in zip(cs, betas) if c < 0.0))
    out.close("beta(0)", betas[-1], bt, TOL_BALANCED)
    return out


def _check_window(out, res, f2, sigma):
    ratio = f2.primitive(sigma) / f2.primitive(1.0)
    out.require("window ordering c*_l < L_sigma < 0 < R_sigma < c*_r",
                res["c_star_l"] < res["L_sigma"] < 0.0 < res["R_sigma"] < res["c_star_r"])
    # L_sigma inherits the c* bisection's tolerance, so it is checked but kept
    # out of `digits`, which the c* rows of `speeds` already carry
    out.close("L_sigma", res["L_sigma"], -f2.c_star * ratio, TOL_SPEED, digits=False)


def check_compact(job, out_dir) -> Outcome:
    out = Outcome()
    f2, sigma = job.params["f2"], job.params["sigma"]
    res = _json(out_dir, "compact.json")
    _check_window(out, res, f2, sigma)
    edge = math.sqrt(2.0 * f2.primitive(sigma))
    out.close("edge slope at c = 0", res["slope_left"], edge, TOL_BALANCED)
    out.close("right edge slope at c = 0", res["slope_right"], -edge, TOL_BALANCED)
    out.close("width", res["width"], job.params["width"], TOL_WIDTH)
    prof = _csv(out_dir, "compact_profile.csv")
    out.require("compact profile vanishes at both ends with apex sigma",
                prof["phi"][0] == 0.0 and prof["phi"][-1] == 0.0
                and abs(max(prof["phi"]) - sigma) <= 1e-9)
    return out


def check_three(job, out_dir) -> Outcome:
    out = Outcome()
    p = job.params
    f1, f2, f3, sigma = p["f1"], p["f2"], p["f3"], p["sigma"]
    res = _json(out_dir, "three.json")
    btl = p["alpha"] * math.sqrt(f1.primitive(1.0) / f2.primitive(sigma))
    btr = p["gamma"] * math.sqrt(f3.primitive(1.0) / f2.primitive(sigma))
    out.close("tilde_beta_l", res["tilde_beta_l"], btl, TOL_CLOSED_FORM * btl)
    out.close("tilde_beta_r", res["tilde_beta_r"], btr, TOL_CLOSED_FORM * btr)
    out.close("beta_l at c = 0", res["beta_l"], btl, TOL_BALANCED)
    out.close("beta_r at c = 0", res["beta_r"], btr, TOL_BALANCED)
    out.close("middle width", res["width"], p["width"], TOL_WIDTH)
    lo, hi = res["interval"]
    wl, wr = res["window"]
    out.require("hat_c3 < 0 < hat_c1", res["hat_c3"] < 0.0 < res["hat_c1"])
    out.require("admissible interval contains 0", lo < 0.0 < hi)
    out.require("window contains the interval", wl <= lo and hi <= wr)
    return out


def check_verify(job, out_dir) -> Outcome:
    out = Outcome()
    p = job.params
    res = _json(out_dir, "verify.json")
    c, mean = res["c"], res["mean_speed"]
    out.require("profile drift %.3g <= %g" % (res["profile_drift"], TOL_DRIFT),
                res["profile_drift"] <= TOL_DRIFT)
    out.values["drift"] = res["profile_drift"]
    if p["pinned"]:
        out.close("constructed speed of the pinned pair", c, 0.0, TOL_BALANCED)
        out.require("pinned |mean_speed| %.3g <= %g" % (abs(mean), TOL_PINNED),
                    abs(mean) <= TOL_PINNED)
        out.values["pinned_speed"] = abs(mean)
    else:
        rel = abs(mean - c) / abs(c)
        out.require("sign law: c > 0 for beta < tilde_beta", c > 0.0)
        out.require("relative speed error %.3g <= %g" % (rel, TOL_REL_SPEED),
                    rel <= TOL_REL_SPEED)
        out.values["speed_rel_err"] = rel
    hist = _csv(out_dir, "verify_history.csv")
    out.require("history reaches T = 20", abs(hist["t"][-1] - 20.0) <= 1e-9)
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Job:
    name: str
    argv: list
    check: Callable
    params: dict


def _u(rng, lo, hi, ndigits=6):
    return round(rng.uniform(lo, hi), ndigits)


def speeds(seed: int, k: int) -> list:
    """`speed` on a pulled, a pushed and three bistable reactions: five c* bisections.

    The bistable majority puts the median job inside the family whose cost
    varies least from draw to draw (about 10 %); the cost of a pushed job
    varies by some 30 % with nu, as the bisection path changes, and would
    make `job_s.p50` follow the draw.
    """
    rng = random.Random("speeds:%d:%d" % (seed, k))
    reactions = (pulled(_u(rng, 0.85, 1.15)), pushed(_u(rng, 3.5, 4.5, 4)),
                 *(bistable(_u(rng, 0.2, 0.3)) for _ in range(3)))
    return [Job("speed/%s" % f.family, ["speed", "--reaction", f.text], check_speed,
                {"reaction": f}) for f in reactions]


def assemble(seed: int, k: int) -> list:
    """One session of matching jobs: two (random and balanced), dispersion, compact, three."""
    rng = random.Random("assemble:%d:%d" % (seed, k))
    f, g = bistable(_u(rng, 0.2, 0.3)), bistable(_u(rng, 0.2, 0.3))
    alpha = _u(rng, 0.8, 1.25)
    bt = _tilde_beta(f, g, alpha)
    beta = round(math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.5)) * bt, 6)
    f1, f2, f3 = (bistable(_u(rng, 0.2, 0.3)) for _ in range(3))
    sigma = _u(rng, 0.7, 0.8, 4)
    alpha1, gamma = _u(rng, 0.8, 1.25), _u(rng, 0.8, 1.25)
    grid_lo = round(-_u(rng, 0.5, 0.6) * g.c_star, 6)
    n_grid = 6
    width = zero_speed_width(f2, sigma)

    two = ["two", "--f", f.text, "--g", g.text, "--alpha", repr(alpha)]
    base = {"f": f, "g": g, "alpha": alpha}
    return [
        Job("two/random", two + ["--beta", repr(beta)], check_two,
            dict(base, beta=beta, balanced=False)),
        Job("two/balanced", two + ["--beta", repr(bt)], check_two,
            dict(base, beta=bt, balanced=True)),
        Job("dispersion/two_beta",
            ["dispersion", "--kind", "two_beta", "--f", f.text, "--g", g.text,
             "--alpha", repr(alpha), "--grid=%r:0:%d" % (grid_lo, n_grid)],
            check_dispersion, dict(base, n=n_grid)),
        Job("compact/c0", ["compact", "--f2", f2.text, "--sigma", repr(sigma), "--c", "0"],
            check_compact, {"f2": f2, "sigma": sigma, "width": width}),
        Job("three/c0",
            ["three", "--f1", f1.text, "--f2", f2.text, "--f3", f3.text,
             "--alpha", repr(alpha1), "--gamma", repr(gamma), "--sigma", repr(sigma),
             "--c", "0"],
            check_three, {"f1": f1, "f2": f2, "f3": f3, "alpha": alpha1, "gamma": gamma,
                          "sigma": sigma, "width": width}),
    ]


def frontframe(seed: int, k: int) -> list:
    """`verify` at the criterion-8 size on a moving and a pinned bistable pair."""
    rng = random.Random("frontframe:%d:%d" % (seed, k))
    f, g = bistable(_u(rng, 0.2, 0.3)), bistable(_u(rng, 0.2, 0.3))
    alpha = _u(rng, 0.8, 1.25)
    beta = round(_u(rng, 0.3, 0.5) * _tilde_beta(f, g, alpha), 6)
    h = bistable(_u(rng, 0.2, 0.3))
    a = _u(rng, 0.8, 1.25)
    return [
        Job("verify/moving",
            ["verify", "--f", f.text, "--g", g.text, "--alpha", repr(alpha),
             "--beta", repr(beta), *PDE_SIZE],
            check_verify, {"pinned": False, "f": f, "g": g}),
        Job("verify/pinned",
            ["verify", "--f", h.text, "--g", h.text, "--alpha", repr(a), "--beta", repr(a),
             *PDE_SIZE],
            check_verify, {"pinned": True, "f": h, "g": h}),
    ]


WORKLOADS = {"speeds": speeds, "assemble": assemble, "frontframe": frontframe}
