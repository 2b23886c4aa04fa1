"""Traveling waves with free boundaries for reaction-diffusion systems.

Builds semi-wave and compact wave profiles by phase-plane shooting, matches
them across moving interfaces via monotone root finding, and checks the
assembled waves against a front-frame finite-difference simulation.
"""

from .errors import (BracketError, FreewaveError, Infeasible, InvalidReaction,
                     NoSemiWave, StepError)
from .reaction import (ReactionSpec, classify, cubic_bistable, derivative_at,
                       evaluate, from_json, logistic, polynomial, primitive_at,
                       to_json)
from .ode_core import (EventSpec, IntegratorConfig, RootBracket, Trajectory,
                       bisect_predicate, find_root_monotone, integrate)
from .phase_plane import (SemiWave, TrajectoryOutcome, critical_speed_decreasing,
                          critical_speed_increasing, front_profile,
                          profile_residual, semiwave_profile,
                          semiwave_profile_increasing, semiwave_slope,
                          semiwave_slope_increasing, shoot_decreasing,
                          shoot_increasing)
from .compact_wave import (CompactWave, SpeedWindow, apex_shoot, compact_profile,
                           edge_slope_energy, left_slope, right_slope,
                           speed_window, width_energy_quadrature)
from .matching import (CaseTag, DispersionCurve, ThreeSpeciesWave,
                       TwoSpeciesWave, C_l, C_r, D_two, alpha_of_c, beta0_l,
                       beta0_r, beta_l_of_c, beta_of_c, beta_r_of_c,
                       case_classify, dispersion_curve, hat_c1, hat_c3,
                       hat_c_f, solve_three_species, solve_two_species,
                       tilde_alpha, tilde_beta, tilde_beta_l, tilde_beta_r)
from .pde_verify import FrontFrameState, SimReport, initial_state, run, step

__version__ = "0.1.0"

__all__ = [
    "BracketError", "FreewaveError", "Infeasible", "InvalidReaction",
    "NoSemiWave", "StepError",
    "ReactionSpec", "classify", "cubic_bistable", "derivative_at", "evaluate",
    "from_json", "logistic", "polynomial", "primitive_at", "to_json",
    "EventSpec", "IntegratorConfig", "RootBracket", "Trajectory",
    "bisect_predicate", "find_root_monotone", "integrate",
    "SemiWave", "TrajectoryOutcome", "critical_speed_decreasing",
    "critical_speed_increasing", "front_profile", "profile_residual",
    "semiwave_profile", "semiwave_profile_increasing", "semiwave_slope",
    "semiwave_slope_increasing", "shoot_decreasing", "shoot_increasing",
    "CompactWave", "SpeedWindow", "apex_shoot", "compact_profile",
    "edge_slope_energy", "left_slope", "right_slope", "speed_window",
    "width_energy_quadrature",
    "CaseTag", "DispersionCurve", "ThreeSpeciesWave", "TwoSpeciesWave",
    "C_l", "C_r", "D_two", "alpha_of_c", "beta0_l", "beta0_r", "beta_l_of_c",
    "beta_of_c", "beta_r_of_c", "case_classify", "dispersion_curve", "hat_c1",
    "hat_c3", "hat_c_f", "solve_three_species", "solve_two_species",
    "tilde_alpha", "tilde_beta", "tilde_beta_l", "tilde_beta_r",
    "FrontFrameState", "SimReport", "initial_state", "run", "step",
    "__version__",
]
