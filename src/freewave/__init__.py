"""Traveling waves with free boundaries for reaction-diffusion systems.

Builds semi-wave and compact wave profiles by phase-plane shooting, matches
them across moving interfaces via monotone root finding, and checks the
assembled waves against a front-frame finite-difference simulation.

The package root exports the names of the README's API session and the
error types; everything else is imported from its own module.
"""

from .errors import (BracketError, FreewaveError, Infeasible, InvalidReaction,
                     NoSemiWave, StepError)
from .matching import solve_two_species
from .phase_plane import profile_residual, semiwave_profile
from .reaction import cubic_bistable, logistic

__version__ = "0.1.0"

__all__ = [
    "BracketError", "FreewaveError", "Infeasible", "InvalidReaction",
    "NoSemiWave", "StepError",
    "cubic_bistable", "logistic", "profile_residual", "semiwave_profile",
    "solve_two_species",
    "__version__",
]
