"""Continuous-bandit optimization toolkit.

Core pieces: a round-based confidence-interval elimination learner for
1-d continuous bandits (rr), line-search drivers that lift it to many
dimensions (lines), SPSA and Powell-Brent baselines (baselines),
instance-specific sample-complexity bound calculators (bounds), and a
shot-level statevector simulator providing circuit-cost bandits (qsim).
The harness subpackage runs and aggregates seeded experiments from spec
files; see the rrbandit command-line entry point.
"""

from .bandits import Bandit, GaussianBandit
from .intervals import EPSILON, IntervalSet
from .rng import SeededRng
from .rr import (ArmEstimate, NoActiveArmsError, RRConfig, RRState,
                 ci_half_width, dyadic_depth, recommend, run, run_round,
                 samples_per_arm)

__version__ = "0.1.0"

__all__ = [
    "ArmEstimate", "Bandit", "EPSILON", "GaussianBandit", "IntervalSet",
    "NoActiveArmsError", "RRConfig", "RRState", "SeededRng", "ci_half_width",
    "dyadic_depth", "recommend", "run", "run_round", "samples_per_arm",
]
