"""The 1-d staircase benchmark and its runner.

The target is a piecewise-constant coarsening of a two-tone sine profile
with a narrow slope-2 wedge cut into the best cell, so the global minimum
sits on a feature much finer than the 1/20 cell width. Grid elimination
resolves the wedge; descent methods started at 0.5 settle in a cell far
from it.
"""

import functools
import math
import os

import numpy as np

from .. import rr
from ..baselines import spsa
from ..bandits import GaussianBandit
from ..intervals import EPSILON
from ..rng import SeededRng
from .config import SPSA_KEYS, ConfigError, checked, expand_ints, spsa_config
from .output import write_csv

N_CELLS = 20
WEDGE_SLOPE = 2.0

RUN_HEADER = ["experiment", "optimizer", "seed", "x_hat", "distance",
              "samples_spent", "status"]
TRACE_HEADER = ["experiment", "optimizer", "seed", "step",
                "cumulative_samples", "x_hat", "distance"]


def smooth_profile(x):
    """Two-tone sine landscape on [0,1], values in [1/2, 1]."""
    x = np.asarray(x, dtype=np.float64)
    return 1.0 - (np.sin(13.0 * x) * np.sin(27.0 * x) + 1.0) / 4.0


# the smooth profile's global minimizer: the root of its slope, bracketed
# by a dense scan (tests/test_harness.py re-derives it bit for bit)
X_STAR = 0.867526208251332


def smooth_minimizer():
    """Global minimizer of the smooth profile, X_STAR."""
    return X_STAR


# staircase level of cell i at index i - 1
_STAIRS = np.array([float(smooth_profile(i / N_CELLS))
                    for i in range(1, N_CELLS + 1)])
_WEDGE_BASE = float(smooth_profile(X_STAR))


def toy_objective(x):
    """min(staircase, wedge), elementwise over x in [0,1].

    The staircase is the smooth profile at the centre of x's 1/20 cell
    (cells 1..20; the edge cells absorb the overhang), and the wedge
    re-exposes the true minimizer.
    """
    x = np.asarray(x, dtype=np.float64)
    # np.clip's values, without its wrapper's per-call cost
    cell = np.minimum(np.maximum(np.floor(N_CELLS * x + 0.5), 1.0), N_CELLS)
    wedge = _WEDGE_BASE + WEDGE_SLOPE * np.abs(x - X_STAR)
    return np.minimum(_STAIRS[cell.astype(np.intp) - 1], wedge)


def make_toy_bandit(sigma=1.0):
    return GaussianBandit(toy_objective, sigma=sigma)


def _rr_setup(spec, budget):
    settings = {"epsilon": 2.0 ** -7, "delta": 0.1, "lipschitz": WEDGE_SLOPE}
    settings.update(spec.fields("optimizer", epsilon=float, delta=float,
                                lipschitz=float))
    if not 0 < settings["delta"] < 1:  # 1 - delta is a success probability
        raise ValueError(f"delta must be in (0, 1), got {settings['delta']}")
    return rr.RRConfig(**settings), budget


def _spsa_setup(spec, budget):
    settings = spec.fields("optimizer", start=float, **SPSA_KEYS)
    start = settings.pop("start", 0.5)
    if not 0.0 <= start <= 1.0:
        raise ValueError(f"start must lie in [0, 1], got {start}")
    cfg = spsa_config(settings, budget, shots_per_eval=100_000, max_iters=200)
    return cfg, np.array([start])


def _run_rr(cfg, budget, bandit, seed):
    rng = SeededRng(seed).child(2)
    x_hat, state = rr.run(bandit, cfg, rng, budget=budget)
    trace = []
    best = None
    for rec in state.trace:
        if best is None or rec.best.value < best.value:
            best = rec.best
        trace.append((rec.round, rec.cumulative_samples, best.location,
                      abs(best.location - X_STAR)))
    status = "budget" if state.budget_exhausted else "ok"
    return x_hat, state.total_samples, status, trace


def _run_spsa(cfg, start, bandit, seed):
    rng = SeededRng(seed).child(2)
    points = []

    def log_point(point):
        points.append(float(point[0]))
        return False

    res = spsa(bandit, start, cfg, rng, stop_condition=log_point)
    trace = [(step.step, step.cumulative_samples, x, abs(x - X_STAR))
             for step, x in zip(res.steps, points)]
    x_hat = float(res.point[0])
    status = "budget" if res.budget_exhausted else "ok"
    return x_hat, res.samples_used, status, trace


# name -> (setup, runner): setup(spec, budget) builds the runner's leading
# arguments, and runner(*those, bandit, seed) runs one seed. The runners
# call their drivers through this module's globals.
OPTIMIZERS = {"rr": (_rr_setup, _run_rr), "spsa": (_spsa_setup, _run_spsa)}


def run_toy(spec):
    """Run the staircase benchmark for every seed; write runs and trace CSVs.

    Returns a dict with the output paths; the per-seed rows are in runs.csv.
    """
    run = spec.fields("run", optimizer=str, seeds=str, budget=int, out=str,
                      workers=int)
    optimizer = run.get("optimizer", "rr")
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"run.optimizer must be one of {tuple(OPTIMIZERS)}, "
                          f"got {optimizer!r}")
    if run.get("workers", 1) != 1:
        raise ConfigError("run.workers must be 1: toy runs its seeds serially")
    seeds = expand_ints(run.get("seeds", "0"), "run.seeds")
    budget = run.get("budget", 0)  # 0: no budget
    if budget < 0:
        raise ConfigError(f"run.budget must be non-negative, got {budget}")
    out_dir = run.get("out", os.path.join("results", "toy"))

    bandit = checked("instance", make_toy_bandit,
                     **spec.fields("instance", sigma=float))
    setup, run_seed = OPTIMIZERS[optimizer]
    args = checked("optimizer", setup, spec, budget or None)
    if optimizer == "rr":
        # the deepest round, on its full grid, pulls the most per arm: a
        # depth whose count overflows there even at sigma = 1, or else a
        # sigma whose count does, is refused before any seed. With no budget
        # a run also reaches round D itself, refused when its grid holds
        # more than 2**52 arms, or when D >= 41: round D searches what round
        # D - 1 kept, about 2**-(D - 1) wide, and past round 40 that is
        # narrower than EPSILON, which IntervalSet.subtract drops
        cfg = args[0]
        arms = rr.grid_size(cfg.depth, cfg.lipschitz)
        if not budget and (arms > rr.MAX_ARMS
                           or 2.0 ** (1 - cfg.depth) < EPSILON):
            raise ConfigError(
                f"optimizer.epsilon: unbudgeted, D = {cfg.depth} must be "
                f"<= 40 and lay <= 2**52 arms ({arms})")
        for key, sigma in (("optimizer.epsilon", 1.0),
                           ("instance.sigma", bandit.sigma)):
            checked(key, rr.samples_per_arm, cfg.depth, cfg.delta, arms, sigma)
    runner = functools.partial(run_seed, *args, bandit)
    run_rows, trace_rows = [], []
    for seed in seeds:
        x_hat, samples, status, trace = runner(seed)
        run_rows.append({
            "experiment": "toy", "optimizer": optimizer, "seed": seed,
            "x_hat": float(x_hat) if x_hat is not None else math.inf,
            "distance": (abs(x_hat - X_STAR) if x_hat is not None
                         else math.inf),
            "samples_spent": samples, "status": status,
        })
        for step, cumulative, x, dist in trace:
            trace_rows.append({
                "experiment": "toy", "optimizer": optimizer, "seed": seed,
                "step": step, "cumulative_samples": cumulative,
                "x_hat": x, "distance": dist,
            })
    runs_path = write_csv(os.path.join(out_dir, "runs.csv"),
                          RUN_HEADER, run_rows)
    trace_path = write_csv(os.path.join(out_dir, "trace.csv"),
                           TRACE_HEADER, trace_rows)
    return {"runs": runs_path, "trace": trace_path}
