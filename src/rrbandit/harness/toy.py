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
from scipy.optimize import brentq

from .. import rr
from ..baselines import spsa
from ..bandits import GaussianBandit
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


def _profile_slope(x):
    return -(13.0 * math.cos(13.0 * x) * math.sin(27.0 * x)
             + 27.0 * math.sin(13.0 * x) * math.cos(27.0 * x)) / 4.0


@functools.lru_cache(maxsize=1)
def smooth_minimizer():
    """Global minimizer of the smooth profile, located once per process.

    A dense scan brackets the minimum, then the stationary point is
    pinned down as the slope's root; both steps are deterministic.
    """
    grid = np.linspace(0.0, 1.0, 20001)
    i = int(np.argmin(smooth_profile(grid)))
    lo = grid[max(i - 2, 0)]
    hi = grid[min(i + 2, grid.size - 1)]
    return float(brentq(_profile_slope, lo, hi, xtol=1e-15))


def staircase_cell(x):
    """Cell index 1..20 for x in [0,1]; edge cells absorb the overhang."""
    i = int(math.floor(N_CELLS * float(x) + 0.5))
    return min(max(i, 1), N_CELLS)


# staircase level of cell i at index i - 1
_STAIRS = tuple(float(smooth_profile(i / N_CELLS))
                for i in range(1, N_CELLS + 1))


def staircase(x):
    """Smooth profile sampled at the center of x's cell."""
    return _STAIRS[staircase_cell(x) - 1]


@functools.lru_cache(maxsize=1)
def _wedge_base():
    return float(smooth_profile(smooth_minimizer()))


def toy_objective(x):
    """min(staircase, wedge): the wedge re-exposes the true minimizer."""
    if type(x) is not float:  # pulls pass floats; skip numpy for them
        x = float(np.squeeze(np.asarray(x, dtype=np.float64)))
    x_star = smooth_minimizer()
    wedge = _wedge_base() + WEDGE_SLOPE * abs(x - x_star)
    return min(staircase(x), wedge)


def make_toy_bandit(sigma=1.0):
    return GaussianBandit(toy_objective, lipschitz=WEDGE_SLOPE, sigma=sigma)


def _rr_setup(spec, budget):
    settings = {"epsilon": 2.0 ** -7, "delta": 0.1, "lipschitz": WEDGE_SLOPE}
    settings.update(spec.fields("optimizer", epsilon=float, delta=float,
                                lipschitz=float))
    return rr.RRConfig(**settings), budget


def _spsa_setup(spec, budget):
    settings = spec.fields("optimizer", start=float, **SPSA_KEYS)
    start = settings.pop("start", 0.5)
    cfg = spsa_config(settings, budget, shots_per_eval=100_000, max_iters=200)
    return cfg, np.array([start])


def _run_rr(cfg, budget, bandit, seed):
    rng = SeededRng(seed).child(2)
    x_hat, state = rr.run(bandit, cfg, rng, budget=budget)
    x_star = smooth_minimizer()
    trace = []
    best = None
    for rec in state.trace:
        if best is None or rec.best.value < best.value:
            best = rec.best
        trace.append((rec.round, rec.cumulative_samples, best.location,
                      abs(best.location - x_star)))
    status = "budget" if state.budget_exhausted else "ok"
    return x_hat, state.total_samples, status, trace


def _run_spsa(cfg, start, bandit, seed):
    rng = SeededRng(seed).child(2)
    points = []

    def log_point(point):
        points.append(float(point[0]))
        return False

    res = spsa(bandit, start, cfg, rng, stop_condition=log_point)
    x_star = smooth_minimizer()
    trace = [(step.step, step.cumulative_samples, x, abs(x - x_star))
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

    Returns a dict with the output paths and the per-seed summary rows.
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

    x_star = smooth_minimizer()
    bandit = checked("instance", make_toy_bandit,
                     **spec.fields("instance", sigma=float))
    setup, run_seed = OPTIMIZERS[optimizer]
    runner = functools.partial(
        run_seed, *checked("optimizer", setup, spec, budget or None), bandit)
    run_rows, trace_rows = [], []
    for seed in seeds:
        x_hat, samples, status, trace = runner(seed)
        run_rows.append({
            "experiment": "toy", "optimizer": optimizer, "seed": seed,
            "x_hat": float(x_hat) if x_hat is not None else math.inf,
            "distance": (abs(x_hat - x_star) if x_hat is not None
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
    return {"runs": runs_path, "trace": trace_path, "rows": run_rows,
            "x_star": x_star}
