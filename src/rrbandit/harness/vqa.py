"""Sample-complexity-to-threshold experiments on simulated circuit costs.

For each (size, seed) pair a fresh instance is built, parameters start
uniform-random, and the chosen optimizer runs until the exact expected
cost of its incumbent falls to the threshold or the shot budget is spent.
Crossing is detected on the exact simulated expectation (an oracle call,
ledgered separately from the shot budget), which removes detection noise
from the comparison. Censored runs enter the quantiles as +inf; a size
whose crossing rate drops below one half is marked failed.
"""

import functools
import itertools
import math
import os

import numpy as np

from ..baselines import PowellBrentConfig, powell_brent, spsa
from ..lines import DriverConfig, powell_driver, random_direction_driver
from ..qsim import MAX_QUBITS, PqcBandit, QaoaBandit, erdos_renyi
from ..rng import SeededRng
from .config import SPSA_KEYS, ConfigError, checked, expand_ints, spsa_config
from .output import write_csv

VQA_EXPERIMENTS = ("pqc", "qaoa")
DEFAULT_THRESHOLDS = {"pqc": 0.4, "qaoa": 0.2}
DEFAULT_BUDGET = 10_000_000
# the chance that every draw is edgeless is (1 - edge_prob)^(pairs * this),
# 2^-1000 at the default edge_prob on the smallest graph
MAX_GRAPH_DRAWS = 1000

RUN_HEADER = ["experiment", "optimizer", "size", "seed", "instance",
              "status", "n_total", "samples_spent", "oracle_evals",
              "final_cost"]
AGG_HEADER = ["experiment", "optimizer", "size", "n_runs", "n_crossed",
              "median", "q25", "q75", "status"]


def build_instance(experiment, size, spec, rng):
    """Construct the per-run bandit; qaoa draws a fresh random graph."""
    if experiment == "pqc":
        if not 1 <= size <= MAX_QUBITS:
            raise ConfigError(f"pqc size {size} outside 1..{MAX_QUBITS}")
        bandit = checked("instance", PqcBandit, size,
                         **spec.fields("instance", layers=int))
        return bandit, f"pqc-n{size}-l{bandit.layers}"
    if experiment == "qaoa":
        if not 2 <= size <= MAX_QUBITS:
            raise ConfigError(f"qaoa size {size} outside 2..{MAX_QUBITS}")
        settings = spec.fields("instance", edge_prob=float, layers=int)
        edge_prob = settings.pop("edge_prob", 0.5)
        for _ in range(MAX_GRAPH_DRAWS):
            graph = checked("instance", erdos_renyi, size, rng, edge_prob)
            if graph.m:  # an edgeless draw has no cut to score
                break
        else:
            raise ConfigError(
                f"instance.edge_prob={edge_prob!r} drew no edge on {size} "
                f"vertices in {MAX_GRAPH_DRAWS} graphs")
        bandit = checked("instance", QaoaBandit, graph, **settings)
        return bandit, f"qaoa-n{size}-m{graph.m}"
    raise ConfigError(f"unknown experiment {experiment!r}")


def _driver_config(acceptance, spec, budget):
    return DriverConfig(acceptance=acceptance, budget=budget, **spec.fields(
        "optimizer", lipschitz=float, delta=float, d_max=int,
        epsilon_line=float, wrap=str, early_stop_depth1=bool, max_steps=int))


def _spsa_config(spec, budget):
    return spsa_config(spec.fields("optimizer", **SPSA_KEYS), budget,
                       shots_per_eval=10_000)


def _powell_brent_config(spec, budget):
    settings = spec.fields("optimizer", max_iters=int, shots_per_eval=int,
                           xtol=float, ftol=float)
    settings.setdefault("shots_per_eval", 10_000)
    return PowellBrentConfig(budget=budget, **settings)


# name -> (config builder, driver). The driver is named, not held, and
# looked up among this module's globals when a job runs, so a wrapper
# patched over the global is the one that runs.
OPTIMIZERS = {
    "rr_powell": (functools.partial(_driver_config, "reject"), "powell_driver"),
    "rr_reject": (functools.partial(_driver_config, "reject"),
                  "random_direction_driver"),
    "rr_aim": (functools.partial(_driver_config, "aim"),
               "random_direction_driver"),
    "spsa": (_spsa_config, "spsa"),
    "powell_brent": (_powell_brent_config, "powell_brent"),
}


def optimizer_config(spec, optimizer, budget):
    """The optimizer's config object, built from [optimizer] and the budget.

    run_vqa builds it once, before any job runs, so a rejected value is a
    ConfigError up front.
    """
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"run.optimizer must be one of {tuple(OPTIMIZERS)}, "
                          f"got {optimizer!r}")
    return checked("optimizer", OPTIMIZERS[optimizer][0], spec, budget)


def run_single(experiment, optimizer, size, seed, threshold, config, spec):
    """One seeded run; returns the runs.csv row as a dict.

    config is optimizer_config(spec, optimizer, budget). Reproducibility
    comes from the (seed, size) derived stream: child 0 builds the
    instance, child 1 draws the start point, child 2 feeds the optimizer.
    samples_spent is the driver's own ledger, res.samples_used: every
    pull it drew through the bandit interface, 0 when the start crosses.
    oracle_evals counts crossing checks. A check at the point checked last
    (a rejected step leaves the incumbent unchanged) and final_cost read
    the exact mean that the bandit holds for that point.
    """
    run_rng = SeededRng(seed, key=(size,))
    bandit, label = build_instance(experiment, size, spec, run_rng.child(0))
    if optimizer == "rr_powell" and bandit.dimension < 2:
        raise ConfigError(f"rr_powell needs at least 2 parameters, {label} has 1")
    start = run_rng.child(1).random(bandit.dimension)
    oracle = {"evals": 0}

    def crossed(point):
        oracle["evals"] += 1
        return bandit.mean(point) <= threshold

    if crossed(start):
        point, did_cross, spent = start, True, 0
    else:
        driver = globals()[OPTIMIZERS[optimizer][1]]
        res = driver(bandit, start, config, run_rng.child(2),
                     stop_condition=crossed)
        point, did_cross = res.point, res.stopped_early
        spent = res.samples_used

    return {
        "experiment": experiment, "optimizer": optimizer, "size": size,
        "seed": seed, "instance": label,
        "status": "crossed" if did_cross else "censored",
        "n_total": spent if did_cross else math.inf,
        "samples_spent": spent,
        "oracle_evals": oracle["evals"],
        "final_cost": float(bandit.mean(point)),
    }


def _worker(job):
    return run_single(*job)


def midpoint_quantile(values, q):
    """Midpoint-interpolated quantile that tolerates +inf entries.

    numpy's percentile interpolates as a + (b-a)*t, which turns two +inf
    neighbors into nan; averaging the two bracketing order statistics
    directly keeps inf arithmetic well defined.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("need at least one value")
    h = (ordered.size - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(ordered[lo])
    return float(0.5 * (ordered[lo] + ordered[hi]))


def aggregate(rows):
    """Median and quartiles of n_total per size, censored runs as +inf."""
    out = []
    by_size = {}
    for row in rows:
        by_size.setdefault(row["size"], []).append(row)
    for size in sorted(by_size):
        group = by_size[size]
        values = np.array([float(row["n_total"]) for row in group])
        n_crossed = int(np.isfinite(values).sum())
        q25, median, q75 = (midpoint_quantile(values, q)
                            for q in (0.25, 0.5, 0.75))
        out.append({
            "experiment": group[0]["experiment"],
            "optimizer": group[0]["optimizer"],
            "size": size, "n_runs": len(group), "n_crossed": n_crossed,
            "median": median, "q25": q25, "q75": q75,
            "status": "ok" if 2 * n_crossed >= len(group) else "failed",
        })
    return out


def run_vqa(experiment, spec):
    """Run the (size, seed) grid for one optimizer; write runs + aggregate CSVs."""
    if experiment not in VQA_EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {VQA_EXPERIMENTS}")
    run = spec.fields("run", optimizer=str, threshold=float, budget=int,
                      workers=int, sizes=str, seeds=str, out=str)
    optimizer = run.get("optimizer", "rr_powell")
    threshold = run.get("threshold", DEFAULT_THRESHOLDS[experiment])
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"run.threshold must be in (0,1), got {threshold}")
    budget = run.get("budget", DEFAULT_BUDGET)
    if budget < 1:
        raise ConfigError("run.budget must be positive")
    workers = run.get("workers", 1)
    if workers < 1:
        raise ConfigError(f"run.workers must be at least 1, got {workers}")
    sizes = expand_ints(run.get("sizes", "4"), "run.sizes")
    seeds = expand_ints(run.get("seeds", "0"), "run.seeds")
    out_dir = run.get("out", os.path.join("results", experiment))

    config = optimizer_config(spec, optimizer, budget)
    jobs = [(experiment, optimizer, size, seed, threshold, config, spec)
            for size, seed in itertools.product(sizes, seeds)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, jobs))
    else:
        rows = [_worker(job) for job in jobs]
    rows.sort(key=lambda row: (row["size"], row["seed"]))

    agg_rows = aggregate(rows)
    runs_path = write_csv(os.path.join(out_dir, "runs.csv"),
                          RUN_HEADER, rows)
    agg_path = write_csv(os.path.join(out_dir, "aggregate.csv"),
                         AGG_HEADER, agg_rows)
    return {"runs": runs_path, "aggregate": agg_path, "rows": rows,
            "aggregates": agg_rows}
