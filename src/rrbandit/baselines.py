"""Classical stochastic-optimization baselines on N-shot empirical means."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .lines import DriverResult, StepRecord


@dataclass(frozen=True)
class SpsaConfig:
    """Simultaneous-perturbation settings.

    Gains follow the usual guidance: a_k = a / (A + k + 1)^alpha and
    c_k = c / (k + 1)^gamma with alpha = 0.602, gamma = 0.101 and
    A = 0.1 * max_iters. When a is not given it is calibrated as
    0.1 * (A + 1)^alpha so the first update has magnitude 0.1 * |ghat_0|.
    """

    max_iters: int = 200
    shots_per_eval: int = 1
    a: Optional[float] = None
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101
    budget: Optional[int] = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.shots_per_eval < 1:
            raise ValueError("shots_per_eval must be positive")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        for name in ("a", "alpha", "gamma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def gains(self):
        stability = 0.1 * self.max_iters
        a = 0.1 * (stability + 1.0) ** self.alpha if self.a is None else self.a
        return a, stability


def spsa_gradient(y_plus, y_minus, c_k, delta):
    """Gradient estimate from one +-c_k*delta evaluation pair.

    delta has +-1 entries, so dividing by delta_i equals multiplying by it.
    The estimator is even in delta: flipping its sign swaps the two
    evaluations and the quotient is unchanged.
    """
    delta = np.asarray(delta, dtype=np.float64)
    return (y_plus - y_minus) / (2.0 * c_k) * delta


def spsa(bandit, start, cfg, rng, stop_condition=None):
    """SPSA descent on the bandit's N-shot empirical mean, clipped to [0,1]^d.

    Each iteration draws a Rademacher direction from rng.child(k, 0) and
    evaluates the two perturbed points with 2 * shots_per_eval pulls, as
    one sample_means call of the + point then the - point, both drawn
    from rng.child(k, 1).
    """
    theta = np.clip(np.asarray(start, dtype=np.float64), 0.0, 1.0)
    d = theta.shape[0]
    a, stability = cfg.gains()
    shots = cfg.shots_per_eval
    res = DriverResult(theta.copy(), math.nan, 0)
    for k in range(cfg.max_iters):
        if cfg.budget is not None and res.samples_used + 2 * shots > cfg.budget:
            res.budget_exhausted = True
            break
        c_k = cfg.c / (k + 1.0) ** cfg.gamma
        delta = rng.child(k, 0).integers(0, 2, size=d) * 2.0 - 1.0
        pair = [np.clip(theta + c_k * delta, 0.0, 1.0),
                np.clip(theta - c_k * delta, 0.0, 1.0)]
        y_plus, y_minus = bandit.sample_means(pair, shots,
                                              rng.child(k, 1)).tolist()
        res.samples_used += 2 * shots
        ghat = spsa_gradient(y_plus, y_minus, c_k, delta)
        a_k = a / (stability + k + 1.0) ** cfg.alpha
        theta = np.clip(theta - a_k * ghat, 0.0, 1.0)
        res.point = theta.copy()
        res.value = 0.5 * (y_plus + y_minus)
        res.steps.append(StepRecord(k + 1, tuple(delta), True, res.value,
                                    res.samples_used))
        if stop_condition is not None and stop_condition(res.point):
            res.stopped_early = True
            break
    return res


@dataclass(frozen=True)
class PowellBrentConfig:
    """Direction-set Powell with Brent line minimization (scipy backend)."""

    max_iters: int = 50
    shots_per_eval: int = 1
    xtol: float = 1e-4
    ftol: float = 1e-6
    budget: Optional[int] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.shots_per_eval < 1:
            raise ValueError("shots_per_eval must be positive")
        if not (0 <= self.xtol < math.inf and 0 <= self.ftol < math.inf):
            raise ValueError("xtol and ftol must be finite and non-negative")


class _BudgetExhausted(Exception):
    pass


def powell_brent(bandit, start, cfg, rng, stop_condition=None):
    """Powell's method on the N-shot empirical mean, bounded to [0,1]^d.

    Every objective evaluation costs shots_per_eval pulls from a fresh
    child stream. The trace records one row per outer iteration with the
    best noisy value seen so far; stop_condition is checked there too.
    """
    x0 = np.asarray(start, dtype=np.float64)
    d = x0.shape[0]
    shots = cfg.shots_per_eval
    res = DriverResult(x0.copy(), math.nan, 0)
    best = {"x": x0.copy(), "y": math.inf}
    evals = [0]
    iters = [0]

    def objective(x):
        if cfg.budget is not None and res.samples_used + shots > cfg.budget:
            res.budget_exhausted = True
            raise _BudgetExhausted
        evals[0] += 1
        res.samples_used += shots
        y = bandit.sample_mean(np.clip(x, 0.0, 1.0), shots,
                               rng.child(evals[0]))
        if y < best["y"]:
            best["y"] = y
            best["x"] = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return y

    def callback(xk):
        iters[0] += 1
        res.point = np.clip(np.asarray(xk, dtype=np.float64), 0.0, 1.0)
        res.value = best["y"]
        res.steps.append(StepRecord(iters[0], (), True, res.value,
                                    res.samples_used))
        if stop_condition is not None and stop_condition(res.point):
            res.stopped_early = True
            raise StopIteration

    try:
        out = minimize(objective, x0, method="Powell",
                       bounds=[(0.0, 1.0)] * d,
                       options={"maxiter": cfg.max_iters, "xtol": cfg.xtol,
                                "ftol": cfg.ftol, "maxfev": 10 ** 9},
                       callback=callback)
        if not res.stopped_early:
            res.point = np.clip(np.asarray(out.x, dtype=np.float64), 0.0, 1.0)
            res.value = float(out.fun)
    except _BudgetExhausted:
        res.point = best["x"]
        res.value = best["y"]
    return res
