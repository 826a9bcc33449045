"""Reduce d-dimensional optimization to 1-d bandit line searches.

A LinearSlice restricts a bandit to g(s) = f(wrap(p + s*u)) for s in [0,1].
Drivers chain elimination line searches along changing directions: cycling
coordinate directions with classical direction-set updates (powell_driver),
or uniformly random directions with a Metropolis-style or
accept-if-improved rule (random_direction_driver). The incumbent value is
carried between steps as the line's free observation at s = 0.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import rr
from .bandits import Bandit
from .rng import SeededRng

WRAPS = ("periodic", "truncated")


@dataclass(frozen=True)
class LinearSlice:
    base: Tuple[float, ...]
    direction: Tuple[float, ...]
    wrap: str = "periodic"

    def __post_init__(self):
        if len(self.base) != len(self.direction):
            raise ValueError("base and direction dimensions differ")
        if self.wrap not in WRAPS:
            raise ValueError(f"wrap must be one of {WRAPS}")
        if all(u == 0.0 for u in self.direction):
            raise ValueError("direction must be non-zero")

    @property
    def direction_norm(self):
        return math.sqrt(sum(u * u for u in self.direction))

    def point(self, s):
        p = np.asarray(self.base) + float(s) * np.asarray(self.direction)
        if self.wrap == "periodic":
            return np.mod(p, 1.0)
        return np.clip(p, 0.0, 1.0)


class SliceBandit(Bandit):
    """1-d view of a parent bandit along a LinearSlice."""

    def __init__(self, parent, sl, lipschitz):
        self.parent = parent
        self.slice = sl
        self.lipschitz = float(lipschitz)
        self.dimension = 1
        self.sigma = parent.sigma

    def mean(self, s):
        return self.parent.mean(self.slice.point(s))

    def sample_means(self, points, n, rng):
        return self.parent.sample_means(
            [self.slice.point(s) for s in points], n, rng)


@dataclass(frozen=True)
class DriverConfig:
    """Shared driver settings.

    lipschitz scales the line grid through ceil(L * |u|): coarser values
    mean fewer arms per line. delta is the per-line confidence parameter
    fed to the sample-count rule; values above ~1 deliberately shrink the
    confidence intervals below their calibrated size, trading the coverage
    guarantee for speed. q is the rejection temperature of the Metropolis
    acceptance rule, d_max caps line-search depth, epsilon_line is the
    dyadic target resolution of a full-depth line search.
    """

    lipschitz: float = 0.5
    delta: float = 20.0
    q: float = 400.0
    d_max: int = 1
    epsilon_line: float = 2.0 ** -7
    wrap: str = "periodic"
    acceptance: str = "reject"  # "reject" or "aim"
    raw_location_acceptance: bool = False
    early_stop_depth1: bool = False
    max_steps: int = 100_000
    budget: Optional[int] = None

    def __post_init__(self):
        rr.dyadic_depth(self.epsilon_line)
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not self.q >= 0:
            raise ValueError("q must be non-negative")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.wrap not in WRAPS:
            raise ValueError(f"wrap must be one of {WRAPS}")
        if self.acceptance not in ("reject", "aim"):
            raise ValueError("acceptance must be 'reject' or 'aim'")
        if not 0 < self.lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite")


@dataclass(frozen=True)
class LineSearchResult:
    s_hat: float
    g_hat: float
    samples_used: int
    budget_exhausted: bool
    locations: np.ndarray  # probed grid points, incumbent s=0 first
    values: np.ndarray


@dataclass(frozen=True)
class StepRecord:
    step: int
    direction: Tuple[float, ...]
    accepted: bool
    incumbent_value: float
    cumulative_samples: int


@dataclass
class DriverResult:
    point: np.ndarray
    value: float
    samples_used: int
    steps: List[StepRecord] = field(default_factory=list)
    stopped_early: bool = False
    budget_exhausted: bool = False


def rr_line_search(bandit, sl, cfg, rng, incumbent_value, budget=None):
    """Elimination search along a slice, depth capped at cfg.d_max.

    The incumbent value stands in for an observation at s = 0 and wins
    ties, so a flat slice returns s_hat = 0. Returns the empirical
    minimizer over the incumbent and every probed grid arm.
    """
    lips = cfg.lipschitz * sl.direction_norm
    line = SliceBandit(bandit, sl, lips)
    line_cfg = rr.RRConfig(cfg.epsilon_line, cfg.delta, lips,
                           early_stop_depth1=cfg.early_stop_depth1)
    _, state = rr.run(line, line_cfg, rng, max_depth=cfg.d_max,
                      budget=budget, incumbent_value=incumbent_value)
    s_hat, g_hat = 0.0, float(incumbent_value)
    for arm in state.best_per_round:
        if arm.value < g_hat:
            s_hat, g_hat = arm.location, arm.value
    locs = [np.array([0.0])] + [rec.locations for rec in state.trace]
    vals = [np.array([incumbent_value])] + [rec.values for rec in state.trace]
    return LineSearchResult(s_hat, g_hat, state.total_samples,
                            state.budget_exhausted,
                            np.concatenate(locs), np.concatenate(vals))


def _incumbent_pulls(cfg, sigma):
    # same pull count as a depth-1 line arm, so comparisons are like for like
    n_arms = math.ceil(cfg.lipschitz) << 4
    return rr.samples_per_arm(1, cfg.delta, n_arms, sigma)


def _start_result(bandit, start, cfg, rng):
    """Validate the start point and estimate its value once; the result's
    value is NaN when even that is unaffordable."""
    p = np.asarray(start, dtype=np.float64).copy()
    if p.ndim != 1:
        raise ValueError("start point must be a 1-d vector")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("start point must lie in [0,1]^d")
    n0 = _incumbent_pulls(cfg, bandit.sigma)
    if cfg.budget is not None and n0 > cfg.budget:
        return DriverResult(p, math.nan, 0, budget_exhausted=True)
    value = bandit.sample_mean(p, n0, rng.child(0))
    return DriverResult(p, value, n0)


def powell_driver(bandit, start, cfg, rng, stop_condition=None):
    """Direction-set driver: line searches cycle the direction set, and
    after each sweep the direction of largest decrease is replaced by the
    normalized sweep displacement. A line result moves the point only when
    it improves the incumbent estimate.
    """
    res = _start_result(bandit, start, cfg, rng)
    d = res.point.shape[0]
    if d < 2:
        raise ValueError("powell_driver needs dimension >= 2")
    if res.budget_exhausted:
        return res
    directions = [tuple(row) for row in np.eye(d)]
    k = 0
    while k < cfg.max_steps and not res.stopped_early and not res.budget_exhausted:
        decreases = np.zeros(d)
        displacement = np.zeros(d)
        for i in range(d):
            if k >= cfg.max_steps:
                break
            k += 1
            sl = LinearSlice(tuple(res.point), directions[i], cfg.wrap)
            remaining = None if cfg.budget is None else cfg.budget - res.samples_used
            line = rr_line_search(bandit, sl, cfg, rng.child(k), res.value,
                                  budget=remaining)
            res.samples_used += line.samples_used
            accepted = line.s_hat != 0.0 and line.g_hat < res.value
            if accepted:
                decreases[i] = res.value - line.g_hat
                displacement += line.s_hat * np.asarray(directions[i])
                res.point = sl.point(line.s_hat)
                res.value = line.g_hat
            res.steps.append(StepRecord(k, directions[i], accepted,
                                        res.value, res.samples_used))
            if line.budget_exhausted:
                res.budget_exhausted = True
                break
            if stop_condition is not None and stop_condition(res.point):
                res.stopped_early = True
                break
        norm = float(np.linalg.norm(displacement))
        if norm > 0.0 and not (res.stopped_early or res.budget_exhausted):
            directions[int(np.argmax(decreases))] = tuple(displacement / norm)
    return res


def random_direction_driver(bandit, start, cfg, rng, stop_condition=None):
    """Line searches along uniformly random directions.

    acceptance="reject": an improving line minimum always moves the point;
    a worsening one moves it with probability exp(-q * (g_hat - incumbent))
    (or exp(-q * (s_hat - s_prev)) on locations when
    raw_location_acceptance is set). acceptance="aim": the move is accepted
    iff the new estimate beats the previous line's estimate at the nearest
    probed location (first step: beats the incumbent).
    """
    res = _start_result(bandit, start, cfg, rng)
    d = res.point.shape[0]
    if res.budget_exhausted:
        return res
    prev_locations = None
    prev_values = None
    s_prev = 0.0
    for k in range(1, cfg.max_steps + 1):
        gauss = rng.child(k, 0).standard_normal(d)
        norm = float(np.linalg.norm(gauss))
        if norm == 0.0:  # pragma: no cover - probability zero
            continue
        direction = tuple(gauss / norm)
        sl = LinearSlice(tuple(res.point), direction, cfg.wrap)
        remaining = None if cfg.budget is None else cfg.budget - res.samples_used
        line = rr_line_search(bandit, sl, cfg, rng.child(k, 2), res.value,
                              budget=remaining)
        res.samples_used += line.samples_used
        if line.budget_exhausted:
            res.budget_exhausted = True
            res.steps.append(StepRecord(k, direction, False, res.value,
                                        res.samples_used))
            break

        if cfg.acceptance == "reject":
            if line.g_hat < res.value:
                accepted = True
            else:
                if cfg.raw_location_acceptance:
                    exponent = -cfg.q * (line.s_hat - s_prev)
                else:
                    exponent = -cfg.q * (line.g_hat - res.value)
                prob = min(1.0, math.exp(min(exponent, 0.0)))
                accepted = rng.child(k, 1).random() < prob
        else:  # aim
            if prev_locations is None:
                accepted = line.g_hat < res.value
            else:
                nearest = int(np.argmin(np.abs(prev_locations - line.s_hat)))
                accepted = line.g_hat < prev_values[nearest]

        if accepted:
            res.point = sl.point(line.s_hat)
            res.value = line.g_hat
            s_prev = line.s_hat
        else:
            s_prev = 0.0
        prev_locations = line.locations
        prev_values = line.values
        res.steps.append(StepRecord(k, direction, accepted, res.value,
                                    res.samples_used))
        if stop_condition is not None and stop_condition(res.point):
            res.stopped_early = True
            break
    return res
