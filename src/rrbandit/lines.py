"""Reduce d-dimensional optimization to 1-d bandit line searches.

A SliceBandit restricts a bandit to g(s) = f(wrap(p + s*u)) for s in [0,1].
Drivers chain elimination line searches along changing directions: cycling
coordinate directions with classical direction-set updates (powell_driver),
or uniformly random directions with an improvement or nearest-probe
acceptance rule (random_direction_driver). The incumbent value is carried
between steps as the line's free observation at s = 0.

A driver run draws everything from its one stream rng, in order: the start
estimate, then each step's direction (random_direction_driver) and each
line's rounds, whose arms come in grid order. So an arm's draws depend on
every draw before it in its run, and the seed still fixes them all.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import rr
from .bandits import Bandit

WRAPS = ("periodic", "truncated")


class SliceBandit(Bandit):
    """The 1-d bandit g(s) = parent(wrap(base + s * direction)), s in [0,1]."""

    def __init__(self, parent, base, direction, wrap="periodic"):
        if len(base) != len(direction):
            raise ValueError("base and direction dimensions differ")
        if wrap not in WRAPS:
            raise ValueError(f"wrap must be one of {WRAPS}")
        if all(u == 0.0 for u in direction):
            raise ValueError("direction must be non-zero")
        self.parent = parent
        self.base = base
        self.direction = direction
        self.wrap = wrap
        self.sigma = parent.sigma

    @property
    def direction_norm(self):
        return math.sqrt(sum(u * u for u in self.direction))

    def point(self, s):
        """The point at s, or the (k, d) points at a (k,) array s."""
        p = np.asarray(self.base) + np.multiply.outer(s, self.direction)
        if self.wrap == "periodic":
            return np.mod(p, 1.0)
        return np.clip(p, 0.0, 1.0)

    def sample_means(self, points, n, rng):
        return self.parent.sample_means(self.point(points), n, rng)


@dataclass(frozen=True)
class DriverConfig:
    """Shared driver settings.

    lipschitz scales the line grid through ceil(L * |u|): coarser values
    mean fewer arms per line. delta is the per-line confidence parameter
    fed to the sample-count rule; values above ~1 deliberately shrink the
    confidence intervals below their calibrated size, trading the coverage
    guarantee for speed. d_max caps line-search depth, epsilon_line is
    the dyadic target resolution of a full-depth line search,
    early_stop_depth1 lets a line search stop after round 1 (see
    rr_line_search), and acceptance picks random_direction_driver's rule.
    """

    lipschitz: float = 0.5
    delta: float = 20.0
    d_max: int = 1
    epsilon_line: float = 2.0 ** -7
    wrap: str = "periodic"
    acceptance: str = "reject"  # "reject" or "aim"
    early_stop_depth1: bool = False
    max_steps: int = 100_000
    budget: Optional[int] = None

    def __post_init__(self):
        # a line takes L * |u|, and a driver's |u| is 1 up to rounding
        # (below 1 + 2^-30 in under 2^22 dimensions): no line fails mid-run
        rr.RRConfig(self.epsilon_line, self.delta,
                    self.lipschitz * (1.0 + 2.0 ** -30))
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.wrap not in WRAPS:
            raise ValueError(f"wrap must be one of {WRAPS}")
        if self.acceptance not in ("reject", "aim"):
            raise ValueError("acceptance must be 'reject' or 'aim'")


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


def rr_line_search(line, cfg, rng, incumbent_value, budget=None):
    """Elimination search along a SliceBandit, min(D, cfg.d_max) rounds.

    The line's grids take lipschitz cfg.lipschitz * |u|. With
    cfg.early_stop_depth1, rounds beyond the first only run when the best
    depth-1 CI lower bound undercuts the incumbent by at least one CI
    length. The incumbent value stands in for an observation at s = 0 and
    wins ties, so a flat line returns s_hat = 0. Returns the empirical
    minimizer over the incumbent and every probed grid arm. Every round
    draws in order from rng, the driver run's one stream.
    """
    line_cfg = rr.RRConfig(cfg.epsilon_line, cfg.delta,
                           cfg.lipschitz * line.direction_norm)
    state = rr.RRState()
    for t in range(1, min(line_cfg.depth, cfg.d_max) + 1):
        state = rr.run_round(state, line, line_cfg, rng, budget=budget)
        if state.budget_exhausted:
            break
        if t == 1 and cfg.early_stop_depth1:
            lcb = state.trace[0].best.value - rr.ci_half_width(1)
            if not lcb < incumbent_value - 2.0 * rr.ci_half_width(1):
                break
    s_hat, g_hat = 0.0, float(incumbent_value)
    best = rr.recommend(state)
    if best is not None and best.value < g_hat:
        s_hat, g_hat = best.location, best.value
    locs = [np.array([0.0])] + [rec.locations for rec in state.trace]
    vals = [np.array([incumbent_value])] + [rec.values for rec in state.trace]
    return LineSearchResult(s_hat, g_hat, state.total_samples,
                            state.budget_exhausted,
                            np.concatenate(locs), np.concatenate(vals))


def _start_result(bandit, start, cfg, rng):
    """Validate the start point and estimate its value once, the run's
    first draw from rng; the result's value is NaN when even that is
    unaffordable."""
    p = np.asarray(start, dtype=np.float64).copy()
    if p.ndim != 1:
        raise ValueError("start point must be a 1-d vector")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("start point must lie in [0,1]^d")
    # a depth-1 line arm's pull count, so comparisons are like for like
    n0 = rr.samples_per_arm(1, cfg.delta, rr.grid_size(1, cfg.lipschitz),
                            bandit.sigma)
    if cfg.budget is not None and n0 > cfg.budget:
        return DriverResult(p, math.nan, 0, budget_exhausted=True)
    value = bandit.sample_mean(p, n0, rng)
    return DriverResult(p, value, n0)


def powell_driver(bandit, start, cfg, rng, stop_condition=None):
    """Direction-set driver: line searches cycle the direction set, and
    after each sweep the direction of largest decrease is replaced by the
    normalized sweep displacement. A line result moves the point only when
    it improves the incumbent estimate. Every line draws from rng, after
    the start estimate and the lines before it.
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
            sl = SliceBandit(bandit, tuple(res.point), directions[i],
                             cfg.wrap)
            remaining = None if cfg.budget is None else cfg.budget - res.samples_used
            line = rr_line_search(sl, cfg, rng, res.value,
                                  budget=remaining)
            res.samples_used += line.samples_used
            accepted = line.g_hat < res.value
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

    acceptance="reject": the point moves to the line minimum iff it beats
    the incumbent. rr_line_search returns the incumbent itself when no
    probed arm beats it, so a step that is not accepted leaves the point
    where it was. acceptance="aim": the move is accepted iff the new
    estimate beats the previous line's estimate at the nearest probed
    location (first step: beats the incumbent). Each step draws its
    direction and then its line from rng, after every step before it.
    """
    res = _start_result(bandit, start, cfg, rng)
    d = res.point.shape[0]
    if res.budget_exhausted:
        return res
    prev_locations = None
    prev_values = None
    for k in range(1, cfg.max_steps + 1):
        gauss = rng.standard_normal(d)
        norm = float(np.linalg.norm(gauss))
        if norm == 0.0:  # pragma: no cover - probability zero
            continue
        direction = tuple(gauss / norm)
        sl = SliceBandit(bandit, tuple(res.point), direction, cfg.wrap)
        remaining = None if cfg.budget is None else cfg.budget - res.samples_used
        line = rr_line_search(sl, cfg, rng, res.value,
                              budget=remaining)
        res.samples_used += line.samples_used
        if line.budget_exhausted:
            res.budget_exhausted = True
            res.steps.append(StepRecord(k, direction, False, res.value,
                                        res.samples_used))
            break

        if cfg.acceptance == "reject" or prev_locations is None:
            accepted = line.g_hat < res.value
        else:  # aim
            nearest = int(np.argmin(np.abs(prev_locations - line.s_hat)))
            accepted = line.g_hat < prev_values[nearest]

        if accepted:
            res.point = sl.point(line.s_hat)
            res.value = line.g_hat
        prev_locations = line.locations
        prev_values = line.values
        res.steps.append(StepRecord(k, direction, accepted, res.value,
                                    res.samples_used))
        if stop_condition is not None and stop_condition(res.point):
            res.stopped_early = True
            break
    return res
