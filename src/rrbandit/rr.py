"""Round-based confidence-interval elimination for 1-d continuous bandits.

Round t lays a uniform grid of ceil(L)*2^(t+3) arms over [0,1], pulls every
arm still inside the surviving region often enough that an empirical-mean
confidence interval of half-width 2^-(t+4) holds at level 1 - delta/(2^t n),
and removes the closed 2^-(t+4) neighborhood of every arm whose empirical
mean exceeds the round best by more than 12 * 2^-(t+4). After
D = log2(1/epsilon) rounds the best arm over all rounds is recommended,
which locates the minimizer to within epsilon with probability 1 - delta
for unimodal L-Lipschitz means under sigma-sub-Gaussian noise (pull
counts scale by max(1, sigma)^2, taken from the bandit's sigma).

Round t draws all of its pulls from one stream, rng.child(t), arm after
arm in grid order, so the seed fixes every draw.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .intervals import EPSILON, IntervalSet

REJECT_FACTOR = 12.0  # exclusion threshold in units of the CI half-width


class NoActiveArmsError(RuntimeError):
    """The current round's grid has no point inside the surviving region."""


def ci_half_width(t):
    return 2.0 ** -(t + 4)


def dyadic_depth(epsilon):
    """Number of rounds D with epsilon = 2^-D; rejects non-dyadic epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    d = round(math.log2(1.0 / epsilon))
    if d < 1 or 2.0 ** -d != epsilon:
        raise ValueError(f"epsilon must be 2**-D for an integer D >= 1, got {epsilon}")
    return d


def grid_points(t, lipschitz):
    """Arm grid of round t: ceil(L)*2^(t+3) points, half-spacing off the edges.

    Spacing is 1/(ceil(L)*2^(t+3)) and the first point sits at half that, so
    every x in [0,1] is within 1/(ceil(L)*2^(t+4)) of some grid point. Points
    are exact dyadic rationals whenever ceil(L) is a power of two.
    """
    if int(t) != t or t < 1:
        raise ValueError("round index must be a positive integer")
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    ceil_l = math.ceil(lipschitz)
    count = ceil_l << (t + 3)
    k = np.arange(1, count + 1, dtype=np.float64)
    return (2.0 * k - 1.0) / (ceil_l * 2.0 ** (t + 4))


def samples_per_arm(t, delta, n_arms, sigma=1.0):
    """Pulls per arm for a +-2^-(t+4) CI at level 1 - delta/(2^t n_arms).

    Valid for sigma-sub-Gaussian rewards: the 1-sub-Gaussian count is
    multiplied by max(1, sigma)^2, so any sigma <= 1 gives the same count
    as sigma = 1. For delta large enough that the log goes non-positive (a
    deliberately overconfident setting) the count floors at one pull and
    no coverage guarantee remains.
    """
    if int(t) != t or t < 1:
        raise ValueError("round index must be a positive integer")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if int(n_arms) != n_arms or n_arms < 1:
        raise ValueError("n_arms must be a positive integer")
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and non-negative")
    ell = ci_half_width(t)
    alpha = delta / (2 ** t * int(n_arms))
    scale = max(1.0, sigma) ** 2
    return max(1, math.ceil(2.0 * scale * math.log(2.0 / alpha) / ell ** 2))


@dataclass(frozen=True)
class RRConfig:
    epsilon: float
    delta: float
    lipschitz: float = 1.0
    early_stop_depth1: bool = False

    def __post_init__(self):
        dyadic_depth(self.epsilon)
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite")

    @property
    def depth(self):
        return dyadic_depth(self.epsilon)


@dataclass(frozen=True)
class ArmEstimate:
    round: int
    location: float
    value: float
    pulls: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    n_active: int
    pulls_per_arm: int
    locations: np.ndarray
    values: np.ndarray
    best: ArmEstimate
    excluded: IntervalSet
    surviving_measure: float
    cumulative_samples: int


@dataclass(frozen=True)
class RRState:
    round: int = 0
    surviving: IntervalSet = field(default_factory=IntervalSet.unit)
    best_per_round: Tuple[ArmEstimate, ...] = ()
    total_samples: int = 0
    trace: Tuple[RoundRecord, ...] = ()
    budget_exhausted: bool = False


def active_mask(surviving, points):
    """Boolean mask of grid points inside the surviving region (closed, with tolerance)."""
    mask = np.zeros(points.shape[0], dtype=bool)
    for a, b in surviving.spans:
        lo = np.searchsorted(points, a - EPSILON)
        hi = np.searchsorted(points, b + EPSILON)
        mask[lo:hi] = True
    return mask


def run_round(state, bandit, cfg, rng, budget=None):
    """Execute round state.round + 1 and return the successor state.

    The surviving grid arms are pulled in one sample_means call that
    draws every arm, in grid order, from the round's one stream
    rng.child(t). An arm's draws therefore depend on the arms before it in
    its round, and the seed still fixes them all; how the bandit batches
    the arms never changes a draw. If the round's total pull count would
    exceed the remaining budget, the state is returned unchanged except
    for the budget_exhausted flag.
    """
    t = state.round + 1
    points = grid_points(t, cfg.lipschitz)
    mask = active_mask(state.surviving, points)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise NoActiveArmsError(
            f"round {t}: no grid point inside the surviving region")
    n_t = samples_per_arm(t, cfg.delta, idx.size, bandit.sigma)
    cost = n_t * idx.size
    if budget is not None and state.total_samples + cost > budget:
        return replace(state, budget_exhausted=True)

    locations = points[idx]
    values = bandit.sample_means(locations.tolist(), n_t, rng.child(t))

    best_j = int(np.argmin(values))  # ties resolve to the smallest location
    best = ArmEstimate(t, float(locations[best_j]), float(values[best_j]), n_t)

    radius = ci_half_width(t)
    reject = values - values[best_j] > REJECT_FACTOR * radius
    excluded = IntervalSet(
        [(h - radius, h + radius) for h in locations[reject]])
    surviving = state.surviving.subtract(excluded)
    total = state.total_samples + cost
    record = RoundRecord(t, int(idx.size), n_t, locations, values, best,
                         excluded, surviving.measure(), total)
    return RRState(t, surviving, state.best_per_round + (best,), total,
                   state.trace + (record,), False)


def recommend(state):
    """Best arm over all completed rounds; ties keep the earliest round."""
    best = None
    for arm in state.best_per_round:
        if best is None or arm.value < best.value:
            best = arm
    return best


def run(bandit, cfg, rng, max_depth=None, budget=None, incumbent_value=None):
    """Full elimination run of min(D, max_depth) rounds.

    Returns (location, state); location is None when the budget did not
    even cover round 1. With early_stop_depth1 set and an incumbent_value
    given, rounds beyond the first only run when the best depth-1 CI lower
    bound undercuts the incumbent by at least one CI length.
    """
    depth = cfg.depth if max_depth is None else min(cfg.depth, int(max_depth))
    if depth < 1:
        raise ValueError("depth must be at least one round")
    state = RRState()
    for t in range(1, depth + 1):
        state = run_round(state, bandit, cfg, rng, budget=budget)
        if state.budget_exhausted:
            break
        if (t == 1 and depth > 1 and cfg.early_stop_depth1
                and incumbent_value is not None):
            lcb = state.best_per_round[0].value - ci_half_width(1)
            if not lcb < incumbent_value - 2.0 * ci_half_width(1):
                break
    arm = recommend(state)
    return (arm.location if arm is not None else None), state
