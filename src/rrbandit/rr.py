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

The rejected arms' neighborhoods share the round's radius and come in
grid order, so a round merges them in one pass (merged_neighborhoods),
each exactly when IntervalSet's constructor would, and hands IntervalSet
a few merged spans instead of one per arm. The excluded set, and every
bit after it, is the one the per-arm spans give.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Tuple

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
    d = round(-math.log2(epsilon))
    if d < 1 or 2.0 ** -d != epsilon:
        raise ValueError(f"epsilon must be 2**-D for an integer D >= 1, got {epsilon}")
    return d


def grid_size(t, lipschitz):
    """Arms in round t's grid: ceil(L)*2^(t+3)."""
    return math.ceil(lipschitz) << (t + 3)


def grid_points(t, lipschitz):
    """Arm grid of round t: ceil(L)*2^(t+3) points, half-spacing off the edges.

    Spacing is 1/(ceil(L)*2^(t+3)) and the first point sits at half that, so
    every x in [0,1] is within 1/(ceil(L)*2^(t+4)) of some grid point. Points
    are exact dyadic rationals whenever ceil(L) is a power of two. The
    array is built once per (t, ceil(L)) and shared, so it is read-only.
    """
    if int(t) != t or t < 1:
        raise ValueError("round index must be a positive integer")
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    return _grid(int(t), math.ceil(lipschitz))


@functools.lru_cache(maxsize=32)
def _grid(t, ceil_l):
    count = grid_size(t, ceil_l)
    k = np.arange(1, count + 1, dtype=np.float64)
    points = (2.0 * k - 1.0) / (ceil_l * 2.0 ** (t + 4))
    points.flags.writeable = False
    return points


def samples_per_arm(t, delta, n_arms, sigma=1.0):
    """Pulls per arm for a +-2^-(t+4) CI at level 1 - delta/(2^t n_arms).

    Valid for sigma-sub-Gaussian rewards: the 1-sub-Gaussian count is
    multiplied by max(1, sigma)^2, so any sigma <= 1 gives the same count
    as sigma = 1. For delta large enough that the log goes non-positive (a
    deliberately overconfident setting) the count floors at one pull and
    no coverage guarantee remains. A count that is not finite (a sigma
    so large that it overflows) raises ValueError.
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
    try:  # 2^t * n_arms, sigma^2 or the count itself can overflow a float
        alpha = delta / (2 ** t * int(n_arms))
        count = 2.0 * max(1.0, sigma) ** 2 * math.log(2.0 / alpha) / ell ** 2
        return max(1, math.ceil(count))
    except OverflowError:
        raise ValueError(f"round {t}'s pull count overflows") from None


@dataclass(frozen=True)
class RRConfig:
    """The learner's settings. A lipschitz whose round-1 grid holds more
    than 2^52 arms is refused, as 2k - 1 in _grid is inexact past that;
    deeper rounds are left to the budget, which may stop a run first."""

    epsilon: float
    delta: float
    lipschitz: float = 1.0

    def __post_init__(self):
        dyadic_depth(self.epsilon)
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite")
        if grid_size(1, self.lipschitz) > 2 ** 52:
            raise ValueError("lipschitz must be at most 2**48, so that "
                             "round 1 lays at most 2**52 arms")

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
    """One completed round; best.pulls is its pull count per arm."""

    round: int  # its index t
    n_active: int  # grid arms inside the surviving region, all pulled
    locations: np.ndarray  # those arms, in grid order
    values: np.ndarray  # their empirical means
    best: ArmEstimate  # the lowest mean, the smallest location on ties
    cumulative_samples: int  # the run's pulls through this round


@dataclass(frozen=True)
class RRState:
    """The learner between rounds: the region no round has excluded, the
    pulls of every completed round, one RoundRecord per completed round
    (len(trace) is the last round's index), and whether the next round
    was not run because it did not fit the budget."""

    surviving: IntervalSet = field(default_factory=IntervalSet.unit)
    total_samples: int = 0
    trace: Tuple[RoundRecord, ...] = ()
    budget_exhausted: bool = False


def active_mask(surviving, points):
    """Boolean mask of grid points inside the surviving region (closed, with tolerance)."""
    edges = []
    for a, b in surviving.spans:
        edges.append(a - EPSILON)
        edges.append(b + EPSILON)
    bounds = points.searchsorted(edges).tolist()
    mask = np.zeros(points.shape[0], dtype=bool)
    for i in range(0, len(bounds), 2):
        mask[bounds[i]:bounds[i + 1]] = True
    return mask


def merged_neighborhoods(centers, radius):
    """IntervalSet of the closed radius-neighborhoods of sorted centers.

    Equal to IntervalSet([(h - radius, h + radius) for h in centers]) span
    for span: with the centers ascending, the right ends never decrease,
    so the constructor's running right end is the previous neighborhood's,
    and a neighborhood starts a new span exactly when its left end lies
    more than EPSILON beyond that.
    """
    spans = []
    for h in centers.tolist():
        a = h - radius
        if spans and a <= spans[-1][1] + EPSILON:
            spans[-1][1] = h + radius
        else:
            spans.append([a, h + radius])
    return IntervalSet(spans)


def run_round(state, bandit, cfg, rng, budget=None):
    """Execute round len(state.trace) + 1 and return the successor state.

    The surviving grid arms are pulled in one sample_means call on their
    (k,) float64 array of locations, which draws every arm, in grid order,
    from the round's one stream rng.child(t). An arm's draws therefore
    depend on the arms before it in its round, and the seed still fixes
    them all; how the bandit batches the arms never changes a draw. If the
    round's total pull count would exceed the remaining budget, the state
    is returned unchanged except for the budget_exhausted flag.
    """
    t = len(state.trace) + 1
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
    values = bandit.sample_means(locations, n_t, rng.child(t))

    best_j = int(np.argmin(values))  # ties resolve to the smallest location
    best = ArmEstimate(t, float(locations[best_j]), float(values[best_j]), n_t)

    radius = ci_half_width(t)
    reject = values - values[best_j] > REJECT_FACTOR * radius
    excluded = merged_neighborhoods(locations[reject], radius)
    surviving = state.surviving.subtract(excluded)
    total = state.total_samples + cost
    record = RoundRecord(t, int(idx.size), locations, values, best, total)
    return RRState(surviving, total, state.trace + (record,), False)


def recommend(state):
    """Best arm over all completed rounds; ties keep the earliest round."""
    best = None
    for rec in state.trace:
        if best is None or rec.best.value < best.value:
            best = rec.best
    return best


def run(bandit, cfg, rng, budget=None):
    """Full elimination run of D rounds, or until the budget runs out.

    Returns (location, state); location is None when the budget did not
    even cover round 1.
    """
    state = RRState()
    for _ in range(cfg.depth):
        state = run_round(state, bandit, cfg, rng, budget=budget)
        if state.budget_exhausted:
            break
    arm = recommend(state)
    return (arm.location if arm is not None else None), state
