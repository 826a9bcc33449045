"""Round-based confidence-interval elimination for 1-d continuous bandits.

Round t's grid is ceil(L)*2^(t+3) uniform arms over [0,1]. The round lays
only the arms inside the surviving region, counted from the region's span
edges before any is built, pulls each often enough that an empirical-mean
confidence interval of half-width 2^-(t+4) holds at level 1 - delta/(2^t n),
and removes the closed 2^-(t+4) neighborhood of every arm whose empirical
mean exceeds the round best by more than 12 * 2^-(t+4). After
D = log2(1/epsilon) rounds the best arm over all rounds is recommended,
which locates the minimizer to within epsilon with probability 1 - delta
for unimodal L-Lipschitz means under sigma-sub-Gaussian noise (pull
counts scale by max(1, sigma)^2, taken from the bandit's sigma).

A round draws its arms in grid order from the run's one stream, so an
arm's draws depend on every draw before it in its run, and the seed still
fixes them all.

The rejected arms' neighborhoods share the round's radius and come in
grid order, so a round merges them in one pass (merged_neighborhoods),
each exactly when IntervalSet's constructor would, and hands IntervalSet
a few merged spans instead of one per arm. The excluded set, and every
bit after it, is the one the per-arm spans give.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from .intervals import EPSILON, IntervalSet

REJECT_FACTOR = 12.0  # exclusion threshold in units of the CI half-width
MAX_ARMS = 2 ** 52  # past this many grid arms, an arm's 2i + 1 is inexact


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
        level = 2.0 / alpha if alpha else math.inf
        if level < math.inf:
            log_level = math.log(level)
        else:  # a tiny delta: 2 / alpha is past a float, its log is not
            log_level = math.log(2 ** (t + 1) * int(n_arms)) - math.log(delta)
        count = 2.0 * max(1.0, sigma) ** 2 * log_level / ell ** 2
        return max(1, math.ceil(count))
    except OverflowError:
        raise ValueError(f"round {t}'s pull count overflows") from None


@dataclass(frozen=True)
class RRConfig:
    """The learner's settings. A lipschitz whose round-1 grid holds more
    than MAX_ARMS arms is refused; a deeper round whose grid does raises in
    arm_ranges, unless the budget stops the run first."""

    epsilon: float
    delta: float
    lipschitz: float = 1.0

    def __post_init__(self):
        dyadic_depth(self.epsilon)
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite")
        if grid_size(1, self.lipschitz) > MAX_ARMS:
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


def arm_ranges(surviving, t, lipschitz):
    """Round t's grid arms inside the surviving region: ascending, disjoint
    index ranges (first, end), end exclusive, and the number of arms.

    Arm i sits at (2i + 1) / denom, denom = ceil(L) * 2^(t+4), and a span
    (a, b) holds the arms in [a - EPSILON, b + EPSILON), each counted once.
    The arms below an edge e are those with 2i + 1 < e * denom: an exact
    count when ceil(L) is a power of two, as both sides are then exact, and
    otherwise corrected against the arms' own float64 values. A grid of
    more than MAX_ARMS arms raises ValueError.
    """
    ceil_l = math.ceil(lipschitz)
    size = grid_size(t, ceil_l)
    if size > MAX_ARMS:
        raise ValueError(f"round {t}'s grid of {size} arms is past 2**52")
    denom = ceil_l * 2.0 ** (t + 4)
    exact = ceil_l & (ceil_l - 1) == 0
    ranges, n_arms, end = [], 0, 0
    for a, b in surviving.spans:
        lo, hi = a - EPSILON, b + EPSILON
        first, last = math.ceil(lo * denom) // 2, math.ceil(hi * denom) // 2
        if not exact:
            first = _arms_below(lo, first, denom)
            last = _arms_below(hi, last, denom)
        if first < end:  # the previous span's window holds these arms
            first = end
        if last > size:
            last = size
        if first < last:
            ranges.append((first, last))
            n_arms += last - first
            end = last
    return ranges, n_arms


def _arms_below(e, i, denom):
    """The arms below e, from a guess i near it. The grid is taken as
    unbounded, so the count may fall outside [0, size]; arm_ranges clamps."""
    while (2.0 * i + 1.0) / denom < e:
        i += 1
    while (2.0 * i - 1.0) / denom >= e:
        i -= 1
    return i


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
    from rng, the run's one stream, after every draw before the round. An
    arm's draws therefore depend on every draw before it in its run, and
    the seed still fixes them all; how the bandit batches the arms never
    changes a draw. If the round's pulls would exceed the remaining
    budget, no arm is laid, nothing is drawn, and the state is returned
    unchanged but for the budget_exhausted flag.
    """
    t = len(state.trace) + 1
    ranges, n_active = arm_ranges(state.surviving, t, cfg.lipschitz)
    if n_active == 0:
        raise NoActiveArmsError(f"round {t}: no arm in the surviving region")
    n_t = samples_per_arm(t, cfg.delta, n_active, bandit.sigma)
    cost = n_t * n_active
    if budget is not None and state.total_samples + cost > budget:
        return replace(state, budget_exhausted=True)

    locations = np.concatenate([  # each arm's 2i + 1, then the grid's formula
        np.arange(2 * first + 1, 2 * end, 2, dtype=np.float64)
        for first, end in ranges])
    locations /= math.ceil(cfg.lipschitz) * 2.0 ** (t + 4)
    values = bandit.sample_means(locations, n_t, rng)

    best_j = int(np.argmin(values))  # ties resolve to the smallest location
    best = ArmEstimate(t, float(locations[best_j]), float(values[best_j]), n_t)

    radius = ci_half_width(t)
    reject = values - values[best_j] > REJECT_FACTOR * radius
    excluded = merged_neighborhoods(locations[reject], radius)
    surviving = state.surviving.subtract(excluded)
    total = state.total_samples + cost
    record = RoundRecord(t, n_active, locations, values, best, total)
    return RRState(surviving, total, state.trace + (record,), False)


def recommend(state):
    """Best arm over all completed rounds; ties keep the earliest round."""
    best = None
    for rec in state.trace:
        if best is None or rec.best.value < best.value:
            best = rec.best
    return best


def run(bandit, cfg, rng, budget=None):
    """Full elimination run of D rounds, or until the budget runs out,
    every round drawing in order from the one stream rng.

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
