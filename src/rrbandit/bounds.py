"""Instance-specific sample-complexity bounds for 1-d piecewise-linear objectives.

The objective is described by breakpoints of a continuous piecewise-linear
function v >= 0 on [0,1] with a unique zero at the optimum. Difficulty is
captured by the dyadic level sets B_t = v^-1((2^-t, 2^-(t-1)]): the bound
formulas weight their measures by 8^-(D-t), and the zooming fit estimates
the geometric growth exponent of their covering numbers.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .intervals import EPSILON, IntervalSet
from .rr import dyadic_depth


@dataclass(frozen=True)
class BoundInstance:
    """Piecewise-linear objective on [0,1], zero at its unique minimizer."""

    xs: Tuple[float, ...]
    vs: Tuple[float, ...]
    lipschitz: Optional[float] = None

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        vs = tuple(float(v) for v in self.vs)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        if len(xs) < 2 or len(xs) != len(vs):
            raise ValueError("need matching breakpoint and value lists, length >= 2")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in vs):
            raise ValueError("values must be non-negative")
        if min(vs) > EPSILON:
            raise ValueError("the minimum value must be zero")
        if sum(1 for v in vs if v <= EPSILON) != 1:
            raise ValueError("the zero must be attained at exactly one breakpoint")
        slopes = [(v1 - v0) / (x1 - x0)
                  for (x0, v0), (x1, v1) in zip(zip(xs, vs), zip(xs[1:], vs[1:]))]
        max_slope = max(abs(s) for s in slopes)
        if self.lipschitz is None:
            object.__setattr__(self, "lipschitz", max_slope)
        elif not 0 < self.lipschitz < math.inf:
            raise ValueError(f"declared lipschitz {self.lipschitz} must be "
                             "positive and finite")
        elif max_slope > self.lipschitz + 1e-9:
            raise ValueError(
                f"slope {max_slope} exceeds declared lipschitz {self.lipschitz}")

    def segments(self):
        return zip(zip(self.xs, self.vs), zip(self.xs[1:], self.vs[1:]))


def wedge(x_star=0.5, slope=1.0):
    """The |x - x_star| * slope instance, clipped to breakpoints on [0,1]."""
    if not 0.0 <= x_star <= 1.0:
        raise ValueError("x_star must lie in [0,1]")
    xs = [0.0]
    vs = [x_star * slope]
    if 0.0 < x_star < 1.0:
        xs.append(x_star)
        vs.append(0.0)
    xs.append(1.0)
    vs.append((1.0 - x_star) * slope)
    return BoundInstance(tuple(xs), tuple(vs))


def band_measure(inst, lo, hi):
    """Lebesgue measure of {x : lo < v(x) <= hi}, exact per linear segment."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    total = 0.0
    for (x0, v0), (x1, v1) in inst.segments():
        if v0 == v1:
            if lo < v0 <= hi:
                total += x1 - x0
        else:
            vmin, vmax = (v0, v1) if v0 < v1 else (v1, v0)
            a = max(lo, vmin)
            b = min(hi, vmax)
            if b > a:
                total += (b - a) * (x1 - x0) / (vmax - vmin)
    return total


def band_spans(inst, lo, hi):
    """Closure of {x : lo < v(x) <= hi} as an IntervalSet."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    spans = []
    for (x0, v0), (x1, v1) in inst.segments():
        if v0 == v1:
            if lo < v0 <= hi:
                spans.append((x0, x1))
            continue
        vmin, vmax = (v0, v1) if v0 < v1 else (v1, v0)
        a = max(lo, vmin)
        b = min(hi, vmax)
        if b < a or (b == a and a <= lo):
            continue
        xa = x0 + (a - v0) * (x1 - x0) / (v1 - v0)
        xb = x0 + (b - v0) * (x1 - x0) / (v1 - v0)
        spans.append((min(xa, xb), max(xa, xb)))
    return IntervalSet(spans)


def level_set_measure(inst, t):
    """Measure of B_t = v^-1((2^-t, 2^-(t-1)])."""
    if int(t) != t or t < 1:
        raise ValueError("level index must be a positive integer")
    return band_measure(inst, 2.0 ** -t, 2.0 ** -(t - 1))


def level_weight_sum(inst, epsilon):
    """sum_{t=1..D} m(B_t) / 8^(D-t) with D = log2(1/epsilon)."""
    depth = dyadic_depth(epsilon)
    return sum(level_set_measure(inst, t) / 8.0 ** (depth - t)
               for t in range(1, depth + 1))


def lower_bound(inst, epsilon, delta):
    """Expected pulls any (epsilon, delta)-sound learner needs on this instance."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    s = level_weight_sum(inst, epsilon)
    return math.log(1.0 / delta) * inst.lipschitz / (80.0 * epsilon ** 3) * s


def upper_bound(inst, epsilon, delta):
    """Worst-case pull count of the elimination learner on this instance."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    depth = dyadic_depth(epsilon)
    s = level_weight_sum(inst, epsilon)
    return (2.0 ** 15 * inst.lipschitz * (depth + math.log(1.0 / delta))
            / epsilon ** 3 * s)


def trivial_bound(epsilon):
    """Scale-free floor on the weighted level-set sum: epsilon**2."""
    dyadic_depth(epsilon)
    return epsilon ** 2


def covering_number(inst, r):
    """Sets of diameter r/8 needed to cover the closure of v^-1((r, 2r]).

    Each maximal interval of length L in the level set needs ceil(8L/r)
    covering sets; isolated points need one.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("radius must be in (0, 1)")
    spans = band_spans(inst, r, 2.0 * r)
    total = 0
    for a, b in spans.spans:
        total += max(1, math.ceil(8.0 * (b - a) / r - 1e-9))
    return total


def zooming_fit(inst, radii):
    """Least-squares fit of log N_(r/8) = log c + beta * log(1/r).

    Radii whose level set is empty contribute no data point; at least three
    distinct usable radii are required, since a repeated radius adds no
    information to the slope. Returns (beta, c).
    """
    xs, ys = [], []
    for r in map(float, radii):
        n = covering_number(inst, r)
        if n > 0:
            xs.append(math.log(1.0 / r))
            ys.append(math.log(n))
    if len(set(xs)) < 3:
        raise ValueError(
            "need at least 3 distinct radii with non-empty level sets")
    beta, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(beta), float(math.exp(intercept))


def read_instance(path, lipschitz=None):
    """Load a breakpoint file: one "x v" pair per line, '#' comments allowed."""
    xs, vs = [], []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'x v', got {raw!r}")
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
    return BoundInstance(tuple(xs), tuple(vs), lipschitz)
