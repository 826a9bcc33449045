"""What only the tests use: random bound instances, small named graphs,
the reference pull ledger and the reference round grid."""

import math

import numpy as np

from rrbandit.bandits import Bandit
from rrbandit.bounds import BoundInstance
from rrbandit.intervals import EPSILON
from rrbandit.qsim import Graph


class CountingBandit(Bandit):
    """Wrapper that ledgers every pull going through the bandit interface.

    The inherited sample_mean draws through sample_means, so one counter
    sees both. It has no oracle: mean() raises NotImplementedError, as on
    Bandit.
    """

    def __init__(self, inner):
        self.inner = inner
        self.sigma = inner.sigma
        self.count = 0

    def sample_means(self, points, n, rng):
        self.count += int(n) * len(points)
        return self.inner.sample_means(points, n, rng)


def random_unimodal(rng, max_side_pieces=3, slope_range=(0.25, 4.0),
                    margin=0.0625):
    """Random unimodal piecewise-linear instance with an interior minimizer.

    Values decrease to zero at x_star then increase, with segment slopes
    drawn uniformly from slope_range, so the instance is slope_range[1]
    Lipschitz and value-accuracy at the optimum implies location-accuracy.
    """
    lo, hi = slope_range
    if not 0 < lo <= hi:
        raise ValueError("slope_range must be positive and ordered")
    x_star = float(rng.uniform(margin, 1.0 - margin))
    xs = [x_star]
    vs = [0.0]
    # walk outward to each domain edge, accumulating value
    left_cuts = np.sort(rng.uniform(0.0, x_star, size=int(rng.integers(0, max_side_pieces))))
    v = 0.0
    for x0, x1 in zip([x_star] + list(left_cuts[::-1]),
                      list(left_cuts[::-1]) + [0.0]):
        v += float(rng.uniform(lo, hi)) * (x0 - x1)
        xs.insert(0, x1)
        vs.insert(0, v)
    right_cuts = np.sort(rng.uniform(x_star, 1.0, size=int(rng.integers(0, max_side_pieces))))
    v = 0.0
    for x0, x1 in zip([x_star] + list(right_cuts), list(right_cuts) + [1.0]):
        v += float(rng.uniform(lo, hi)) * (x1 - x0)
        xs.append(x1)
        vs.append(v)
    return BoundInstance(tuple(xs), tuple(vs))



def complete_graph(n):
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def grid_points(t, lipschitz):
    """Round t's whole grid: ceil(L)*2^(t+3) points, half-spacing off the edges.

    Spacing is 1/(ceil(L)*2^(t+3)) and the first point sits at half that, so
    every x in [0,1] is within 1/(ceil(L)*2^(t+4)) of some grid point. Points
    are exact dyadic rationals whenever ceil(L) is a power of two. The
    reference for the arms a round lays: rr.run_round lays only those
    inside the surviving region, never the whole grid.
    """
    if int(t) != t or t < 1:
        raise ValueError("round index must be a positive integer")
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    ceil_l = math.ceil(lipschitz)
    k = np.arange(1, (ceil_l << (int(t) + 3)) + 1, dtype=np.float64)
    return (2.0 * k - 1.0) / (ceil_l * 2.0 ** (t + 4))


def active_mask(surviving, points):
    """Boolean mask of sorted points inside the surviving region: those at
    or above a span's a - EPSILON and below its b + EPSILON."""
    edges = []
    for a, b in surviving.spans:
        edges.append(a - EPSILON)
        edges.append(b + EPSILON)
    bounds = points.searchsorted(edges).tolist()
    mask = np.zeros(points.shape[0], dtype=bool)
    for i in range(0, len(bounds), 2):
        mask[bounds[i]:bounds[i + 1]] = True
    return mask
