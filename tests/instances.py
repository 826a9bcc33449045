"""What only the tests use: random bound instances, small named graphs and
the reference pull ledger."""

import numpy as np

from rrbandit.bandits import Bandit
from rrbandit.bounds import BoundInstance
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
