"""Stochastic reward sources over the unit cube. Rewards are losses."""

import math

import numpy as np


class Bandit:
    """Base reward source on [0,1]^d; smaller mean is better.

    mean(x) is the exact-mean oracle and may be unavailable for some
    sources. sample_means(points, n, rng) is a source's one draw: it
    pulls every point n times, drawing all of them from the one stream
    rng in point order, and returns the averages as a float64 array. Every
    pull of a point shares it, so sources draw each average from a
    sufficient statistic (a Gaussian mean, a shot histogram) rather than
    pull by pull, and a point's draws depend on the points before it in
    the call. sample_mean(x, n, rng) is that draw at the one point x.

    sigma is the noise scale: one pull minus its mean is
    sigma-sub-Gaussian. Elimination scales its pull counts by it, so a
    source noisier than 1-sub-Gaussian must say so.
    """

    lipschitz = 1.0
    dimension = 1
    sigma = 1.0

    def mean(self, x):
        raise NotImplementedError

    def sample_mean(self, x, n, rng):
        return float(self.sample_means([x], n, rng)[0])

    def sample_means(self, points, n, rng):
        raise NotImplementedError


class GaussianBandit(Bandit):
    """Deterministic mean function plus iid Gaussian observation noise.

    With sigma=0 the bandit is an exact oracle and consumes no randomness.
    The n-pull empirical mean is drawn in one shot as N(mean, sigma^2/n),
    which is the exact distribution of the average, so large pull counts
    cost one rng call. Budget accounting still counts n pulls per call.
    sample_means draws the noise of all its points with one
    standard_normal(k) call.
    """

    def __init__(self, mean_fn, lipschitz=1.0, sigma=1.0, dimension=1):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._mean_fn = mean_fn
        self.lipschitz = float(lipschitz)
        self.sigma = float(sigma)
        self.dimension = int(dimension)

    def mean(self, x):
        return float(self._mean_fn(x))

    # perfbench patches this name in the class's own dict
    sample_mean = Bandit.sample_mean

    def sample_means(self, points, n, rng):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one pull")
        means = np.array([self.mean(x) for x in points], dtype=np.float64)
        if self.sigma == 0.0:
            return means
        z = rng.standard_normal(means.size)
        return means + self.sigma * z / math.sqrt(n)


class CountingBandit(Bandit):
    """Wrapper that ledgers every pull going through the bandit interface.

    Oracle mean() calls are not counted; they are outside the sample budget.
    """

    def __init__(self, inner):
        self.inner = inner
        self.lipschitz = inner.lipschitz
        self.dimension = inner.dimension
        self.sigma = inner.sigma
        self.count = 0

    def mean(self, x):
        return self.inner.mean(x)

    def sample_mean(self, x, n, rng):
        self.count += int(n)
        return self.inner.sample_mean(x, n, rng)

    def sample_means(self, points, n, rng):
        self.count += int(n) * len(points)
        return self.inner.sample_means(points, n, rng)
