"""Stochastic reward sources over the unit cube. Rewards are losses."""

import math

import numpy as np


class Bandit:
    """Base reward source on [0,1]^d; smaller mean is better.

    mean(x) is the exact-mean oracle and may be unavailable for some
    sources. sample_mean(x, n, rng) returns the average of n independent
    pulls at x. Every pull of a call shares x, so subclasses draw that
    average from a sufficient statistic (a Gaussian mean, a shot
    histogram) rather than pull by pull.

    sample_means(points, n, rngs) pulls every point n times, point j from
    its own stream rngs[j], and returns the averages as a float64 array.
    It must return exactly what sample_mean(points[j], n, rngs[j]) would,
    so results do not depend on which points share a call. The default
    loops over sample_mean; sources that can serve many points at once
    (the circuit bandits simulate them as one batch) override it.

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
        raise NotImplementedError

    def sample_means(self, points, n, rngs):
        return np.array([self.sample_mean(x, n, rng)
                         for x, rng in zip(points, rngs, strict=True)],
                        dtype=np.float64)


class GaussianBandit(Bandit):
    """Deterministic mean function plus iid Gaussian observation noise.

    With sigma=0 the bandit is an exact oracle and consumes no randomness.
    The n-pull empirical mean is drawn in one shot as N(mean, sigma^2/n),
    which is the exact distribution of the average, so large pull counts
    cost one rng call. Budget accounting still counts n pulls per call.
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

    def sample_mean(self, x, n, rng):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one pull")
        if self.sigma == 0.0:
            return self.mean(x)
        return self.mean(x) + self.sigma * rng.standard_normal() / math.sqrt(n)


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

    def sample_means(self, points, n, rngs):
        self.count += int(n) * len(points)
        return self.inner.sample_means(points, n, rngs)
