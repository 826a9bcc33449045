"""Stochastic reward sources over the unit cube. Rewards are losses."""

import math

import numpy as np


class Bandit:
    """Base reward source on [0,1]^d; smaller mean is better.

    mean(x) is the exact-mean oracle, outside the sample budget. Only the
    circuit bandits provide it, and vqa.run_single calls it on the circuit
    itself. sample_means(points, n, rng) is a source's one draw: it pulls
    each of the k points, a float64 array of shape (k,) or (k, d), n times
    from the one stream rng in point order and returns the k averages in a
    float64 array. Every pull of a point shares it, so sources draw each
    average from a sufficient statistic (a Gaussian mean, a shot
    histogram) rather than pull by pull. A driver run hands every call the
    run's one stream, so a point's draws depend on every draw before it in
    its run, and the seed still fixes them all. sample_mean(x, n, rng) is
    the draw on [x].

    sigma is the noise scale: one pull minus its mean is
    sigma-sub-Gaussian. Elimination scales its pull counts by it, so a
    source noisier than 1-sub-Gaussian must say so.
    """

    sigma = 1.0

    def mean(self, x):
        raise NotImplementedError

    def sample_mean(self, x, n, rng):
        return float(self.sample_means(np.array([x], float), n, rng)[0])

    def sample_means(self, points, n, rng):
        raise NotImplementedError


class GaussianBandit(Bandit):
    """Deterministic mean function plus iid Gaussian observation noise.

    With sigma=0 sample_means returns the exact means and draws nothing.
    The n-pull empirical mean is drawn in one shot as N(mean, sigma^2/n),
    which is the exact distribution of the average, so large pull counts
    cost one rng call. Budget accounting still counts n pulls per call.
    sample_means calls mean_fn once on the points array for the k means,
    in any shape of k elements, and draws their noise with one
    standard_normal(k) call.
    """

    def __init__(self, mean_fn, sigma=1.0):
        if not 0 <= sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        self._mean_fn = mean_fn
        self.sigma = float(sigma)

    # perfbench patches this name in the class's own dict
    sample_mean = Bandit.sample_mean

    def sample_means(self, points, n, rng):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one pull")
        means = self._mean_fn(np.asarray(points, dtype=np.float64))
        means = np.asarray(means, dtype=np.float64).reshape(len(points))
        if self.sigma == 0.0:
            return means
        z = rng.standard_normal(means.size)
        return means + self.sigma * z / math.sqrt(n)

