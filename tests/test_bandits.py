"""Reward sources: sufficient-statistic draws and pull accounting."""

import numpy as np
import pytest

from rrbandit.bandits import Bandit, GaussianBandit
from rrbandit.lines import SliceBandit
from rrbandit.rng import SeededRng

from instances import CountingBandit


def test_sample_mean_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        GaussianBandit(np.zeros_like).sample_mean(0.5, 0, SeededRng(0))


def test_gaussian_zero_noise_is_exact_oracle():
    b = GaussianBandit(lambda x: 3.0 * x, sigma=0.0)
    assert b.sample_mean(0.5, 1000, SeededRng(1)) == 1.5
    assert b.sample_means(np.array([0.25]), 1, SeededRng(2)).tolist() == [0.75]


def test_gaussian_sample_mean_matches_averaged_pulls_in_distribution():
    """The one-draw n-pull mean is N(mu, sigma^2/n), the distribution of
    n averaged pulls; first and second moments over many replications
    are compared at 5 sigma."""
    mu, sigma, n, reps = 0.3, 2.0, 25, 4000
    b = GaussianBandit(lambda x: np.full_like(x, mu), sigma=sigma)
    root = SeededRng(123)
    means = np.array([b.sample_mean(0.0, n, root.child(0, i))
                      for i in range(reps)])
    assert abs(means.mean() - mu) < 5 * sigma / np.sqrt(n * reps)
    target_var = sigma ** 2 / n
    # sd of a variance estimate is roughly var * sqrt(2/reps)
    var_tol = 5 * target_var * np.sqrt(2.0 / reps)
    assert abs(means.var(ddof=1) - target_var) < var_tol


def test_gaussian_rejects_negative_sigma():
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            GaussianBandit(np.zeros_like, sigma=sigma)


def test_gaussian_mean_fn_returns_one_mean_per_point():
    """The mean function takes the whole points array and may return its
    k means in any shape of k elements; another count is refused."""
    points = np.array([0.1, 0.2, 0.3])
    b = GaussianBandit(lambda x: x[:, None], sigma=0.0)
    assert b.sample_means(points, 1, SeededRng(0)).tolist() == [0.1, 0.2, 0.3]
    for wrong in (lambda x: 0.5, lambda x: x[:2], lambda x: np.tile(x, 2)):
        b = GaussianBandit(wrong, sigma=0.0)
        with pytest.raises(ValueError):
            b.sample_means(points, 1, SeededRng(0))


def test_counting_bandit_ledgers_every_pull():
    inner = GaussianBandit(lambda x: x, sigma=1.0)
    c = CountingBandit(inner)
    c.sample_mean(0.2, 17, SeededRng(0))
    assert c.count == 17
    with pytest.raises(NotImplementedError):  # no oracle, and not a pull
        c.mean(0.3)
    assert c.count == 17
    assert c.sigma == inner.sigma


def test_counting_bandit_passes_values_through():
    inner = GaussianBandit(lambda x: np.full_like(x, 2.0), sigma=0.0)
    c = CountingBandit(inner)
    assert c.sample_mean(0.0, 5, SeededRng(0)) == 2.0
    points = np.array([0.0, 0.5])
    assert c.sample_means(points, 5, SeededRng(0)).tolist() == [2.0, 2.0]


@pytest.mark.parametrize("sigma", [0.0, 1.0, 6.0])
def test_gaussian_sample_means_match_looped_sample_mean(sigma):
    """One standard_normal(k) call gives the bits of k sample_mean calls
    on the same stream, for every batch size up to a large round's."""
    b = GaussianBandit(lambda x: abs(x - 0.37), sigma=sigma)
    root = SeededRng(17)
    for k in (1, 2, 16, 257, 2048):
        points = root.child(k).random(k)
        got = b.sample_means(points, 11, root.child(k, 0))
        stream = root.child(k, 0)
        expect = [b.sample_mean(x, 11, stream) for x in points.tolist()]
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(expect).tobytes()
    with pytest.raises(ValueError):
        b.sample_means(np.array([0.5]), 0, root)


def test_counting_bandit_ledgers_batched_pulls():
    c = CountingBandit(GaussianBandit(np.zeros_like, sigma=0.0))
    c.sample_means(np.array([0.1, 0.2, 0.3, 0.4]), 17, SeededRng(0))
    assert c.count == 4 * 17


def test_wrappers_forward_the_noise_scale():
    assert Bandit.sigma == 1.0
    noisy = GaussianBandit(np.zeros_like, sigma=6.0)
    assert CountingBandit(noisy).sigma == 6.0
    assert SliceBandit(noisy, (0.5,), (1.0,)).sigma == 6.0
    assert SliceBandit(CountingBandit(Bandit()), (0.5,), (1.0,)).sigma == 1.0


class _Recorder(Bandit):
    def __init__(self):
        self.points = []

    def sample_means(self, points, n, rng):
        # one float64 array of all the points, not one object per point
        assert type(points) is np.ndarray and points.dtype == np.float64
        assert points.shape == (len(points), 2)
        self.points.extend(points.tolist())
        return np.zeros(len(points))


def test_slice_bandit_maps_points_and_forwards_them():
    parent = _Recorder()
    line = SliceBandit(parent, (0.5, 0.25), (1.0, 0.5), "periodic")
    out = line.sample_means(np.array([0.0, 0.25, 0.75]), 3, SeededRng(0))
    assert out.tolist() == [0.0, 0.0, 0.0]
    assert parent.points == [line.point(s).tolist()
                             for s in (0.0, 0.25, 0.75)]
