"""Perturbation-descent and direction-set baselines."""

import itertools
import math

import numpy as np
import pytest

from rrbandit.bandits import CountingBandit, GaussianBandit
from rrbandit.baselines import (PowellBrentConfig, SpsaConfig, powell_brent,
                                spsa, spsa_gradient)
from rrbandit.rng import SeededRng


def quadratic(center):
    center = np.asarray(center, dtype=np.float64)

    def mean_fn(p):
        return float(np.sum((np.asarray(p) - center) ** 2))

    return mean_fn


# ----------------------------------------------------------- gradient

def test_gradient_estimate_unbiased_on_quadratics():
    """Averaging the estimator over every perturbation sign pattern
    recovers the exact gradient when the objective is quadratic."""
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([-1.0, 0.5])

    def f(x):
        return float(x @ a @ x + b @ x)

    theta = np.array([0.3, 0.8])
    grad = 2.0 * a @ theta + b
    c = 0.05
    estimates = []
    for signs in itertools.product((-1.0, 1.0), repeat=2):
        delta = np.array(signs)
        est = spsa_gradient(f(theta + c * delta), f(theta - c * delta),
                            c, delta)
        estimates.append(est)
    assert np.allclose(np.mean(estimates, axis=0), grad, atol=1e-12)


def test_gradient_estimate_even_in_perturbation():
    delta = np.array([1.0, -1.0, 1.0])
    a = spsa_gradient(0.7, 0.2, 0.1, delta)
    b = spsa_gradient(0.2, 0.7, 0.1, -delta)
    assert np.array_equal(a, b)


def test_gain_calibration():
    cfg = SpsaConfig(max_iters=100)
    a, stability = cfg.gains()
    assert stability == pytest.approx(10.0)
    assert a == pytest.approx(0.1 * 11.0 ** 0.602)
    explicit = SpsaConfig(max_iters=100, a=0.5)
    assert explicit.gains() == (0.5, 10.0)


def test_spsa_config_validation():
    with pytest.raises(ValueError):
        SpsaConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SpsaConfig(shots_per_eval=0)
    with pytest.raises(ValueError):
        SpsaConfig(c=0.0)


# -------------------------------------------------------------- spsa

def test_spsa_zero_gain_never_moves():
    bandit = GaussianBandit(quadratic([0.3, 0.7]), sigma=0.0, dimension=2)
    cfg = SpsaConfig(max_iters=20, a=0.0)
    res = spsa(bandit, np.array([0.6, 0.6]), cfg, SeededRng(0))
    assert np.array_equal(res.point, [0.6, 0.6])
    assert len(res.steps) == 20


def test_spsa_converges_on_noiseless_quadratic():
    bandit = GaussianBandit(quadratic([0.5, 0.5]), sigma=0.0, dimension=2)
    cfg = SpsaConfig(max_iters=300)
    res = spsa(bandit, np.array([0.2, 0.8]), cfg, SeededRng(1))
    assert np.linalg.norm(res.point - 0.5) < 0.05
    assert res.samples_used == 600


def test_spsa_clips_iterates_to_unit_cube():
    # steep slope pushes hard toward the boundary
    bandit = GaussianBandit(lambda p: float(10.0 * p[0]), sigma=0.0,
                            dimension=1)
    cfg = SpsaConfig(max_iters=50)
    res = spsa(bandit, np.array([0.1]), cfg, SeededRng(2))
    assert 0.0 <= res.point[0] <= 1.0


def test_spsa_budget_stops_early():
    bandit = GaussianBandit(quadratic([0.5, 0.5]), sigma=1.0, dimension=2)
    cfg = SpsaConfig(max_iters=100, shots_per_eval=3, budget=10)
    res = spsa(bandit, np.array([0.2, 0.8]), cfg, SeededRng(3))
    assert res.budget_exhausted
    assert res.samples_used == 6  # one iteration of two 3-pull evals
    assert len(res.steps) == 1


def test_spsa_ledger_matches_counting_bandit():
    inner = GaussianBandit(quadratic([0.5, 0.5]), sigma=1.0, dimension=2)
    counting = CountingBandit(inner)
    cfg = SpsaConfig(max_iters=25, shots_per_eval=7)
    res = spsa(counting, np.array([0.4, 0.4]), cfg, SeededRng(4))
    assert res.samples_used == counting.count == 25 * 2 * 7


def test_spsa_stop_condition():
    bandit = GaussianBandit(quadratic([0.5, 0.5]), sigma=0.0, dimension=2)
    cfg = SpsaConfig(max_iters=500)
    res = spsa(bandit, np.array([0.2, 0.8]), cfg, SeededRng(5),
               stop_condition=lambda p: bandit.mean(p) < 0.01)
    assert res.stopped_early
    assert len(res.steps) < 500


def test_spsa_deterministic():
    bandit = GaussianBandit(quadratic([0.5, 0.5]), sigma=1.0, dimension=2)
    cfg = SpsaConfig(max_iters=30)
    a = spsa(bandit, np.array([0.2, 0.8]), cfg, SeededRng(6))
    b = spsa(bandit, np.array([0.2, 0.8]), cfg, SeededRng(6))
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value


# ------------------------------------------------------ powell + brent

def test_powell_brent_zero_noise_quadratic():
    bandit = GaussianBandit(quadratic([0.3, 0.7]), sigma=0.0, dimension=2)
    cfg = PowellBrentConfig(max_iters=30, xtol=1e-8, ftol=1e-10)
    res = powell_brent(bandit, np.array([0.5, 0.5]), cfg, SeededRng(0))
    assert np.allclose(res.point, [0.3, 0.7], atol=1e-3)
    assert res.value < 1e-6
    assert not res.budget_exhausted


def test_powell_brent_ledger_matches_counting_bandit():
    inner = GaussianBandit(quadratic([0.3, 0.7]), sigma=0.1, dimension=2)
    counting = CountingBandit(inner)
    cfg = PowellBrentConfig(max_iters=3, shots_per_eval=5)
    res = powell_brent(counting, np.array([0.5, 0.5]), cfg, SeededRng(1))
    assert res.samples_used == counting.count
    assert res.samples_used % 5 == 0


def test_powell_brent_budget_returns_best_seen():
    inner = GaussianBandit(quadratic([0.3, 0.7]), sigma=0.0, dimension=2)
    counting = CountingBandit(inner)
    cfg = PowellBrentConfig(max_iters=50, shots_per_eval=10, budget=200)
    res = powell_brent(counting, np.array([0.5, 0.5]), cfg, SeededRng(2))
    assert res.budget_exhausted
    assert counting.count <= 200
    # noiseless evals: the reported value is the exact mean at the best
    # probed point, both captured when the budget ran out
    assert res.value == inner.mean(res.point)
    assert np.all((res.point >= 0.0) & (res.point <= 1.0))


def test_powell_brent_stop_condition():
    bandit = GaussianBandit(quadratic([0.3, 0.7]), sigma=0.0, dimension=2)
    cfg = PowellBrentConfig(max_iters=50)
    res = powell_brent(bandit, np.array([0.5, 0.5]), cfg, SeededRng(3),
                       stop_condition=lambda p: bandit.mean(p) < 0.02)
    assert res.stopped_early
    assert bandit.mean(res.point) < 0.02


def test_powell_brent_config_validation():
    with pytest.raises(ValueError):
        PowellBrentConfig(max_iters=0)
    with pytest.raises(ValueError):
        PowellBrentConfig(shots_per_eval=0)
