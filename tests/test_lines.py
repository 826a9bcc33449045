"""Line slices and the multi-dimensional search drivers."""

import math

import numpy as np
import pytest

from rrbandit import rr
from rrbandit.bandits import CountingBandit, GaussianBandit
from rrbandit.lines import (DriverConfig, LinearSlice, SliceBandit,
                            powell_driver, random_direction_driver,
                            rr_line_search)
from rrbandit.rng import SeededRng


def quadratic_bandit(center, sigma=0.0):
    center = np.asarray(center, dtype=np.float64)

    def mean_fn(p):
        return float(np.sum((np.asarray(p) - center) ** 2))

    return GaussianBandit(mean_fn, lipschitz=2.0, sigma=sigma,
                          dimension=center.shape[0])


# ------------------------------------------------------------- slices

def test_slice_point_periodic_and_truncated():
    sl = LinearSlice((0.8, 0.5), (1.0, 0.0))
    assert np.allclose(sl.point(0.3), [0.1, 0.5])  # wraps around
    sl = LinearSlice((0.8, 0.5), (1.0, 0.0), wrap="truncated")
    assert np.allclose(sl.point(0.3), [1.0, 0.5])
    assert np.allclose(sl.point(0.0), [0.8, 0.5])


def test_slice_validation():
    with pytest.raises(ValueError):
        LinearSlice((0.5,), (1.0, 0.0))
    with pytest.raises(ValueError):
        LinearSlice((0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        LinearSlice((0.5,), (1.0,), wrap="reflect")
    assert LinearSlice((0.0, 0.0), (3.0, 4.0)).direction_norm == 5.0


def test_slice_bandit_restricts_parent():
    parent = quadratic_bandit([0.25, 0.75])
    sl = LinearSlice((0.0, 0.75), (1.0, 0.0))
    line = SliceBandit(parent, sl, 2.0)
    assert line.mean(0.25) == pytest.approx(0.0)
    assert line.mean(0.5) == pytest.approx(0.0625)
    assert line.dimension == 1


# -------------------------------------------------------- line search

def test_line_search_probes_incumbent_plus_grid():
    parent = quadratic_bandit([0.3, 0.5], sigma=1.0)
    sl = LinearSlice((0.0, 0.5), (1.0, 0.0))
    cfg = DriverConfig()  # lipschitz 0.5 -> 16 depth-1 arms
    res = rr_line_search(parent, sl, cfg, SeededRng(0), incumbent_value=0.4)
    assert res.locations.shape == (17,)
    assert res.locations[0] == 0.0
    assert res.values[0] == 0.4
    assert res.samples_used == 16 * rr.samples_per_arm(1, cfg.delta, 16)


def test_line_pulls_and_incumbent_pulls_follow_the_noise_scale():
    parent = CountingBandit(quadratic_bandit([0.3, 0.5], sigma=6.0))
    sl = LinearSlice((0.0, 0.5), (1.0, 0.0))
    cfg = DriverConfig(max_steps=1)
    n = rr.samples_per_arm(1, cfg.delta, 16, 6.0)
    assert n > 35 * rr.samples_per_arm(1, cfg.delta, 16)
    res = rr_line_search(parent, sl, cfg, SeededRng(0), incumbent_value=0.4)
    assert res.samples_used == 16 * n
    parent.count = 0
    res = powell_driver(parent, np.array([0.5, 0.5]), cfg, SeededRng(0))
    # the start estimate takes a depth-1 arm's count, then one line
    assert res.samples_used == parent.count == 17 * n


def test_line_search_arm_count_scales_with_direction_norm():
    parent = quadratic_bandit([0.3, 0.5], sigma=1.0)
    cfg = DriverConfig()
    sl = LinearSlice((0.0, 0.0), (0.0, 3.0))  # norm 3 -> lipschitz 1.5
    res = rr_line_search(parent, sl, cfg, SeededRng(0), incumbent_value=1.0)
    assert res.locations.shape == (33,)


def test_line_search_zero_noise_lands_on_nearest_arm():
    parent = quadratic_bandit([0.3, 0.0])
    sl = LinearSlice((0.0, 0.0), (1.0, 0.0))
    res = rr_line_search(parent, sl, DriverConfig(), SeededRng(0),
                         incumbent_value=parent.mean([0.0, 0.0]))
    assert res.s_hat == 9.0 / 32.0  # closest depth-1 arm to the minimum
    assert res.g_hat == pytest.approx((9.0 / 32.0 - 0.3) ** 2)


def test_line_search_flat_slice_keeps_incumbent():
    parent = GaussianBandit(lambda p: 0.5, sigma=0.0, dimension=2)
    sl = LinearSlice((0.2, 0.2), (1.0, 0.0))
    res = rr_line_search(parent, sl, DriverConfig(), SeededRng(0),
                         incumbent_value=0.5)
    assert res.s_hat == 0.0
    assert res.g_hat == 0.5


def test_line_search_depth_two_probes_more():
    parent = quadratic_bandit([0.3, 0.0])
    sl = LinearSlice((0.0, 0.0), (1.0, 0.0))
    cfg = DriverConfig(d_max=2)
    res = rr_line_search(parent, sl, cfg, SeededRng(0), incumbent_value=0.09)
    assert res.locations.shape[0] > 17
    # depth 2 halves the grid resolution
    assert abs(res.s_hat - 0.3) <= 1.0 / 64.0


def test_line_search_budget_exhaustion_returns_incumbent_only():
    parent = quadratic_bandit([0.3, 0.0], sigma=1.0)
    sl = LinearSlice((0.0, 0.0), (1.0, 0.0))
    res = rr_line_search(parent, sl, DriverConfig(), SeededRng(0),
                         incumbent_value=0.7, budget=10)
    assert res.budget_exhausted
    assert res.samples_used == 0
    assert res.locations.shape == (1,)
    assert res.s_hat == 0.0


def test_driver_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(d_max=0)
    with pytest.raises(ValueError):
        DriverConfig(q=-1.0)
    with pytest.raises(ValueError):
        DriverConfig(wrap="clamp")
    with pytest.raises(ValueError):
        DriverConfig(acceptance="always")
    with pytest.raises(ValueError):
        DriverConfig(epsilon_line=0.3)
    for bad in ({"lipschitz": 0.0}, {"lipschitz": math.inf},
                {"delta": 0.0}, {"delta": math.inf}, {"delta": math.nan},
                {"q": math.nan}, {"max_steps": -1}):
        with pytest.raises(ValueError):
            DriverConfig(**bad)
    DriverConfig(q=0.0, max_steps=0)  # both bounds are inclusive


# ----------------------------------------------------- direction sets

def test_powell_driver_needs_two_dimensions():
    with pytest.raises(ValueError):
        powell_driver(quadratic_bandit([0.5]), np.array([0.5]),
                      DriverConfig(), SeededRng(0))


def test_powell_driver_zero_noise_quadratic():
    """One coordinate sweep pins each coordinate at fine line resolution."""
    bandit = quadratic_bandit([0.3, 0.7])
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=7, max_steps=2)
    res = powell_driver(bandit, np.array([0.5, 0.5]), cfg, SeededRng(4))
    assert np.allclose(res.point, [0.3, 0.7], atol=0.01)
    assert res.value < 1e-4
    assert len(res.steps) == 2
    assert all(s.accepted for s in res.steps)


def test_powell_driver_replaces_a_direction_after_full_sweep():
    bandit = quadratic_bandit([0.3, 0.7], sigma=0.01)
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=4, max_steps=4)
    res = powell_driver(bandit, np.array([0.5, 0.5]), cfg, SeededRng(4))
    second_sweep = [np.asarray(s.direction) for s in res.steps[2:]]
    off_axis = [d for d in second_sweep if np.count_nonzero(d) > 1]
    assert off_axis, "second sweep should use the combined displacement"
    for d in off_axis:
        assert np.linalg.norm(d) == pytest.approx(1.0)


def test_powell_driver_rejects_non_improving_lines():
    # start exactly at the optimum: every probed arm is worse, nothing moves
    bandit = quadratic_bandit([0.5, 0.5])
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, max_steps=4)
    res = powell_driver(bandit, np.array([0.5, 0.5]), cfg, SeededRng(0))
    assert np.allclose(res.point, [0.5, 0.5])
    assert not any(s.accepted for s in res.steps)


def test_powell_driver_stop_condition():
    bandit = quadratic_bandit([0.3, 0.7])
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=7, max_steps=50)
    res = powell_driver(bandit, np.array([0.5, 0.5]), cfg, SeededRng(1),
                        stop_condition=lambda p: bandit.mean(p) < 0.05)
    assert res.stopped_early
    assert bandit.mean(res.point) < 0.05


def test_powell_driver_budget_accounting():
    inner = quadratic_bandit([0.3, 0.7], sigma=1.0)
    counting = CountingBandit(inner)
    cfg = DriverConfig(max_steps=50, budget=200_000)
    res = powell_driver(counting, np.array([0.5, 0.5]), cfg, SeededRng(2))
    assert res.samples_used == counting.count
    assert res.samples_used <= 200_000
    assert res.budget_exhausted


def test_start_point_validation():
    with pytest.raises(ValueError):
        powell_driver(quadratic_bandit([0.5, 0.5]), np.array([0.5, 1.5]),
                      DriverConfig(), SeededRng(0))
    with pytest.raises(ValueError):
        random_direction_driver(quadratic_bandit([0.5, 0.5]),
                                np.array([[0.5, 0.5]]), DriverConfig(),
                                SeededRng(0))


# -------------------------------------------------- random directions

def test_random_driver_zero_noise_quadratic():
    bandit = quadratic_bandit([0.3, 0.7])
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=7, max_steps=30)
    res = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                  SeededRng(6),
                                  stop_condition=lambda p: bandit.mean(p) < 1e-3)
    assert res.stopped_early
    assert bandit.mean(res.point) < 1e-3


def test_random_driver_q_zero_accepts_every_step():
    # temperature zero in the exponent means worsening moves pass too
    bandit = quadratic_bandit([0.5, 0.5], sigma=0.5)
    cfg = DriverConfig(q=0.0, max_steps=10)
    res = random_direction_driver(bandit, np.array([0.4, 0.4]), cfg,
                                  SeededRng(7))
    assert all(s.accepted for s in res.steps)


def test_random_driver_huge_q_only_improves():
    bandit = quadratic_bandit([0.5, 0.5], sigma=0.2)
    cfg = DriverConfig(q=1e12, max_steps=25)
    res = random_direction_driver(bandit, np.array([0.2, 0.2]), cfg,
                                  SeededRng(8))
    values = [s.incumbent_value for s in res.steps]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))


def test_random_driver_aim_acceptance_runs():
    bandit = quadratic_bandit([0.3, 0.7], sigma=0.1)
    cfg = DriverConfig(acceptance="aim", max_steps=15)
    res = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                  SeededRng(9))
    assert len(res.steps) == 15
    assert any(s.accepted for s in res.steps)


def test_random_driver_location_acceptance_variant():
    bandit = quadratic_bandit([0.3, 0.7], sigma=0.1)
    cfg = DriverConfig(raw_location_acceptance=True, max_steps=10)
    res = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                  SeededRng(10))
    assert len(res.steps) == 10


def test_random_driver_budget_accounting():
    inner = quadratic_bandit([0.3, 0.7], sigma=1.0)
    counting = CountingBandit(inner)
    cfg = DriverConfig(max_steps=50, budget=200_000)
    res = random_direction_driver(counting, np.array([0.5, 0.5]), cfg,
                                  SeededRng(11))
    assert res.samples_used == counting.count
    assert res.budget_exhausted
    assert res.samples_used <= 200_000


def test_drivers_are_deterministic():
    bandit = quadratic_bandit([0.3, 0.7], sigma=0.5)
    cfg = DriverConfig(max_steps=6)
    a = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                SeededRng(12))
    b = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                SeededRng(12))
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value
    assert [s.cumulative_samples for s in a.steps] == \
        [s.cumulative_samples for s in b.steps]
