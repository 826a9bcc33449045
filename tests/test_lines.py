"""Line slices and the multi-dimensional search drivers."""

import math

import numpy as np
import pytest

from rrbandit import rr
from rrbandit.bandits import GaussianBandit
from rrbandit.lines import (DriverConfig, SliceBandit, powell_driver,
                            random_direction_driver, rr_line_search)
from rrbandit.rng import SeededRng

from instances import CountingBandit, grid_points


def quadratic(center):
    center = np.asarray(center, dtype=np.float64)

    def mean_fn(p):
        return np.sum((p - center) ** 2, axis=-1)

    return mean_fn


def quadratic_bandit(center, sigma=0.0):
    return GaussianBandit(quadratic(center), sigma=sigma)


# ------------------------------------------------------------- slices

def test_slice_point_periodic_and_truncated():
    parent = quadratic_bandit([0.0, 0.0])
    sl = SliceBandit(parent, (0.8, 0.5), (1.0, 0.0))
    assert np.allclose(sl.point(0.3), [0.1, 0.5])  # wraps around
    sl = SliceBandit(parent, (0.8, 0.5), (1.0, 0.0), wrap="truncated")
    assert np.allclose(sl.point(0.3), [1.0, 0.5])
    assert np.allclose(sl.point(0.0), [0.8, 0.5])
    # an array of s gives the bits of one call per s, under both wraps
    s = np.concatenate([SeededRng(3).random(64), [0.0, 0.5, 1.0]])
    for wrap in ("periodic", "truncated"):
        sl = SliceBandit(parent, (0.8, 0.3, 0.1), (0.6, -0.48, 0.64), wrap)
        each = np.array([sl.point(x) for x in s.tolist()])
        assert sl.point(s).shape == (s.size, 3)
        assert sl.point(s).tobytes() == each.tobytes()


def test_slice_validation():
    parent = quadratic_bandit([0.0, 0.0])
    with pytest.raises(ValueError):
        SliceBandit(parent, (0.5,), (1.0, 0.0))
    with pytest.raises(ValueError):
        SliceBandit(parent, (0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        SliceBandit(parent, (0.5,), (1.0,), wrap="reflect")
    assert SliceBandit(parent, (0.0, 0.0), (3.0, 4.0)).direction_norm == 5.0


def test_slice_bandit_restricts_parent():
    parent = quadratic_bandit([0.25, 0.75])
    line = SliceBandit(parent, (0.0, 0.75), (1.0, 0.0))
    exact = line.sample_means(np.array([0.25, 0.5]), 1, SeededRng(0))
    assert exact.tolist() == pytest.approx([0.0, 0.0625])


# -------------------------------------------------------- line search

def test_line_search_probes_incumbent_plus_grid():
    parent = quadratic_bandit([0.3, 0.5], sigma=1.0)
    sl = SliceBandit(parent, (0.0, 0.5), (1.0, 0.0))
    cfg = DriverConfig()  # lipschitz 0.5 -> 16 depth-1 arms
    res = rr_line_search(sl, cfg, SeededRng(0), incumbent_value=0.4)
    assert res.locations.shape == (17,)
    assert res.locations[0] == 0.0
    assert res.values[0] == 0.4
    assert res.samples_used == 16 * rr.samples_per_arm(1, cfg.delta, 16)


def test_line_pulls_and_incumbent_pulls_follow_the_noise_scale():
    parent = CountingBandit(quadratic_bandit([0.3, 0.5], sigma=6.0))
    sl = SliceBandit(parent, (0.0, 0.5), (1.0, 0.0))
    cfg = DriverConfig(max_steps=1)
    n = rr.samples_per_arm(1, cfg.delta, 16, 6.0)
    assert n > 35 * rr.samples_per_arm(1, cfg.delta, 16)
    res = rr_line_search(sl, cfg, SeededRng(0), incumbent_value=0.4)
    assert res.samples_used == 16 * n
    parent.count = 0
    res = powell_driver(parent, np.array([0.5, 0.5]), cfg, SeededRng(0))
    # the start estimate takes a depth-1 arm's count, then one line
    assert res.samples_used == parent.count == 17 * n


def test_line_search_arm_count_scales_with_direction_norm():
    parent = quadratic_bandit([0.3, 0.5], sigma=1.0)
    cfg = DriverConfig()
    # norm 3 -> lipschitz 1.5
    sl = SliceBandit(parent, (0.0, 0.0), (0.0, 3.0))
    res = rr_line_search(sl, cfg, SeededRng(0), incumbent_value=1.0)
    assert res.locations.shape == (33,)


def test_line_search_zero_noise_lands_on_nearest_arm():
    parent = quadratic_bandit([0.3, 0.0])
    sl = SliceBandit(parent, (0.0, 0.0), (1.0, 0.0))
    res = rr_line_search(sl, DriverConfig(), SeededRng(0),
                         incumbent_value=quadratic([0.3, 0.0])(np.zeros(2)))
    assert res.s_hat == 9.0 / 32.0  # closest depth-1 arm to the minimum
    assert res.g_hat == pytest.approx((9.0 / 32.0 - 0.3) ** 2)


def test_line_search_flat_slice_keeps_incumbent():
    parent = GaussianBandit(lambda p: np.full(len(p), 0.5), sigma=0.0)
    sl = SliceBandit(parent, (0.2, 0.2), (1.0, 0.0))
    res = rr_line_search(sl, DriverConfig(), SeededRng(0),
                         incumbent_value=0.5)
    assert res.s_hat == 0.0
    assert res.g_hat == 0.5


def test_line_search_returns_s_zero_only_with_the_incumbent_value():
    """No grid arm sits at s = 0 and the incumbent wins ties, so a line
    returns s_hat == 0.0 exactly when g_hat is the incumbent value, and
    otherwise a g_hat below it. `g_hat < incumbent` alone is therefore
    the drivers' test for a line that moves the point. Lines that
    improve, flat lines tied with the incumbent, lines whose every arm
    is worse, noisy and noise-free, at depths 1 and 2."""
    for t in range(1, 9):
        for lipschitz in (0.5, 1.0, 3.0, 7.5):
            assert grid_points(t, lipschitz).min() > 0.0
    root = SeededRng(30)
    for case in range(60):
        rng = root.child(case)
        center = rng.child(0).random(2)
        base = tuple(rng.child(1).random(2).tolist())
        direction = tuple(rng.child(2).standard_normal(2).tolist())
        sigma = (0.0, 0.05, 0.5)[case % 3]
        if case % 4 == 0:
            parent = GaussianBandit(lambda p: np.full(len(p), 0.25),
                                    sigma=sigma)
            incumbent = 0.25
        else:
            parent = quadratic_bandit(center, sigma=sigma)
            # the incumbent below, at or above the line's true value
            incumbent = (quadratic(center)(np.asarray(base))
                         + (-0.5, 0.0, 0.5)[case % 3])
        sl = SliceBandit(parent, base, direction)
        cfg = DriverConfig(d_max=1 + case % 2)
        res = rr_line_search(sl, cfg, rng.child(3), incumbent)
        assert (res.s_hat == 0.0) == (res.g_hat == incumbent)
        assert res.g_hat <= incumbent


def test_line_search_depth_two_probes_more():
    parent = quadratic_bandit([0.3, 0.0])
    sl = SliceBandit(parent, (0.0, 0.0), (1.0, 0.0))
    cfg = DriverConfig(d_max=2)
    res = rr_line_search(sl, cfg, SeededRng(0), incumbent_value=0.09)
    assert res.locations.shape[0] > 17
    # depth 2 halves the grid resolution
    assert abs(res.s_hat - 0.3) <= 1.0 / 64.0


def test_line_search_budget_exhaustion_returns_incumbent_only():
    parent = quadratic_bandit([0.3, 0.0], sigma=1.0)
    sl = SliceBandit(parent, (0.0, 0.0), (1.0, 0.0))
    res = rr_line_search(sl, DriverConfig(), SeededRng(0),
                         incumbent_value=0.7, budget=10)
    assert res.budget_exhausted
    assert res.samples_used == 0
    assert res.locations.shape == (1,)
    assert res.s_hat == 0.0


def _wedge_line():
    """|s - 1/2| with no noise, as a line at lipschitz L * |u| = L."""
    parent = GaussianBandit(lambda p: np.abs(p[:, 0] - 0.5), sigma=0.0)
    return SliceBandit(parent, (0.0,), (1.0,))


def _record_states(monkeypatch):
    """The learner states the line searches run, the last one at [-1]."""
    states = []
    run_round = rr.run_round

    def recording(*args, **kwargs):
        states.append(run_round(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(rr, "run_round", recording)
    return states


def test_line_search_d_max_caps_rounds(monkeypatch):
    states = _record_states(monkeypatch)
    cfg = DriverConfig(lipschitz=1.0, delta=0.1, d_max=2,
                       epsilon_line=2.0 ** -6)
    rr_line_search(_wedge_line(), cfg, SeededRng(0), incumbent_value=1.0)
    state = states[-1]
    assert len(state.trace) == 2


def test_early_stop_skips_deeper_rounds_when_incumbent_wins(monkeypatch):
    states = _record_states(monkeypatch)
    cfg = DriverConfig(lipschitz=1.0, delta=0.1, d_max=4,
                       epsilon_line=2.0 ** -4, early_stop_depth1=True)
    # flat landscape: round 1 cannot undercut a strong incumbent
    flat = GaussianBandit(lambda p: np.full(len(p), 0.5), sigma=0.0)
    rr_line_search(SliceBandit(flat, (0.0,), (1.0,)), cfg, SeededRng(0),
                   incumbent_value=0.1)
    state = states[-1]
    assert len(state.trace) == 1
    # a clearly better landscape keeps digging
    rr_line_search(_wedge_line(), cfg, SeededRng(0), incumbent_value=0.9)
    state = states[-1]
    assert len(state.trace) == 4


def test_driver_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(d_max=0)
    with pytest.raises(ValueError):
        DriverConfig(wrap="clamp")
    with pytest.raises(ValueError):
        DriverConfig(acceptance="always")
    with pytest.raises(ValueError):
        DriverConfig(epsilon_line=0.3)
    for bad in ({"lipschitz": 0.0}, {"lipschitz": math.inf},
                {"delta": 0.0}, {"delta": math.inf}, {"delta": math.nan},
                {"max_steps": -1}):
        with pytest.raises(ValueError):
            DriverConfig(**bad)
    DriverConfig(max_steps=0)  # the bound is inclusive


def test_driver_lipschitz_holds_on_every_line():
    """A driver's unit directions can come out a few ulps longer than 1,
    so DriverConfig refuses a lipschitz near RRConfig's limit that a line
    search would refuse at L * |u|, instead of failing mid-run."""
    with pytest.raises(ValueError, match="lipschitz"):
        DriverConfig(lipschitz=2.0 ** 48)
    lips = 2.0 ** 48 - 2.0 ** 18
    cfg = DriverConfig(lipschitz=lips)
    line = SliceBandit(quadratic_bandit([0.5]), (0.5,), (1.0 + 2.0 ** -52,))
    assert line.direction_norm > 1.0
    for norm in (line.direction_norm, 1.0 + 2.0 ** -40):
        rr.RRConfig(cfg.epsilon_line, cfg.delta, lips * norm)


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
    mean_fn = quadratic([0.3, 0.7])
    bandit = GaussianBandit(mean_fn, sigma=0.0)
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=7, max_steps=50)
    res = powell_driver(bandit, np.array([0.5, 0.5]), cfg, SeededRng(1),
                        stop_condition=lambda p: mean_fn(p) < 0.05)
    assert res.stopped_early
    assert mean_fn(res.point) < 0.05


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
    mean_fn = quadratic([0.3, 0.7])
    bandit = GaussianBandit(mean_fn, sigma=0.0)
    cfg = DriverConfig(lipschitz=2.0, delta=0.1, d_max=7, max_steps=30)
    res = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                  SeededRng(6),
                                  stop_condition=lambda p: mean_fn(p) < 1e-3)
    assert res.stopped_early
    assert mean_fn(res.point) < 1e-3


def test_random_driver_reject_moves_only_on_improvement():
    bandit = quadratic_bandit([0.5, 0.5], sigma=0.2)
    start = np.array([0.2, 0.2])
    points = [start]

    def log_point(point):
        points.append(point)
        return False

    res = random_direction_driver(bandit, start, DriverConfig(max_steps=25),
                                  SeededRng(8), stop_condition=log_point)
    assert len(res.steps) == 25
    values = [s.incumbent_value for s in res.steps]
    for k, step in enumerate(res.steps):
        # only an accepted step moves the point or lowers the incumbent
        if not step.accepted:
            assert points[k + 1].tobytes() == points[k].tobytes()
            assert k == 0 or values[k] == values[k - 1]
        elif k:
            assert values[k] < values[k - 1]
    assert any(s.accepted for s in res.steps)
    assert not all(s.accepted for s in res.steps)


def test_random_driver_aim_acceptance_runs():
    bandit = quadratic_bandit([0.3, 0.7], sigma=0.1)
    cfg = DriverConfig(acceptance="aim", max_steps=15)
    res = random_direction_driver(bandit, np.array([0.5, 0.5]), cfg,
                                  SeededRng(9))
    assert len(res.steps) == 15
    assert any(s.accepted for s in res.steps)


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
