"""Elimination core: grids, sample counts, exclusion, recommendation."""

import math

import numpy as np
import pytest

from rrbandit import rr
from rrbandit.bandits import GaussianBandit
from rrbandit.intervals import IntervalSet
from rrbandit.lines import LinearSlice, SliceBandit
from rrbandit.qsim import PqcBandit
from rrbandit.rng import SeededRng


# ---------------------------------------------------------------- grids

def test_round1_grid_unit_lipschitz():
    pts = rr.grid_points(1, 1.0)
    assert pts.shape == (16,)
    assert pts[0] == 1.0 / 32.0
    assert pts[-1] == 31.0 / 32.0
    assert np.allclose(np.diff(pts), 1.0 / 16.0)


def test_round2_grid_doubles():
    pts = rr.grid_points(2, 1.0)
    assert pts.shape == (32,)
    assert pts[0] == 1.0 / 64.0


def test_grid_scales_with_ceil_lipschitz():
    pts = rr.grid_points(1, 3.0)
    assert pts.shape == (48,)
    assert pts[0] == pytest.approx(1.0 / 96.0)
    # fractional constants round up
    assert rr.grid_points(1, 2.2).shape == (48,)


def test_grid_covers_domain_at_half_spacing():
    for t in (1, 2, 3):
        for lips in (1.0, 2.0, 3.7):
            pts = rr.grid_points(t, lips)
            xs = np.linspace(0.0, 1.0, 1001)
            dist = np.min(np.abs(xs[:, None] - pts[None, :]), axis=1)
            assert dist.max() <= 1.0 / (math.ceil(lips) * 2.0 ** (t + 4)) + 1e-12


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rr.grid_points(0, 1.0)
    with pytest.raises(ValueError):
        rr.grid_points(1, 0.0)


# ------------------------------------------------------- sample counts

def test_samples_per_arm_frozen_values():
    # direct formula evaluation: ceil(2 ln(2/alpha) / ell^2)
    assert rr.samples_per_arm(1, 0.1, 16) == 13234
    assert rr.samples_per_arm(2, 0.1, 32) == 64289


def test_samples_per_arm_ratio_drifts_down_toward_4():
    counts = [rr.samples_per_arm(t, 0.1, 16 * 2 ** (t - 1))
              for t in range(1, 12)]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(4.0 < r < 4.9 for r in ratios)
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_samples_per_arm_floors_at_one_for_huge_delta():
    assert rr.samples_per_arm(1, 1e9, 1) == 1


def test_samples_per_arm_scales_with_noise_above_one():
    base = rr.samples_per_arm(2, 0.1, 32)
    # sigma <= 1 noise is also 1-sub-Gaussian: the same count
    for sigma in (0.0, 0.5, 1.0):
        assert rr.samples_per_arm(2, 0.1, 32, sigma) == base
    assert rr.samples_per_arm(2, 0.1, 32, 6.0) == math.ceil(
        2.0 * 36.0 * math.log(2.0 / (0.1 / (4 * 32))) / rr.ci_half_width(2) ** 2)
    assert 35 * base < rr.samples_per_arm(2, 0.1, 32, 6.0) <= 36 * base
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            rr.samples_per_arm(2, 0.1, 32, bad)


def test_dyadic_depth():
    assert rr.dyadic_depth(0.5) == 1
    assert rr.dyadic_depth(2.0 ** -7) == 7
    for bad in (0.3, 1.0, 0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            rr.dyadic_depth(bad)


def test_ci_half_width():
    assert rr.ci_half_width(1) == 1.0 / 32.0
    assert rr.ci_half_width(3) == 2.0 ** -7


# ------------------------------------------------------------- rounds

def _wedge_bandit(sigma=0.0):
    return GaussianBandit(lambda x: abs(x - 0.5), lipschitz=1.0, sigma=sigma)


def test_zero_noise_wedge_round1_frozen():
    """Exact means: the round-1 winner and exclusions are computable by hand.

    Arms sit at (2k-1)/32; the two extreme arms (values 15/32) exceed the
    winner (1/32 at x=15/32) by more than 12/32 and lose their 1/32
    neighborhoods, while 13/32 at the next arms in is not strictly more.
    """
    state = rr.run_round(rr.RRState(), _wedge_bandit(), rr.RRConfig(0.5, 0.1),
                         SeededRng(0))
    assert state.round == 1
    best = state.best_per_round[0]
    assert best.location == 15.0 / 32.0
    assert best.value == pytest.approx(1.0 / 32.0)
    rec = state.trace[0]
    assert rec.n_active == 16
    assert rec.pulls_per_arm == rr.samples_per_arm(1, 0.1, 16)
    assert rec.excluded == IntervalSet([(0.0, 1.0 / 16.0),
                                        (15.0 / 16.0, 1.0)])
    assert state.surviving == IntervalSet([(1.0 / 16.0, 15.0 / 16.0)])


def test_round_pulls_follow_the_bandit_noise_scale():
    cfg = rr.RRConfig(0.5, 0.1)
    for sigma in (0.5, 6.0):
        state = rr.run_round(rr.RRState(), _wedge_bandit(sigma), cfg,
                             SeededRng(0))
        assert state.trace[0].pulls_per_arm == rr.samples_per_arm(
            1, 0.1, 16, sigma)


def test_constant_objective_excludes_nothing():
    bandit = GaussianBandit(lambda x: 0.7, sigma=0.0)
    state = rr.RRState()
    for _ in range(3):
        state = rr.run_round(state, bandit, rr.RRConfig(2.0 ** -3, 0.1),
                             SeededRng(0))
        assert state.surviving == IntervalSet.unit()
        assert not state.trace[-1].excluded.spans


def test_no_active_arms_raises():
    state = rr.RRState(surviving=IntervalSet([(0.0, 0.001)]))
    with pytest.raises(rr.NoActiveArmsError):
        rr.run_round(state, _wedge_bandit(), rr.RRConfig(0.5, 0.1),
                     SeededRng(0))


def test_round_respects_budget():
    state0 = rr.RRState()
    cost = 16 * rr.samples_per_arm(1, 0.1, 16)
    state = rr.run_round(state0, _wedge_bandit(1.0), rr.RRConfig(0.5, 0.1),
                         SeededRng(0), budget=cost - 1)
    assert state.budget_exhausted
    assert state.round == 0 and state.total_samples == 0
    state = rr.run_round(state0, _wedge_bandit(1.0), rr.RRConfig(0.5, 0.1),
                         SeededRng(0), budget=cost)
    assert not state.budget_exhausted
    assert state.total_samples == cost


def test_rounds_are_deterministic_given_seed():
    cfg = rr.RRConfig(2.0 ** -3, 0.1)
    runs = []
    for _ in range(2):
        state = rr.RRState()
        for _ in range(3):
            state = rr.run_round(state, _wedge_bandit(1.0), cfg, SeededRng(11))
        runs.append([rec.values.tolist() for rec in state.trace])
    assert runs[0] == runs[1]


def _pqc_line():
    sl = LinearSlice((0.3, 0.6, 0.1, 0.8), (1.0, 0.0, 0.0, 0.0))
    return SliceBandit(PqcBandit(2), sl, lipschitz=1.0)


@pytest.mark.parametrize("bandit", [_wedge_bandit(1.0), _pqc_line()],
                         ids=["gaussian", "pqc"])
def test_round_draws_its_arms_in_order_from_one_stream(bandit):
    """Round t's values are sample_mean at each surviving arm, in grid
    order, on the one stream rng.child(t)."""
    rng = SeededRng(23, key=(4,))
    state = rr.RRState()
    for _ in range(3):
        state = rr.run_round(state, bandit, rr.RRConfig(2.0 ** -3, 0.1), rng)
    assert [rec.round for rec in state.trace] == [1, 2, 3]
    for rec in state.trace:
        stream = rng.child(rec.round)
        expect = [bandit.sample_mean(x, rec.pulls_per_arm, stream)
                  for x in rec.locations.tolist()]
        assert rec.values.tobytes() == np.array(expect).tobytes()


# ---------------------------------------------------------- recommend

def test_recommend_prefers_earliest_round_on_ties():
    a1 = rr.ArmEstimate(1, 0.2, 0.5, 10)
    a2 = rr.ArmEstimate(2, 0.8, 0.5, 40)
    assert rr.recommend(rr.RRState(best_per_round=(a1, a2))) is a1
    assert rr.recommend(rr.RRState()) is None


def test_full_run_zero_noise_wedge():
    x_hat, state = rr.run(_wedge_bandit(), rr.RRConfig(2.0 ** -5, 0.1),
                          SeededRng(0))
    assert state.round == 5
    assert x_hat == 255.0 / 512.0  # nearest round-5 arm to the optimum
    assert abs(x_hat - 0.5) <= 2.0 ** -5
    # surviving measure shrinks monotonically under exact means
    measures = [rec.surviving_measure for rec in state.trace]
    assert all(m1 >= m2 for m1, m2 in zip(measures, measures[1:]))
    # optimum is never excluded
    for rec in state.trace:
        assert not rr.active_mask(rec.excluded, np.array([0.5]))[0]


def test_run_with_tiny_budget_returns_none():
    x_hat, state = rr.run(_wedge_bandit(1.0), rr.RRConfig(0.5, 0.1),
                          SeededRng(0), budget=10)
    assert x_hat is None
    assert state.budget_exhausted


def test_run_stops_midway_on_budget():
    cost1 = 16 * rr.samples_per_arm(1, 0.1, 16)
    x_hat, state = rr.run(_wedge_bandit(1.0), rr.RRConfig(2.0 ** -4, 0.1),
                          SeededRng(3), budget=cost1)
    assert state.round == 1
    assert state.budget_exhausted
    assert x_hat == state.best_per_round[0].location


def test_run_max_depth_caps_rounds():
    _, state = rr.run(_wedge_bandit(), rr.RRConfig(2.0 ** -6, 0.1),
                      SeededRng(0), max_depth=2)
    assert state.round == 2


def test_config_validation():
    with pytest.raises(ValueError):
        rr.RRConfig(0.3, 0.1)
    with pytest.raises(ValueError):
        rr.RRConfig(0.5, 0.0)
    with pytest.raises(ValueError):
        rr.RRConfig(0.5, 0.1, lipschitz=0.0)
    assert rr.RRConfig(2.0 ** -4, 0.1).depth == 4


def test_early_stop_skips_deeper_rounds_when_incumbent_wins():
    # flat landscape: round 1 cannot undercut a strong incumbent
    bandit = GaussianBandit(lambda x: 0.5, sigma=0.0)
    cfg = rr.RRConfig(2.0 ** -4, 0.1, early_stop_depth1=True)
    _, state = rr.run(bandit, cfg, SeededRng(0), incumbent_value=0.1)
    assert state.round == 1
    # a clearly better landscape keeps digging
    _, state = rr.run(_wedge_bandit(), cfg, SeededRng(0), incumbent_value=0.9)
    assert state.round == 4
