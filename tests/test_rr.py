"""Elimination core: grids, sample counts, exclusion, recommendation."""

import math

import numpy as np
import pytest

from rrbandit import rr
from rrbandit.bandits import GaussianBandit
from rrbandit.intervals import EPSILON, IntervalSet
from rrbandit.lines import SliceBandit
from rrbandit.qsim import PqcBandit
from rrbandit.rng import SeededRng

from instances import active_mask, grid_points


# ---------------------------------------------------------------- grids

class _FlatBandit:
    """Noise-free zero means: a round keeps every arm it lays."""

    sigma = 0.0

    def sample_means(self, points, n, rng):
        return np.zeros(len(points))


def _laid(surviving, t, lips):
    """The arms run_round lays in round t over the surviving region. A
    state's next round is len(trace) + 1, so t - 1 placeholders stand for
    the earlier rounds' records."""
    state = rr.RRState(surviving, 0, (None,) * (t - 1))
    cfg = rr.RRConfig(0.5, 0.1, lips)
    state = rr.run_round(state, _FlatBandit(), cfg, SeededRng(t))
    return state.trace[-1].locations


UNIT = IntervalSet.unit()


def test_round1_grid_unit_lipschitz():
    pts = _laid(UNIT, 1, 1.0)
    assert pts.shape == (16,)
    assert pts[0] == 1.0 / 32.0
    assert pts[-1] == 31.0 / 32.0
    assert np.allclose(np.diff(pts), 1.0 / 16.0)


def test_round2_grid_doubles():
    pts = _laid(UNIT, 2, 1.0)
    assert pts.shape == (32,)
    assert pts[0] == 1.0 / 64.0


def test_grid_scales_with_ceil_lipschitz():
    pts = _laid(UNIT, 1, 3.0)
    assert pts.shape == (48,)
    assert pts[0] == pytest.approx(1.0 / 96.0)
    # fractional constants round up
    assert _laid(UNIT, 1, 2.2).shape == (48,)


def test_grid_covers_domain_at_half_spacing():
    for t in (1, 2, 3):
        for lips in (1.0, 2.0, 3.7):
            pts = _laid(UNIT, t, lips)
            xs = np.linspace(0.0, 1.0, 1001)
            dist = np.min(np.abs(xs[:, None] - pts[None, :]), axis=1)
            assert dist.max() <= 1.0 / (math.ceil(lips) * 2.0 ** (t + 4)) + 1e-12


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grid_points(0, 1.0)
    with pytest.raises(ValueError):
        grid_points(1, 0.0)


@pytest.mark.parametrize("lips", [1.0, 2.0, 2.2, 3.0])
def test_cached_grid_is_bitwise_the_formula_and_read_only(lips):
    """The whole grid, as a round lays it on the unit interval and as the
    reference builds it, is bitwise the formula (2k - 1) / denom."""
    ceil_l = math.ceil(lips)
    for t in range(1, 9):
        k = np.arange(1, (ceil_l << (t + 3)) + 1, dtype=np.float64)
        expect = (2.0 * k - 1.0) / (ceil_l * 2.0 ** (t + 4))
        for pts in (_laid(UNIT, t, lips), grid_points(t, lips)):
            assert pts.dtype == np.float64
            assert pts.tobytes() == expect.tobytes()


def _random_region(gen, points):
    """Up to three spans whose edges are uniform, or on a grid point, at
    EPSILON either side of one, and up to three ulps off each of those."""
    edges = []
    for _ in range(2 * int(gen.integers(0, 4))):
        if gen.random() < 0.25:
            edge = float(gen.uniform(-0.01, 1.01))
        else:
            edge = float(points[gen.integers(points.size)])
            edge += (0.0, EPSILON, -EPSILON)[gen.integers(3)]
            toward = (-math.inf, math.inf)[gen.integers(2)]
            for _ in range(int(gen.integers(0, 4))):
                edge = math.nextafter(edge, toward)
        edges.append(edge)
    edges.sort()
    return IntervalSet(zip(edges[::2], edges[1::2]))


def test_round_lays_the_reference_arms_bytewise():
    """A round lays, bit for bit, the arms of its whole grid that the
    reference mask keeps, for 40 random regions at each depth 1..12 and
    lipschitz, whether or not ceil(L) is a power of two; with no such arm
    it raises NoActiveArmsError."""
    gen = np.random.default_rng(27)
    empty = 0
    for lips in (0.5, 1.0, 2.0, 2.2, 3.0, 5.5, 6.0, 7.0, 13.0, 100.5):
        for t in range(1, 13):
            points = grid_points(t, lips)
            for _ in range(40):
                surviving = _random_region(gen, points)
                expect = points[active_mask(surviving, points)]
                if expect.size == 0:
                    empty += 1
                    with pytest.raises(rr.NoActiveArmsError):
                        _laid(surviving, t, lips)
                    continue
                got = _laid(surviving, t, lips)
                assert got.dtype == np.float64
                assert got.tobytes() == expect.tobytes()
    assert 0 < empty < 4800 // 2


def test_round_lays_a_2_to_the_52_grid_exactly_and_refuses_past_it():
    """Round 48 at L = 2 has 2^52 arms, the most whose numerators 2k - 1
    are exact: a narrow region's arms there are consecutive grid points,
    the first at or above its left edge less EPSILON. Round 49, with 2^53,
    raises ValueError before it lays or pulls anything."""
    assert rr.grid_size(48, 2.0) == 2 ** 52
    a = 0.3
    pts = _laid(IntervalSet([(a, a + 1e-11)]), 48, 2.0)
    denom = 2.0 ** 53
    numerators = pts * denom
    assert np.array_equal(numerators, np.round(numerators))
    assert np.all(numerators % 2 == 1)
    assert np.all(np.diff(numerators) == 2.0)
    assert pts[0] >= a - EPSILON > (numerators[0] - 2.0) / denom
    assert pts[-1] < a + 1e-11 + EPSILON <= (numerators[-1] + 2.0) / denom
    with pytest.raises(ValueError, match="2\\*\\*52"):
        _laid(IntervalSet([(a, a + 1e-11)]), 49, 2.0)


# ----------------------------------------------- exclusion and masks

def _per_arm_excluded(centers, radius):
    """The excluded set as rounds built it before the grid-order merge."""
    return IntervalSet([(h - radius, h + radius) for h in centers])


def _per_span_mask(surviving, points):
    """active_mask as two np.searchsorted calls per surviving span."""
    mask = np.zeros(points.shape[0], dtype=bool)
    for a, b in surviving.spans:
        lo = np.searchsorted(points, a - EPSILON)
        hi = np.searchsorted(points, b + EPSILON)
        mask[lo:hi] = True
    return mask


@pytest.mark.parametrize("lips", [1.0, 2.0, 2.2, 3.0])
def test_merged_neighborhoods_are_the_per_arm_spans(lips):
    """Spans compared as tuples with ==, not IntervalSet.__eq__, whose
    tolerance would hide a one-ulp difference."""
    gen = np.random.default_rng(7)
    for t in range(1, 9):
        points = grid_points(t, lips)
        radius = rr.ci_half_width(t)
        masks = [np.zeros(points.size, bool), np.ones(points.size, bool)]
        masks += [gen.random(points.size) < p for p in (0.05, 0.3, 0.7, 0.95)]
        for reject in masks:
            centers = points[reject]
            got = rr.merged_neighborhoods(centers, radius)
            assert got.spans == _per_arm_excluded(centers, radius).spans


def test_merged_neighborhoods_split_exactly_past_epsilon():
    """Gaps of EPSILON - 1 ulp, EPSILON and EPSILON + 1 ulp between two
    neighborhoods: they merge unless the left end lies beyond the previous
    right end plus EPSILON, as in IntervalSet's constructor."""
    radius = rr.ci_half_width(3)
    left = 0.40625
    edge = (left + radius) + EPSILON
    outcomes = []
    for target in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        # the center whose left end rounds to the target
        right = target + radius
        while right - radius > target:
            right = np.nextafter(right, 0.0)
        while right - radius < target:
            right = np.nextafter(right, 1.0)
        assert right - radius == target
        centers = np.array([0.125, left, right, 0.875])
        got = rr.merged_neighborhoods(centers, radius)
        assert got.spans == _per_arm_excluded(centers, radius).spans
        outcomes.append(len(got.spans))
    assert outcomes == [3, 3, 4]


@pytest.mark.parametrize("lips", [1.0, 2.0, 2.2, 3.0])
def test_active_mask_is_the_per_span_search(lips):
    gen = np.random.default_rng(11)
    for t in range(1, 9):
        points = grid_points(t, lips)
        radius = rr.ci_half_width(t)
        cases = [IntervalSet(), IntervalSet.unit()]
        for p in (0.1, 0.5, 0.9):
            excluded = rr.merged_neighborhoods(
                points[gen.random(points.size) < p], radius)
            cases.append(IntervalSet.unit().subtract(excluded))
        # span edges at a grid point +- EPSILON, and one ulp either side
        x = float(points[points.size // 3])
        for edge in (x - EPSILON, x + EPSILON):
            for e in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                cases.append(IntervalSet([(0.0, float(e))]))
                cases.append(IntervalSet([(float(e), 1.0)]))
        for surviving in cases:
            mask = _per_span_mask(surviving, points)
            assert active_mask(surviving, points).tobytes() == mask.tobytes()
            if mask.any():  # and a round lays exactly the masked arms
                got = _laid(surviving, t, lips)
                assert got.tobytes() == points[mask].tobytes()


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
    # 1e300 overflows sigma^2, and 1e153 the count
    for bad in (-0.5, math.inf, math.nan, 1e300, 1e153):
        with pytest.raises(ValueError):
            rr.samples_per_arm(2, 0.1, 32, bad)


def test_samples_per_arm_overflows_past_the_deepest_countable_round():
    """On the toy's full grid at sigma 1, round 502's count is a float,
    round 503's overflows and round 511's level 2^t * n_arms does too."""
    assert rr.samples_per_arm(502, 0.1, rr.grid_size(502, 2.0)) < math.inf
    for t in (503, 511):
        with pytest.raises(ValueError, match="overflows"):
            rr.samples_per_arm(t, 0.1, rr.grid_size(t, 2.0))


def test_samples_per_arm_takes_a_tiny_delta_in_logs():
    """At delta = 5e-324 the level delta / (2^t n_arms) underflows to 0,
    and at 1e-310 its 2 / alpha overflows; the count is still finite, from
    log(2^(t+1) n_arms) - log(delta). A delta whose 2 / alpha is a float
    keeps the one-log count."""
    ell = rr.ci_half_width(1)
    for delta in (5e-324, 1e-310):
        alpha = delta / (2 * 16)
        assert alpha == 0.0 or 2.0 / alpha == math.inf
        expect = math.ceil(
            2.0 * (math.log(2 ** 2 * 16) - math.log(delta)) / ell ** 2)
        assert rr.samples_per_arm(1, delta, 16) == expect
    assert rr.samples_per_arm(1, 1e-300, 16) == math.ceil(
        2.0 * math.log(2.0 / (1e-300 / 32)) / ell ** 2)
    deep = rr.samples_per_arm(40, 5e-324, rr.grid_size(40, 2.0), 6.0)
    assert 0 < deep < math.inf


def test_dyadic_depth():
    assert rr.dyadic_depth(0.5) == 1
    assert rr.dyadic_depth(2.0 ** -7) == 7
    # every dyadic epsilon down to the smallest subnormal, 2**-1074; below
    # 2**-1023 the reciprocal 1/epsilon overflows a float
    assert [rr.dyadic_depth(2.0 ** -d) for d in range(1, 1075)] == \
        list(range(1, 1075))
    for bad in (0.3, 1.0, 0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            rr.dyadic_depth(bad)


def test_ci_half_width():
    assert rr.ci_half_width(1) == 1.0 / 32.0
    assert rr.ci_half_width(3) == 2.0 ** -7


# ------------------------------------------------------------- rounds

def _wedge_bandit(sigma=0.0):
    return GaussianBandit(lambda x: abs(x - 0.5), sigma=sigma)


def test_zero_noise_wedge_round1_frozen():
    """Exact means: the round-1 winner and exclusions are computable by hand.

    Arms sit at (2k-1)/32; the two extreme arms (values 15/32) exceed the
    winner (1/32 at x=15/32) by more than 12/32 and lose their 1/32
    neighborhoods, while 13/32 at the next arms in is not strictly more.
    """
    state = rr.run_round(rr.RRState(), _wedge_bandit(), rr.RRConfig(0.5, 0.1),
                         SeededRng(0))
    assert len(state.trace) == 1
    best = state.trace[0].best
    assert best.location == 15.0 / 32.0
    assert best.value == pytest.approx(1.0 / 32.0)
    rec = state.trace[0]
    assert rec.n_active == 16
    assert rec.best.pulls == rr.samples_per_arm(1, 0.1, 16)
    # the round's excluded set is the unit interval minus what survives
    excluded = IntervalSet([(0.0, 1.0 / 16.0), (15.0 / 16.0, 1.0)])
    assert state.surviving.spans == IntervalSet.unit().subtract(excluded).spans
    assert state.surviving.spans == ((1.0 / 16.0, 15.0 / 16.0),)


def test_round_pulls_follow_the_bandit_noise_scale():
    cfg = rr.RRConfig(0.5, 0.1)
    for sigma in (0.5, 6.0):
        state = rr.run_round(rr.RRState(), _wedge_bandit(sigma), cfg,
                             SeededRng(0))
        assert state.trace[0].best.pulls == rr.samples_per_arm(
            1, 0.1, 16, sigma)


def test_constant_objective_excludes_nothing():
    bandit = GaussianBandit(lambda x: np.full_like(x, 0.7), sigma=0.0)
    state = rr.RRState()
    for _ in range(3):
        state = rr.run_round(state, bandit, rr.RRConfig(2.0 ** -3, 0.1),
                             SeededRng(0))
        # nothing excluded: every round leaves the unit interval whole
        assert state.surviving.spans == IntervalSet.unit().spans


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
    assert len(state.trace) == 0 and state.total_samples == 0
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
    return SliceBandit(PqcBandit(2), (0.3, 0.6, 0.1, 0.8),
                       (1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("bandit", [_wedge_bandit(1.0), _pqc_line()],
                         ids=["gaussian", "pqc"])
def test_round_draws_its_arms_in_order_from_one_stream(bandit):
    """rr.run's rounds draw from the run's one stream: each round's values
    are sample_mean at its surviving arms, in grid order, on one numpy
    Generator that drew every earlier round's arms first."""
    _, state = rr.run(bandit, rr.RRConfig(2.0 ** -3, 0.1),
                      SeededRng(23, key=(4,)))
    assert [rec.round for rec in state.trace] == [1, 2, 3]
    stream = np.random.default_rng(np.random.SeedSequence(23, spawn_key=(4,)))
    for rec in state.trace:
        expect = [bandit.sample_mean(x, rec.best.pulls, stream)
                  for x in rec.locations.tolist()]
        assert rec.values.tobytes() == np.array(expect).tobytes()


# ---------------------------------------------------------- recommend

def test_recommend_prefers_earliest_round_on_ties():
    a1 = rr.ArmEstimate(1, 0.2, 0.5, 10)
    a2 = rr.ArmEstimate(2, 0.8, 0.5, 40)
    trace = (rr.RoundRecord(1, 1, np.array([0.2]), np.array([0.5]), a1, 10),
             rr.RoundRecord(2, 1, np.array([0.8]), np.array([0.5]), a2, 50))
    assert rr.recommend(rr.RRState(trace=trace)) is a1
    assert rr.recommend(rr.RRState()) is None


def test_full_run_zero_noise_wedge():
    cfg = rr.RRConfig(2.0 ** -5, 0.1)
    x_hat, state = rr.run(_wedge_bandit(), cfg, SeededRng(0))
    assert len(state.trace) == 5
    assert x_hat == 255.0 / 512.0  # nearest round-5 arm to the optimum
    assert abs(x_hat - 0.5) <= 2.0 ** -5
    # round by round under exact means: the surviving measure shrinks
    # monotonically, and the optimum is never excluded
    step = rr.RRState()
    measures = [step.surviving.measure()]
    for _ in range(5):
        step = rr.run_round(step, _wedge_bandit(), cfg, SeededRng(0))
        measures.append(step.surviving.measure())
        assert active_mask(step.surviving, np.array([0.5]))[0]
    assert all(m1 >= m2 for m1, m2 in zip(measures, measures[1:]))
    assert step.surviving.spans == state.surviving.spans


def test_run_with_tiny_budget_returns_none():
    x_hat, state = rr.run(_wedge_bandit(1.0), rr.RRConfig(0.5, 0.1),
                          SeededRng(0), budget=10)
    assert x_hat is None
    assert state.budget_exhausted


def test_run_stops_midway_on_budget():
    cost1 = 16 * rr.samples_per_arm(1, 0.1, 16)
    x_hat, state = rr.run(_wedge_bandit(1.0), rr.RRConfig(2.0 ** -4, 0.1),
                          SeededRng(3), budget=cost1)
    assert len(state.trace) == 1
    assert state.budget_exhausted
    assert x_hat == state.trace[0].best.location


def test_config_validation():
    with pytest.raises(ValueError):
        rr.RRConfig(0.3, 0.1)
    with pytest.raises(ValueError):
        rr.RRConfig(0.5, 0.0)
    with pytest.raises(ValueError):
        rr.RRConfig(0.5, 0.1, lipschitz=0.0)
    assert rr.RRConfig(2.0 ** -4, 0.1).depth == 4


def test_grid_size_counts_the_grid():
    for lips in (0.5, 1.0, 2.2, 3.0):
        for t in range(1, 6):
            assert rr.grid_size(t, lips) == _laid(UNIT, t, lips).size


def test_config_refuses_a_round1_grid_past_2_to_the_52():
    """Round 1 lays 16 * ceil(L) arms, and past 2^52 of them the grid's
    numerators 2k - 1 are not exact: L = 2^48 is the largest accepted.
    Deeper rounds are left to the budget, so a deep epsilon is accepted."""
    assert rr.grid_size(1, 2.0 ** 48) == 2 ** 52
    rr.RRConfig(0.5, 0.1, lipschitz=2.0 ** 48)
    for lips in (math.nextafter(2.0 ** 48, math.inf), 1e300):
        with pytest.raises(ValueError, match="lipschitz"):
            rr.RRConfig(0.5, 0.1, lipschitz=lips)
    assert rr.RRConfig(2.0 ** -60, 0.1, lipschitz=2.0 ** 48).depth == 60

