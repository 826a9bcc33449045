"""Complexity-bound calculators against hand-evaluated rational oracles.

The frozen constants below were produced by an independent exact-fraction
evaluation of the level-set measures and bound formulas; the library is
wrong if it disagrees, not the constants.
"""

import math

import numpy as np
import pytest

from rrbandit import bounds
from rrbandit.rng import SeededRng

from instances import random_unimodal


UNIT_WEDGE = bounds.wedge()  # |x - 1/2|


def closed_form_weight(depth):
    # geometric-sum reference for the two-sided unit wedge family
    return 2.0 * 8.0 ** -depth * (4.0 ** (depth + 1) - 4) / 3.0


# -------------------------------------------------------- construction

def test_wedge_shapes():
    assert UNIT_WEDGE.xs == (0.0, 0.5, 1.0)
    assert UNIT_WEDGE.vs == (0.5, 0.0, 0.5)
    assert UNIT_WEDGE.lipschitz == 1.0
    one_sided = bounds.wedge(x_star=0.0)
    assert one_sided.xs == (0.0, 1.0)
    assert one_sided.vs == (0.0, 1.0)
    shifted = bounds.wedge(0.25, 2.0)
    assert shifted.xs[int(np.argmin(shifted.vs))] == 0.25


def test_instance_validation():
    B = bounds.BoundInstance
    with pytest.raises(ValueError):
        B((0.0, 1.0), (0.1, 0.5))  # no zero
    with pytest.raises(ValueError):
        B((0.0, 0.5, 1.0), (0.0, 0.5, 0.0))  # two zeros
    with pytest.raises(ValueError):
        B((0.0, 0.5, 0.4, 1.0), (1.0, 0.0, 0.5, 1.0))  # not increasing
    with pytest.raises(ValueError):
        B((0.1, 1.0), (0.0, 1.0))  # does not start at 0
    with pytest.raises(ValueError):
        B((0.0, 1.0), (0.0, -1.0))  # negative value
    with pytest.raises(ValueError):
        B((0.0, 1.0), (0.0, 1.0), lipschitz=0.5)  # slope above declared L
    for bad in (0.0, -1.0, math.nan, math.inf):  # L must be in (0, inf)
        with pytest.raises(ValueError, match="lipschitz"):
            B((0.0, 1.0), (0.0, 1.0), lipschitz=bad)
    inst = B((0.0, 1.0), (0.0, 1.0), lipschitz=3.0)
    assert inst.lipschitz == 3.0  # looser declared constant is kept


def test_value_interpolates():
    inst = bounds.BoundInstance((0.0, 0.4, 1.0), (0.8, 0.0, 0.6))
    assert np.interp(0.2, inst.xs, inst.vs) == pytest.approx(0.4)
    assert np.interp(0.7, inst.xs, inst.vs) == pytest.approx(0.3)
    assert inst.xs[int(np.argmin(inst.vs))] == 0.4


# ------------------------------------------------------ level measures

def test_level_measures_unit_wedge():
    # B_1 is empty (values never exceed 1/2); each deeper band has
    # measure 2 * 2^-t, one interval on each side of the minimum
    assert bounds.level_set_measure(UNIT_WEDGE, 1) == 0.0
    for t in (2, 3, 4):
        assert bounds.level_set_measure(UNIT_WEDGE, t) == pytest.approx(
            2.0 ** (1 - t), rel=1e-12)


def test_level_measures_sum_to_full_support():
    total = sum(bounds.level_set_measure(UNIT_WEDGE, t)
                for t in range(1, 60))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_weight_sum_closed_forms():
    for depth in (3, 5, 7):
        eps = 2.0 ** -depth
        two_sided = bounds.level_weight_sum(UNIT_WEDGE, eps)
        assert two_sided == pytest.approx(
            closed_form_weight(depth) - 8.0 ** (1 - depth), rel=1e-12)
        one_sided = bounds.level_weight_sum(bounds.wedge(x_star=0.0), eps)
        assert one_sided == pytest.approx(
            closed_form_weight(depth) / 2.0, rel=1e-12)


def test_band_measure_matches_band_spans():
    gen = SeededRng(31)
    for i in range(50):
        inst = random_unimodal(gen.child(i))
        for t in range(1, 5):
            lo, hi = 2.0 ** -t, 2.0 ** -(t - 1)
            m = bounds.band_measure(inst, lo, hi)
            assert bounds.band_spans(inst, lo, hi).measure() == pytest.approx(
                m, abs=1e-12)


def test_band_measure_brute_force():
    """Dense midpoint grid agreement on a few random instances."""
    n = 1_000_000
    xs = (np.arange(n) + 0.5) / n
    gen = SeededRng(17)
    for i in range(5):
        inst = random_unimodal(gen.child(i))
        vals = np.interp(xs, inst.xs, inst.vs)
        for t in range(1, 5):
            lo, hi = 2.0 ** -t, 2.0 ** -(t - 1)
            brute = np.count_nonzero((vals > lo) & (vals <= hi)) / n
            assert bounds.band_measure(inst, lo, hi) == pytest.approx(
                brute, abs=1e-5)


# ------------------------------------------------------------- bounds

# frozen exact-fraction oracle results: (xs, vs, declared L, eps, delta,
# level measures, lower, upper)
HAND_CASES = [
    ((0.0, 0.25, 1.0), (0.5, 0.0, 0.75), None, 2.0 ** -4, 0.1,
     (0.25, 0.375, 0.1875, 0.09375),
     29.12770142637468, 209001385.62715563),
    ((0.0, 0.5, 1.0), (1.0, 0.0, 1.0), None, 2.0 ** -5, 0.05,
     (0.5, 0.25, 0.125, 0.0625, 0.03125),
     102.1544705281911, 714747335.2214212),
    ((0.0, 0.2, 0.4, 1.0), (0.3, 0.1, 0.0, 0.9), 1.5, 2.0 ** -3, 0.2,
     (4.0 / 15.0, 0.05 + 1.0 / 6.0, 0.125 + 1.0 / 12.0),
     3.701707198598431, 27791739.318693873),
]


@pytest.mark.parametrize("case", HAND_CASES, ids=("A", "B", "C"))
def test_bound_formulas_match_hand_evaluation(case):
    xs, vs, lips, eps, delta, measures, lower, upper = case
    inst = bounds.BoundInstance(xs, vs, lips)
    for t, m in enumerate(measures, start=1):
        assert bounds.level_set_measure(inst, t) == pytest.approx(m, rel=1e-9)
    assert bounds.lower_bound(inst, eps, delta) == pytest.approx(lower, rel=1e-9)
    assert bounds.upper_bound(inst, eps, delta) == pytest.approx(upper, rel=1e-9)
    assert bounds.trivial_bound(eps) == eps * eps


def test_lower_bound_small_eps_asymptote():
    # two-sided unit wedge at fine resolution: ln(1/delta) / (30 eps^2)
    eps = 2.0 ** -8
    target = math.log(10.0) / (30.0 * eps * eps)
    assert bounds.lower_bound(UNIT_WEDGE, eps, 0.1) == pytest.approx(
        target, rel=0.02)


def test_delta_one_gives_zero_lower_bound():
    assert bounds.lower_bound(UNIT_WEDGE, 2.0 ** -4, 1.0) == 0.0
    with pytest.raises(ValueError):
        bounds.lower_bound(UNIT_WEDGE, 2.0 ** -4, 1.5)
    with pytest.raises(ValueError):
        bounds.upper_bound(UNIT_WEDGE, 2.0 ** -4, 0.0)


def test_lower_never_exceeds_upper_randomized():
    gen = SeededRng(5)
    for i in range(1000):
        inst = random_unimodal(gen.child(i))
        lo = bounds.lower_bound(inst, 2.0 ** -5, 0.1)
        hi = bounds.upper_bound(inst, 2.0 ** -5, 0.1)
        assert lo <= hi


def test_trivial_bound_value():
    assert bounds.trivial_bound(2.0 ** -5) == 2.0 ** -10
    with pytest.raises(ValueError):
        bounds.trivial_bound(0.3)


# ------------------------------------------------------ covering / fit

def test_covering_number_wedge():
    # each side of the minimum contributes one interval of length r,
    # hence ceil(8r / r) = 8 covering sets per side
    for r in (0.25, 0.125, 0.0625):
        assert bounds.covering_number(UNIT_WEDGE, r) == 16
        assert bounds.covering_number(bounds.wedge(x_star=0.0), r) == 8


def test_zooming_fit_wedge_is_flat():
    beta, c = bounds.zooming_fit(UNIT_WEDGE, (0.25, 0.125, 0.0625, 0.03125))
    assert abs(beta) < 1e-9
    assert c == pytest.approx(16.0, rel=1e-9)


def test_zooming_fit_needs_three_usable_radii():
    with pytest.raises(ValueError):
        bounds.zooming_fit(UNIT_WEDGE, (0.25, 0.125))
    for repeated in ((0.25, 0.25, 0.25), (0.25, 0.125, 0.25, 0.125)):
        with pytest.raises(ValueError, match="distinct"):
            # a repeated radius adds no point to the log-log fit
            bounds.zooming_fit(UNIT_WEDGE, repeated)
    shallow = bounds.BoundInstance((0.0, 0.5, 1.0), (0.3, 0.0, 0.3))
    with pytest.raises(ValueError):
        # every band sits above the instance's maximum value
        bounds.zooming_fit(shallow, (0.4, 0.45, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        # three distinct radii, but only two of them usable
        bounds.zooming_fit(shallow, (0.45, 0.1, 0.1, 0.05))


# ------------------------------------------------- random generation

def test_random_unimodal_properties():
    gen = SeededRng(99)
    for i in range(200):
        inst = random_unimodal(gen.child(i))
        x_star = inst.xs[int(np.argmin(inst.vs))]
        assert 0.0625 <= x_star <= 1.0 - 0.0625
        assert np.interp(x_star, inst.xs, inst.vs) == 0.0
        assert inst.lipschitz <= 4.0 + 1e-12
        vs = np.asarray(inst.vs)
        k = int(np.argmin(vs))
        assert np.all(np.diff(vs[:k + 1]) < 0)
        assert np.all(np.diff(vs[k:]) > 0)


# --------------------------------------------------------- file format

def test_read_instance_round_trip(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("# comment line\n0.0 0.5\n0.25 0.0  # inline\n1.0 0.75\n")
    inst = bounds.read_instance(str(path))
    assert inst.xs == (0.0, 0.25, 1.0)
    assert inst.vs == (0.5, 0.0, 0.75)


def test_read_instance_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.5\n0.25 0.0 extra\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        bounds.read_instance(str(path))
