"""IntervalSet arithmetic: normalization, measure, and set identities."""

import numpy as np
import pytest

from rrbandit.intervals import EPSILON, IntervalSet

from instances import active_mask


def spans(iset):
    return [(round(a, 12), round(b, 12)) for a, b in iset.spans]


def test_constructor_sorts_and_merges():
    s = IntervalSet([(0.5, 0.7), (0.0, 0.2), (0.2, 0.3)])
    assert spans(s) == [(0.0, 0.3), (0.5, 0.7)]


def test_touching_spans_fuse():
    s = IntervalSet([(0.0, 0.5), (0.5 + EPSILON / 2, 1.0)])
    assert len(s.spans) == 1
    assert s.measure() == pytest.approx(1.0)


def test_reversed_endpoints_rejected():
    with pytest.raises(ValueError):
        IntervalSet([(0.4, 0.1)])


def test_degenerate_point_has_zero_measure():
    s = IntervalSet([(0.3, 0.3)])
    assert s.spans
    assert s.measure() == 0.0
    assert active_mask(s, np.array([0.3]))[0]


def test_unit_and_empty():
    assert IntervalSet.unit().measure() == 1.0
    assert not IntervalSet().spans
    assert not active_mask(IntervalSet(), np.array([0.5]))[0]


def test_subtract_interior_hole():
    s = IntervalSet.unit().subtract(IntervalSet([(0.2, 0.3)]))
    assert spans(s) == [(0.0, 0.2), (0.3, 1.0)]


def test_subtract_edges_and_cover():
    u = IntervalSet.unit()
    assert spans(u.subtract(IntervalSet([(0.0, 0.25)]))) == [(0.25, 1.0)]
    assert spans(u.subtract(IntervalSet([(0.75, 1.0)]))) == [(0.0, 0.75)]
    assert not u.subtract(IntervalSet([(-1.0, 2.0)])).spans


def test_subtract_multiple_holes():
    holes = IntervalSet([(0.1, 0.2), (0.4, 0.5), (0.9, 1.0)])
    s = IntervalSet.unit().subtract(holes)
    assert spans(s) == [(0.0, 0.1), (0.2, 0.4), (0.5, 0.9)]
    assert s.measure() == pytest.approx(0.7)


def test_subtract_drops_sub_tolerance_slivers():
    s = IntervalSet([(0.0, 0.5)]).subtract(
        IntervalSet([(EPSILON / 4, 0.5)]))
    assert not s.spans


def test_contains_includes_endpoints():
    s = IntervalSet([(0.25, 0.75)])
    xs = np.array([0.25 - 1e-6, 0.25, 0.75, 0.75 + 1e-6])
    assert active_mask(s, xs).tolist() == [False, True, True, False]


def test_intersect_and_union():
    """A n B is A - (A - B), and A u B is the merge of both span lists."""
    a = IntervalSet([(0.0, 0.5)])
    b = IntervalSet([(0.25, 1.0)])
    assert spans(a.subtract(a.subtract(b))) == [(0.25, 0.5)]
    assert spans(IntervalSet(a.spans + b.spans)) == [(0.0, 1.0)]


def _random_set(gen, max_spans=4):
    n = int(gen.integers(0, max_spans + 1))
    pts = np.sort(gen.random(2 * n))
    return IntervalSet([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


def test_measure_identities_randomized():
    """Inclusion-exclusion and difference decomposition on random sets.

    m(A u B) = m(A) + m(B) - m(A n B) and m(A) = m(A - B) + m(A n B),
    up to the merge tolerance times the number of spans involved, with
    A n B = A - (A - B) and A u B the merge of both span lists.
    """
    gen = np.random.default_rng(2024)
    tol = 1e-9
    for _ in range(300):
        a = _random_set(gen)
        b = _random_set(gen)
        union = IntervalSet(a.spans + b.spans)
        both = a.subtract(a.subtract(b))
        assert union.measure() == pytest.approx(
            a.measure() + b.measure() - both.measure(), abs=tol)
        diff = a.subtract(b)
        assert diff.measure() == pytest.approx(
            a.measure() - both.measure(), abs=tol)
        assert diff.subtract(diff.subtract(b)).measure() <= tol
        # subtraction never grows the set
        xs = np.sort(gen.random(5))
        assert not np.any(active_mask(diff, xs) & ~active_mask(a, xs))


def test_subtract_then_restore_point_membership():
    gen = np.random.default_rng(7)
    for _ in range(100):
        a = _random_set(gen)
        b = _random_set(gen)
        inter = a.subtract(a.subtract(b))
        xs = np.sort(gen.random(4))
        in_both = active_mask(a, xs) & active_mask(b, xs)
        assert np.array_equal(active_mask(inter, xs), in_both)
