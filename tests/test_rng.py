"""Seeded stream derivation: order independence and key addressing."""

import numpy as np
import pytest

from rrbandit.rng import SeededRng


def test_child_streams_do_not_depend_on_draw_order():
    r1 = SeededRng(0)
    a = r1.child(5).random(4)
    r2 = SeededRng(0)
    r2.child(3).random(100)  # unrelated draws in between
    r2.random(17)
    b = r2.child(5).random(4)
    assert np.array_equal(a, b)


def test_same_key_same_stream():
    a = SeededRng(42, key=(1, 2)).standard_normal(8)
    b = SeededRng(42).child(1).child(2).standard_normal(8)
    c = SeededRng(42).child(1, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert np.array_equal(b, c)


def test_different_children_differ():
    root = SeededRng(9)
    a = root.child(0).random(16)
    b = root.child(1).random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(1).random(16)
    b = SeededRng(2).random(16)
    assert not np.array_equal(a, b)


def test_key_depth_matters():
    # (1,) and (1, 0) address distinct streams
    a = SeededRng(5, key=(1,)).random(8)
    b = SeededRng(5, key=(1, 0)).random(8)
    assert not np.array_equal(a, b)


def test_generator_methods_pass_through():
    rng = SeededRng(3)
    assert rng.integers(0, 10) in range(10)
    assert rng.multinomial(5, [0.5, 0.5]).sum() == 5


def test_negative_seed_or_key_rejected():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(0, key=(-2,))


def test_repr_names_seed_and_key():
    assert "seed=7" in repr(SeededRng(7, key=(4,)))


def test_child_of_undrawn_parent_matches_child_of_drawn_parent():
    parent = SeededRng(11, key=(3,))
    a = parent.child(4, 2).standard_normal(6)
    assert parent._gen is None  # spawning seeded no generator
    drawn = SeededRng(11, key=(3,))
    drawn.random(9)
    b = drawn.child(4, 2).standard_normal(6)
    assert np.array_equal(a, b)


def _draws(stream):
    """One contiguous run of the draw kinds the bandits make."""
    p = np.array([0.1, 0.2, 0.3, 0.4])
    return np.concatenate([stream.standard_normal(3),
                           stream.multinomial(1000, p).astype(np.float64),
                           stream.random(2)])


# (seed, key, prefix): seeds and prefix entries below, at and above 2^32
# and 2^64 take one, two and three or more SeedSequence words
CHILDREN_CASES = [
    (0, (), ()),
    (0, (), (1,)),
    (7, (2,), (5,)),
    (2 ** 32 - 1, (), (3,)),
    (2 ** 32, (1,), (2 ** 32,)),
    (2 ** 64 - 1, (), (2 ** 32 - 1, 4)),
    (2 ** 64, (2 ** 40,), (6,)),
    (2 ** 64 + 12345, (0, 1), (2 ** 64 + 9,)),
    (2 ** 130 + 3, (), (2,)),
]


@pytest.mark.parametrize("seed, key, prefix", CHILDREN_CASES)
def test_children_draw_the_bits_of_child(seed, key, prefix):
    keys = np.concatenate([
        [0, 1, 2, 2 ** 32 - 1, 2 ** 31],
        np.random.default_rng(seed % 1000).integers(0, 2 ** 32, size=395),
    ]).astype(np.int64)
    parent = SeededRng(seed, key=key)
    streams = parent.children(prefix, keys)
    assert len(streams) == keys.size
    for stream, k in zip(streams, keys.tolist()):
        assert np.array_equal(_draws(stream),
                              _draws(parent.child(*prefix, k)))


def test_children_accept_any_integer_key_sequence():
    parent = SeededRng(4)
    expect = [parent.child(9, k).random() for k in (0, 3, 2 ** 32 - 1)]
    for keys in ([0, 3, 2 ** 32 - 1],
                 np.array([0, 3, 2 ** 32 - 1], dtype=np.uint32),
                 np.array([0, 3, 2 ** 32 - 1], dtype=np.uint64)):
        assert [s.random() for s in parent.children((9,), keys)] == expect
    assert parent.children((9,), []) == []


def test_children_may_be_drawn_in_any_order_but_each_in_one_run():
    parent = SeededRng(2)
    a, b, c = parent.children((1,), [0, 1, 2])
    assert np.array_equal(c.random(3), parent.child(1, 2).random(3))
    assert np.array_equal(a.random(2), parent.child(1, 0).random(2))
    # a stream keeps its place while no other stream draws
    assert a.random() == parent.child(1, 0).random(3)[2]
    b.standard_normal()
    with pytest.raises(RuntimeError):
        a.random()
    with pytest.raises(RuntimeError):
        c.random()


@pytest.mark.parametrize("keys", [[-1], [0, 2 ** 32], [2 ** 40], [2 ** 70],
                                  [0.5], [[1, 2]]])
def test_children_refuse_keys_outside_one_word(keys):
    with pytest.raises(ValueError):
        SeededRng(0).children((1,), keys)


def test_children_refuse_negative_prefix():
    with pytest.raises(ValueError):
        SeededRng(0).children((-1,), [0])
