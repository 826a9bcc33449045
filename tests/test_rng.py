"""Seeded stream derivation: order independence and key addressing."""

import copy
import pickle

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


CLONES = [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy]
CLONE_IDS = ["pickle", "deepcopy", "copy"]


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_copied_stream_draws_the_bits_of_the_original(clone):
    original = SeededRng(3, (1,))
    copied = clone(original)
    assert repr(copied) == repr(original)
    assert (copied.child(2).random(4).tobytes()
            == original.child(2).random(4).tobytes())
    assert copied.random(6).tobytes() == original.random(6).tobytes()


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_copy_of_a_drawn_stream_continues_where_it_stopped(clone):
    original = SeededRng(3, (1,))
    original.random(5)
    copied = clone(original)
    # the copy has a generator of its own: the original's draws leave it
    # where it was
    expect = original.standard_normal(6).tobytes()
    assert copied.standard_normal(6).tobytes() == expect


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
CHILD_CASES = [
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


@pytest.mark.parametrize("seed, key, prefix", CHILD_CASES)
def test_child_draws_numpys_seed_sequence_bits(seed, key, prefix):
    """A child stream is numpy's default generator seeded through the
    public SeedSequence on the root seed and the whole key path, so a
    seed's bits rest on numpy's API and not on this module."""
    parent = SeededRng(seed, key=key)
    for k in (0, 1, 2 ** 31, 2 ** 32 - 1):
        gen = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=key + prefix + (k,)))
        assert np.array_equal(_draws(parent.child(*prefix, k)), _draws(gen))
