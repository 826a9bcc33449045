"""Seeded random streams with deterministic, order-independent child spawning.

Every stream is numpy's PCG64 seeded from np.random.SeedSequence(seed,
spawn_key=key), so its bits depend only on the root seed and its integer
key path; child(*key) extends the path by key. A SeededRng builds its
generator on its first draw: a stream that only spawns children never
seeds one. A copy (copy.copy, copy.deepcopy or pickle) has a generator of
its own and draws what the original would draw next.
"""

import copy

import numpy as np


class SeededRng:
    """A numpy Generator addressed by (seed, key path).

    child(*key) derives an independent stream whose output depends only on
    the root seed and the accumulated integer key, never on draw order, so
    per-run and per-iteration streams can be handed out in any schedule
    (including from worker processes) without losing reproducibility.
    Generator methods (standard_normal, random, integers, ...) are
    available directly.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed, key=()):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed
        self.key = tuple(int(k) for k in key)
        if any(k < 0 for k in self.key):
            raise ValueError("key entries must be non-negative")
        self._gen = None

    def child(self, *key):
        return SeededRng(self.seed, self.key + key)

    def __copy__(self):
        # a copy draws what the original draws next, from a generator of
        # its own, so drawing from either leaves the other where it was
        return copy.deepcopy(self)

    def __getattr__(self, name):
        # copy and pickle build the object without __init__ and then look
        # up __setstate__: a private or slot name is never the generator's,
        # and reading the unset _gen slot here would recurse
        if name.startswith("_") or name in SeededRng.__slots__:
            raise AttributeError(name)
        gen = self._gen
        if gen is None:
            gen = self._gen = np.random.default_rng(
                np.random.SeedSequence(self.seed, spawn_key=self.key))
        return getattr(gen, name)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self.key})"
