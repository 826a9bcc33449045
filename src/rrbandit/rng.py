"""Seeded random streams with deterministic, order-independent child spawning.

Every stream is numpy's PCG64 seeded from np.random.SeedSequence(seed,
spawn_key=key), so its bits depend only on the root seed and its integer
key path. A SeededRng builds its generator on its first draw: a stream
that only spawns children never seeds one.

SeededRng.children(prefix, keys) derives a whole set of sibling streams
(one elimination round's arms) in one pass. It runs SeedSequence's hash
(O'Neill's seed_seq construction, as numpy documents it) over all keys as a
few uint64 numpy operations, applies PCG64's seeding step with Python
integers, and serves the streams from one shared generator. Stream j
draws exactly the bits child(*prefix, keys[j]) would; the tests compare
the two on thousands of keys.
"""

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class SeededRng:
    """A numpy Generator addressed by (seed, key path).

    child(*key) derives an independent stream whose output depends only on
    the root seed and the accumulated integer key, never on draw order, so
    per-arm and per-run streams can be handed out in any schedule (including
    from worker processes) without losing reproducibility. Generator methods
    (standard_normal, random, integers, ...) are available directly.
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

    def children(self, prefix, keys):
        """Streams child(*prefix, k) for every k in keys, derived in one pass.

        keys are integers in [0, 2^32), so each is one SeedSequence word.
        The streams share one generator, which a stream takes over on its
        first draw. Draw order rule: draw each stream's values in one
        contiguous run. Once another stream of the set has drawn, a stream
        that drew before is spent, and drawing from it again raises
        RuntimeError instead of repeating or skipping values. The streams
        may be drawn in any order, and need not all be drawn.
        """
        path = self.key + tuple(int(k) for k in prefix)
        if any(k < 0 for k in path):
            raise ValueError("key entries must be non-negative")
        keys = np.asarray(keys)
        if keys.size == 0:
            return []
        if (keys.ndim != 1 or keys.dtype.kind not in "iu"
                or keys.min() < 0 or keys.max() > _M32):
            raise ValueError(
                "keys must be a 1-d sequence of integers in [0, 2**32)")

        # SeedSequence pads the seed's words to the pool size whenever the
        # spawn key is non-empty; only the last word differs between keys
        words = _words(self.seed)
        words += [0] * (_POOL_SIZE - len(words))
        for k in path:
            words += _words(k)
        pool, hash_const = _mix_entropy(words)
        xor_a, mult_a = _hash_constants(hash_const, _MULT_A, _POOL_SIZE)
        xor_b, mult_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
        mixed = np.array([_MIX_MULT_L * p & _M32 for p in pool],
                         dtype=np.uint64)

        # the last word's hashmix into each pool word, then mix
        h = (keys.astype(np.uint64) ^ xor_a[:, None]) * mult_a[:, None] & _M32
        h ^= h >> _XSHIFT
        h = (mixed[:, None] - _MIX_MULT_R * h) & _M32
        h ^= h >> _XSHIFT
        # generate_state(4, uint64): eight 32-bit words, cycling the pool
        w = (h[[0, 1, 2, 3, 0, 1, 2, 3]] ^ xor_b[:, None]) * mult_b[:, None]
        w &= _M32
        w ^= w >> _XSHIFT
        seeds = (w[0::2] | w[1::2] << 32).T.tolist()

        shared = _SharedGenerator()
        return [_Stream(shared, *_pcg64_seed(*s)) for s in seeds]

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


def _words(n):
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hashmix(value, hash_const):
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _M32
    value = value * hash_const & _M32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ result >> _XSHIFT


def _mix_entropy(words):
    """SeedSequence's pool after mixing words (at least _POOL_SIZE of them).

    Returns the pool and the hash constant the next word would use.
    """
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], value)
    return pool, hash_const


def _hash_constants(hash_const, mult, n):
    """XOR and multiply constants of n successive hash steps, as uint64."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(hash_const)
        hash_const = hash_const * mult & _M32
        mults.append(hash_const)
    return np.array(xors, dtype=np.uint64), np.array(mults, dtype=np.uint64)


def _pcg64_seed(s_hi, s_lo, seq_hi, seq_lo):
    """PCG64's (state, inc) after seeding from four generate_state words."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return state, inc


class _SharedGenerator:
    """The generator a children() set draws from, and the stream holding it."""

    __slots__ = ("gen", "owner")

    def __init__(self):
        # its state is overwritten before any stream draws
        self.gen = np.random.Generator(np.random.PCG64(0))
        self.owner = None


class _Stream:
    """One stream of a children() set; see SeededRng.children.

    A copy (copy.copy, copy.deepcopy or pickle) carries its own copy of the
    set's shared generator: it draws what the original would draw next,
    and drawing from either leaves the other as it was. A copy of a spent
    stream is spent.
    """

    __slots__ = ("_shared", "_state", "_inc", "_started")

    def __init__(self, shared, state, inc):
        self._shared = shared
        self._state = state
        self._inc = inc
        self._started = False

    def __reduce__(self):
        shared = self._shared
        held = shared.gen.bit_generator.state if shared.owner is self else None
        return _copied_stream, (self._state, self._inc, self._started, held)

    def __getattr__(self, name):
        # copy and pickle look up special names on the instance: a private
        # name is never the generator's, and must not take it over
        if name.startswith("_"):
            raise AttributeError(name)
        shared = self._shared
        if shared.owner is not self:
            if self._started:
                raise RuntimeError(
                    "stream drawn from again after another stream of its "
                    "children() set took the shared generator")
            shared.gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": 0, "uinteger": 0}
            shared.owner = self
            self._started = True
        return getattr(shared.gen, name)


def _copied_stream(state, inc, started, held):
    """A stream with a generator of its own; held is the generator state of
    a stream that holds its set's generator, else None."""
    stream = _Stream(_SharedGenerator(), state, inc)
    stream._started = started
    if held is not None:
        stream._shared.gen.bit_generator.state = held
        stream._shared.owner = stream
    return stream
