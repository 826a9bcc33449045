"""Shot-level circuit objectives exposed through the bandit interface.

Both families map bandit parameters in [0,1] to angles by multiplying with
2*pi. Expected costs are computed from the exact statevector with
correctly-rounded summation, so states with all-equal outcome
probabilities produce exact rational expectations. Shot rewards are
bounded in [0,1], hence 1-sub-Gaussian.

A shot's reward depends only on its level: the cut of its bitstring
(QAOA) or its count of one bits (PQC). Each circuit states the reward of
basis state z as an integer numerator over one integer denominator, and
shots are drawn and scored over those levels, not over the 2^n outcomes
(see _ShotBandit.sample_means). Each circuit also runs as a fixed
sequence of steps, each reading its own parameters, so a call on many
points simulates the steps that come before the first one in which the
points differ only once.
"""

import math

import numpy as np

from ..bandits import Bandit
from .graphs import cut_values
# no circuit calls apply_hadamard or apply_cz; perfbench patches them here
from .statevector import (apply_cz, apply_hadamard, apply_phase,  # noqa: F401
                          apply_rotation, batch_size, probabilities,
                          y_product_state)

TWO_PI = 2.0 * math.pi


def _ones(values, n):
    """Number of one bits among the low n bits of each value."""
    ones = np.zeros(values.shape, dtype=np.int64)
    for b in range(n):
        ones += (values >> b) & 1
    return ones


def cz_chain_signs(n):
    """Diagonal of CZ on every neighbor pair (q, q + 1) of n qubits:
    (-1)^(number of neighbor pairs whose bits are both 1), as float64."""
    idx = np.arange(1 << n, dtype=np.int64)
    return 1.0 - 2.0 * (_ones(idx & (idx >> 1), n - 1) & 1)


def exact_sum(values):
    """math.fsum of a 1-d float64 array of 1 to 2^26 - 1 finite,
    non-negative values: their exact sum, correctly rounded.

    Each value is m * 2^(e - 53) with an integer m below 2^53, split into
    a high part below 2^27 and a low part below 2^26. bincount adds each
    part per exponent e as float64 sums of integers below 2^53, which are
    exact in any order. The per-exponent sums are then combined as Python
    ints and divided once by a power of two, which CPython rounds
    correctly.
    """
    mantissa, exponent = np.frexp(values)
    whole = mantissa * 2.0 ** 53
    high = np.floor(whole * 2.0 ** -26)
    low = whole - high * 2.0 ** 26
    lowest = int(exponent.min())
    exponent -= lowest
    total = 0
    for h, l in zip(reversed(np.bincount(exponent, weights=high).tolist()),
                    reversed(np.bincount(exponent, weights=low).tolist())):
        total = 2 * total + (int(h) << 26) + int(l)
    shift = lowest - 53
    return total / (1 << -shift) if shift < 0 else float(total << shift)


def expected_reward(probs, rewards):
    """Exactly-rounded expectation sum(p_z r_z) / sum(p_z)."""
    return exact_sum(probs * rewards) / exact_sum(probs)


def uniform_amplitude(n):
    """Every amplitude of H on each of n qubits of |0...0>, with the bits
    the Hadamard kernel gives: h * (h * (... * 1)) for h = 1/sqrt(2)."""
    h = complex(1.0 / math.sqrt(2.0))
    amplitude = 1.0 + 0j
    for _ in range(n):
        amplitude = h * amplitude
    return amplitude


def _copies(prefix, batch):
    """prefix = (start, psi) as (start, one copy of psi per point of batch)."""
    start, psi = prefix
    return start, np.broadcast_to(psi, batch + psi.shape).copy()


class _ShotBandit(Bandit):
    """Shared shot plumbing for a circuit run as a fixed sequence of steps.

    A subclass provides:
    - state(params, stop=None, prefix=None): the state after the first
      stop steps (all of them by default) at one point of shape
      (dimension,), or the (k, length) states of a batch of shape
      (k, dimension). prefix = (start, psi) runs only steps start.. on a
      copy of psi per point, where psi is the one state that the first
      start steps leave at every point. A state holds the amplitudes of
      basis states 0..length - 1: all 2^n of them, or a half state (see
      QaoaBandit);
    - outcome_probabilities(probs), if state() returns half states: the
      probabilities of all 2^n outcomes, from probabilities(states);
    - batch: how many points state() simulates at once, from batch_size
      of the state's length and dtype;
    - steps, and step_of: the step that reads each parameter;
    - numerators and denominator: a shot on basis state z scores
      numerators[z] / denominator, with integer numerators in
      0..denominator; rewards holds the same scores as float64, from
      which mean() takes the exact expectation. All three run over the
      2^n basis states.

    A bandit holds what it last simulated, so a point is not simulated
    again while it is held:
    - the probabilities (of the states state() returns) of the
      lowest-scoring point of the last sample_means call (the first
      minimum, as np.argmin picks it: the arm rr.run_round reports), and
      of the last point that mean() was asked for, with its mean; each
      is keyed by its point's float64 bytes (which tell 0.0 from -0.0).
      mean() and a sample_means call whose every point is held read them
      instead of calling state(), and mean() at its last point returns
      its last value. So the crossing check of a line minimum found in
      one round, a repeated check of an unchanged incumbent, and the
      start's first draw, which follows its crossing check, find their
      points held;
    - the step states of the last point whose shared prefix sample_means
      simulated, each keyed by the bytes of the parameters its step
      reads. A prefix continues from the deepest held step whose
      parameters, and every earlier step's, match; rr_powell's coordinate
      lines share their base point's early steps.
    Memory is at most two points' probabilities and steps - 1 states of
    one point. Held values are the bits the simulation gives, never
    written to, so every result is bitwise what simulating again would
    give.
    """

    rewards = None  # float64 array over basis states
    numerators = None  # int64 array over basis states
    denominator = 1
    batch = None  # points per simulated batch
    steps = 0
    step_of = None  # int64 array over parameters
    # what was last simulated; rebound by each simulation, never mutated
    _low_key, _low_probs = None, None  # sample_means' lowest-scoring point
    _mean_key, _mean_probs, _mean_value = None, None, None
    _step_states = ()  # ((step's parameter bytes, state after it), ...)

    def state(self, params, stop=None, prefix=None):
        raise NotImplementedError

    def outcome_probabilities(self, probs):
        """Probabilities of the 2^n outcomes, from probabilities(states)."""
        return probs

    def _params(self, params, shape):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != shape:
            raise ValueError(
                f"expected parameters of shape {shape}, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        return params

    def _held_rows(self, keys):
        """The held probabilities of every point, or None if one is not
        held."""
        held = {self._low_key: self._low_probs,
                self._mean_key: self._mean_probs}
        rows = [held.get(key) for key in keys]
        return None if any(row is None for row in rows) else rows

    def mean(self, params):
        """Exact expected reward at one point, over the basis states that
        state() holds. On a half state that is the full expectation bit
        for bit: every term, and so both correctly rounded sums, count
        twice in the full one, and the factor of 2 cancels exactly."""
        point = self._params(params, (self.dimension,))
        key = point.tobytes()
        if key == self._mean_key:
            return self._mean_value
        if key == self._low_key:
            probs = self._low_probs
        else:
            probs = probabilities(self.state(point))
        value = expected_reward(probs, self.rewards[:probs.size])
        self._mean_key, self._mean_probs, self._mean_value = key, probs, value
        return value

    # perfbench patches this name in the class's own dict
    sample_mean = Bandit.sample_mean

    def sample_means(self, points, n, rng):
        """Average reward of n shots at each point, all drawn from rng.

        Only the work in which the points differ is done per point:
        - Held points. When every point is held (class docstring), their
          probabilities are read, not simulated; when every point is the
          same, it is simulated once. The lowest-scoring point's
          probabilities are then held in place of the last call's.
        - Shared prefix. The steps before the first one whose parameters
          differ across the points (compared bit for bit) are simulated
          once, on one state (continuing from held step states). The
          points then run in batches of up to batch, each starting from
          copies of that state. Every amplitude sees the arithmetic it
          sees in state(point), so the states are bitwise those.
        - Level draws. A point's probabilities of the 2^n outcomes are
          summed onto the levels 0..denominator by numerator, in
          basis-state order (one weighted bincount per batch, over
          outcome_probabilities), and each row is normalised with
          math.fsum. That is the outcome distribution grouped by reward,
          so one multinomial of n over the levels has the law of n shots.
          A batch's histograms are one 2-d multinomial call, which draws
          row after row as per-point calls on the same stream would.
        - Integer scores. A point's mean is sum(count * numerator) over
          denominator * n, computed in integers and then divided once,
          correctly rounded.
        No result depends on the batch shape, and none on a SIMD sum.
        """
        n = int(n)
        if n < 1:
            raise ValueError("need at least one shot")
        params = self._params(points, (len(points), self.dimension))
        keys = [point.tobytes() for point in params]
        levels = self.denominator + 1
        scale = self.denominator * n
        out = np.empty(len(params), dtype=np.float64)
        low = None  # (index, probabilities) of the first minimum so far
        for lo, probs in self._batch_probabilities(params, keys):
            full = self.outcome_probabilities(probs)
            k = len(full)
            index = self.numerators + levels * np.arange(k)[:, None]
            mass = np.bincount(index.ravel(), weights=full.ravel(),
                               minlength=k * levels).reshape(k, levels)
            total = np.array([math.fsum(row) for row in mass.tolist()])
            counts = rng.multinomial(n, mass / total[:, None])
            out[lo:lo + k] = (counts @ np.arange(levels)) / scale
            # the first minimum, as np.argmin(out) picks it
            j = lo + int(np.argmin(out[lo:lo + k]))
            if low is None or out[j] < out[low[0]]:
                low = j, probs[j - lo]
        if low is not None:
            # a copy, so that the rest of its batch is not held with it
            self._low_key, self._low_probs = keys[low[0]], low[1].copy()
        return out

    def _batch_probabilities(self, params, keys):
        """Yield (index of the first point, probabilities(states)) for
        params, whose bytes are keys, in batches of up to batch points:
        read when every point is held, otherwise simulated from the shared
        prefix."""
        held = self._held_rows(keys)
        if held is None and keys.count(keys[0]) == len(keys):
            # one point, however many times: simulate it once
            held = [probabilities(self.state(params[0]))] * len(keys)
        if held is not None:
            for lo in range(0, len(held), self.batch):
                yield lo, np.array(held[lo:lo + self.batch])
            return
        bits = params.view(np.int64)  # tells 0.0 from -0.0
        start = int(self.step_of[np.any(bits != bits[0], axis=0)].min())
        prefix = (start, self._prefix(params[0], start)) if start else None
        for lo in range(0, len(params), self.batch):
            yield lo, probabilities(
                self.state(params[lo:lo + self.batch], prefix=prefix))

    def _prefix(self, point, stop):
        """The state after the first stop steps at one point, continued
        from the deepest held step state that matches it; the point's
        step states up to there are held for the next call."""
        kept = []
        for step, (key, psi) in enumerate(self._step_states):
            if key != point[self.step_of == step].tobytes():
                break
            kept.append((key, psi))
        for step in range(len(kept), stop):
            prefix = (step, kept[-1][1]) if step else None
            kept.append((point[self.step_of == step].tobytes(),
                         self.state(point, stop=step + 1, prefix=prefix)))
        self._step_states = tuple(kept)
        return kept[stop - 1][1]


class PqcBandit(_ShotBandit):
    """Layered rotation ansatz scored by how few qubits read zero.

    Each layer applies a y-rotation to every qubit followed by a chain of
    CZ gates on neighbors. The shot reward for bitstring z is
    1 - (#zero bits)/n, so the all-zero state costs 0: numerator the
    number of one bits of z, denominator n. Layer count defaults to the
    qubit count.

    Both gates are real, so the state is simulated as float64. A step is
    one layer: its rotations are one apply_rotation call with per-qubit
    angles, and its CZ chain is one multiply by its +-1 diagonal, built
    once. The first layer's rotations act on |0...0>, so their state is
    built as a product of per-qubit (cos, sin) pairs (y_product_state),
    whose probabilities are bitwise the rotation kernel's.
    """

    def __init__(self, n, layers=None):
        self.n = int(n)
        self.layers = self.n if layers is None else int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = self.n * self.layers
        self.numerators = _ones(np.arange(1 << self.n, dtype=np.int64), self.n)
        self.denominator = self.n
        # 1 - (fraction of zero bits), not numerators / n, which rounds
        # differently (1/3 against 1 - 2/3) and would move mean()'s bits
        self.rewards = 1.0 - (self.n - self.numerators) / self.n
        self.cz_signs = cz_chain_signs(self.n)
        self.batch = batch_size(1 << self.n, np.float64)
        self.steps = self.layers
        self.step_of = np.arange(self.dimension, dtype=np.int64) // self.n

    def state(self, params, stop=None, prefix=None):
        angles = TWO_PI * params
        if prefix is None:
            start = 1
            state = y_product_state(angles[..., :self.n])
            state *= self.cz_signs
        else:
            start, state = _copies(prefix, params.shape[:-1])
        qubits = range(self.n)
        for layer in range(start, self.steps if stop is None else stop):
            k = layer * self.n
            apply_rotation(state, qubits, "y", angles[..., k:k + self.n])
            state *= self.cz_signs
        return state


class QaoaBandit(_ShotBandit):
    """Alternating-operator circuit for max-cut, scored by cut quality.

    Parameters are (gamma_1..gamma_p, beta_1..beta_p) in [0,1], scaled by
    2*pi. A layer applies the cut-count diagonal phase exp(-i gamma C)
    then the transverse mixer exp(-i beta X) on every qubit; each is one
    step, so the steps run gamma_1, beta_1, gamma_2, beta_2, ... The shot
    reward for bitstring z is 1 - cut(z)/maxcut, so an optimal cut costs
    0: numerator maxcut - cut(z), denominator maxcut.

    The circuit starts from H on every qubit of |0...0>, whose amplitudes
    are all the same number, so the state is filled with that number
    instead of running n Hadamard passes; the bits are the same.

    Every step commutes with flipping every bit, so amplitude(z) =
    amplitude(~z) throughout (the Z2 symmetry of Shaydulin et al.,
    arXiv:2012.04713). state() therefore returns half states: the 2^(n-1)
    amplitudes whose top bit is 0 (statevector module docstring), bitwise
    the first half of the full circuit's state. The phase indexes the
    first half of the numerators, and the mixer's call runs the top qubit
    last, mirrored. outcome_probabilities appends the mirrored half's
    probabilities, so shots are drawn from the full-basis probabilities
    in basis-state order, with the bits the full state gives.
    """

    def __init__(self, graph, layers=2):
        if graph.m == 0:
            raise ValueError("graph must have at least one edge")
        self.graph = graph
        self.layers = int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = 2 * self.layers
        cuts = cut_values(graph)
        self.maxcut = int(cuts.max())
        self.rewards = 1.0 - cuts / self.maxcut
        self.numerators = self.maxcut - cuts
        self.denominator = self.maxcut
        # the phase gate indexes its levels by numerator, so levels run
        # maxcut, maxcut - 1, ..., 0 and no cut table is kept
        self.levels = np.arange(self.maxcut, -1, -1, dtype=np.float64)
        self.uniform = uniform_amplitude(graph.n)
        # numerators of the basis states a half state holds
        self.half_numerators = self.numerators[:1 << (graph.n - 1)]
        self.batch = batch_size(self.half_numerators.size, np.complex128)
        self.steps = 2 * self.layers
        layer = np.arange(self.layers, dtype=np.int64)
        self.step_of = np.concatenate([2 * layer, 2 * layer + 1])

    def state(self, params, stop=None, prefix=None):
        if prefix is None:
            start = 0
            state = np.full(params.shape[:-1] + self.half_numerators.shape,
                            self.uniform, dtype=np.complex128)
        else:
            start, state = _copies(prefix, params.shape[:-1])
        p = self.layers
        gammas = TWO_PI * params[..., :p]
        betas = TWO_PI * params[..., p:]
        for step in range(start, self.steps if stop is None else stop):
            layer, mixer = divmod(step, 2)
            if mixer:
                # exp(-i beta X) is an x-rotation by 2*beta on every qubit
                apply_rotation(state, range(self.graph.n), "x",
                               2.0 * betas[..., layer], half=True)
            else:
                apply_phase(state, self.levels, self.half_numerators,
                            gammas[..., layer])
        return state

    def outcome_probabilities(self, probs):
        return np.concatenate([probs, probs[..., ::-1]], axis=-1)
