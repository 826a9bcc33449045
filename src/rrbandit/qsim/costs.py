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
from typing import Optional

import numpy as np

from ..bandits import Bandit
from .graphs import cut_values
# no circuit calls apply_hadamard or apply_cz; perfbench patches them here
from .statevector import (apply_cz, apply_hadamard, apply_phase,  # noqa: F401
                          apply_rotation, batch_size, probabilities,
                          zero_state)

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


def expected_reward(probs, rewards):
    """Exactly-rounded expectation sum(p_z r_z) / sum(p_z)."""
    num = math.fsum((probs * rewards).tolist())
    den = math.fsum(probs.tolist())
    return num / den


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
    - outcome_probabilities(states), if state() returns half states: the
      probabilities of all 2^n outcomes;
    - batch: how many points state() simulates at once, from batch_size
      of the state's length and dtype;
    - steps, and step_of: the step that reads each parameter;
    - numerators and denominator: a shot on basis state z scores
      numerators[z] / denominator, with integer numerators in
      0..denominator; rewards holds the same scores as float64, from
      which mean() takes the exact expectation. All three run over the
      2^n basis states.
    """

    rewards = None  # float64 array over basis states
    numerators = None  # int64 array over basis states
    denominator = 1
    batch = None  # points per simulated batch
    steps = 0
    step_of = None  # int64 array over parameters

    def state(self, params, stop=None, prefix=None):
        raise NotImplementedError

    def outcome_probabilities(self, states):
        """Probabilities of the 2^n outcomes of states from state()."""
        return probabilities(states)

    def _params(self, params, shape):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != shape:
            raise ValueError(
                f"expected parameters of shape {shape}, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        return params

    def mean(self, params):
        """Exact expected reward at one point, over the basis states that
        state() holds. On a half state that is the full expectation bit
        for bit: every term, and so both correctly rounded sums, count
        twice in the full one, and the factor of 2 cancels exactly."""
        probs = probabilities(self.state(self._params(params, (self.dimension,))))
        return expected_reward(probs, self.rewards[:probs.size])

    # perfbench patches this name in the class's own dict
    sample_mean = Bandit.sample_mean

    def sample_means(self, points, n, rng):
        """Average reward of n shots at each point, all drawn from rng.

        Only the work in which the points differ is done per point:
        - Shared prefix. The steps before the first one whose parameters
          differ across the points (compared bit for bit) are simulated
          once, on one state. The points then run in batches of up to
          batch, each starting from copies of that state. Every
          amplitude sees the arithmetic it sees in state(point), so the
          states are bitwise those.
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
        bits = params.view(np.int64)  # tells 0.0 from -0.0
        moved = self.step_of[np.any(bits != bits[0], axis=0)]
        start = int(moved.min()) if moved.size else self.steps
        prefix = (start, self.state(params[0], stop=start)) if start else None
        levels = self.denominator + 1
        scale = self.denominator * n
        out = np.empty(len(params), dtype=np.float64)
        for lo in range(0, len(params), self.batch):
            probs = self.outcome_probabilities(
                self.state(params[lo:lo + self.batch], prefix=prefix))
            k = len(probs)
            index = self.numerators + levels * np.arange(k)[:, None]
            mass = np.bincount(index.ravel(), weights=probs.ravel(),
                               minlength=k * levels).reshape(k, levels)
            total = np.array([math.fsum(row) for row in mass.tolist()])
            counts = rng.multinomial(n, mass / total[:, None])
            out[lo:lo + k] = (counts @ np.arange(levels)) / scale
        return out


class PqcBandit(_ShotBandit):
    """Layered rotation ansatz scored by how few qubits read zero.

    Each layer applies a y-rotation to every qubit followed by a chain of
    CZ gates on neighbors. The shot reward for bitstring z is
    1 - (#zero bits)/n, so the all-zero state costs 0: numerator the
    number of one bits of z, denominator n. Layer count defaults to the
    qubit count. lipschitz is advisory for line-search grids; it is not
    validated against the true smoothness.

    Both gates are real, so the state is simulated as float64. A step is
    one layer: its rotations are one apply_rotation call with per-qubit
    angles, and its CZ chain is one multiply by its +-1 diagonal, built
    once.
    """

    def __init__(self, n, layers=None, lipschitz=0.5):
        self.n = int(n)
        self.layers = self.n if layers is None else int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = self.n * self.layers
        self.lipschitz = float(lipschitz)
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
        if prefix is None:
            start = 0
            state = zero_state(self.n, params.shape[:-1], dtype=np.float64)
        else:
            start, state = _copies(prefix, params.shape[:-1])
        angles = TWO_PI * params
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

    def __init__(self, graph, layers=2, lipschitz=0.5):
        if graph.m == 0:
            raise ValueError("graph must have at least one edge")
        self.graph = graph
        self.layers = int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = 2 * self.layers
        self.lipschitz = float(lipschitz)
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

    def outcome_probabilities(self, states):
        probs = probabilities(states)
        return np.concatenate([probs, probs[..., ::-1]], axis=-1)
