"""Shot-level circuit objectives exposed through the bandit interface.

Both families map bandit parameters in [0,1] to angles by multiplying with
2*pi. Expected costs are computed from the exact statevector with
correctly-rounded summation, so states with all-equal outcome
probabilities produce exact rational expectations. Shot rewards are
bounded in [0,1], hence 1-sub-Gaussian.
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


def zeros_fractions(n):
    """Fraction of zero bits in each n-bit basis state."""
    return (n - _ones(np.arange(1 << n, dtype=np.int64), n)) / n


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


class _ShotBandit(Bandit):
    """Shared shot plumbing: subclasses provide state(params) and rewards.

    state(params) takes one point of shape (dimension,) and returns its
    statevector, or a batch of points of shape (k, dimension) and returns
    their (k, 2^n) states.
    """

    rewards = None  # float64 array over basis states

    def state(self, params):
        raise NotImplementedError

    def _params(self, params, shape):
        params = np.asarray(params, dtype=np.float64)
        if params.shape != shape:
            raise ValueError(
                f"expected parameters of shape {shape}, got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        return params

    def mean(self, params):
        probs = probabilities(self.state(self._params(params, (self.dimension,))))
        return expected_reward(probs, self.rewards)

    def sample_mean(self, params, n, rng):
        return float(self.sample_means([params], n, rng)[0])

    def sample_means(self, points, n, rng):
        """Average reward of n shots at each point, all drawn from rng.

        The states of up to batch_size(self.rewards.size) points are
        simulated as one batch. Each point's outcome histogram is one
        multinomial over its own probability vector, which has exactly the
        distribution of n individual shots. A batch's histograms are one
        2-d multinomial call, which draws row after row as per-point calls
        on the same stream would; each row is scored by its own 1-d dot
        product, so the result does not depend on the batch shape.
        """
        n = int(n)
        if n < 1:
            raise ValueError("need at least one shot")
        params = self._params(points, (len(points), self.dimension))
        out = np.empty(len(params), dtype=np.float64)
        chunk = batch_size(self.rewards.size)
        for lo in range(0, len(params), chunk):
            probs = probabilities(self.state(params[lo:lo + chunk]))
            counts = rng.multinomial(
                n, probs / probs.sum(axis=1, keepdims=True))
            for j, row in enumerate(counts, start=lo):
                out[j] = float(row @ self.rewards) / n
        return out


class PqcBandit(_ShotBandit):
    """Layered rotation ansatz scored by how few qubits read zero.

    Each layer applies a y-rotation to every qubit followed by a chain of
    CZ gates on neighbors. The shot reward for bitstring z is
    1 - (#zero bits)/n, so the all-zero state costs 0. Layer count
    defaults to the qubit count. lipschitz is advisory for line-search
    grids; it is not validated against the true smoothness.

    Both gates are real, so the state is simulated as float64. Each layer's
    rotations are one apply_rotation call with per-qubit angles, and its CZ
    chain is one multiply by its +-1 diagonal, built once.
    """

    def __init__(self, n, layers=None, lipschitz=0.5):
        self.n = int(n)
        self.layers = self.n if layers is None else int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = self.n * self.layers
        self.lipschitz = float(lipschitz)
        self.rewards = 1.0 - zeros_fractions(self.n)
        self.cz_signs = cz_chain_signs(self.n)

    def state(self, params):
        state = zero_state(self.n, params.shape[:-1], dtype=np.float64)
        angles = TWO_PI * params
        qubits = range(self.n)
        for k in range(0, self.dimension, self.n):
            apply_rotation(state, qubits, "y", angles[..., k:k + self.n])
            state *= self.cz_signs
        return state


class QaoaBandit(_ShotBandit):
    """Alternating-operator circuit for max-cut, scored by cut quality.

    Parameters are (gamma_1..gamma_p, beta_1..beta_p) in [0,1], scaled by
    2*pi. A layer applies the cut-count diagonal phase exp(-i gamma C)
    then the transverse mixer exp(-i beta X) on every qubit. The shot
    reward for bitstring z is 1 - cut(z)/maxcut, so an optimal cut costs 0.

    The circuit starts from H on every qubit of |0...0>, whose amplitudes
    are all the same number, so the state is filled with that number
    instead of running n Hadamard passes; the bits are the same.
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
        # the integer cut table doubles as the phase gate's index into its
        # levels 0..maxcut, so no second 2^n array is kept
        self.cuts = cut_values(graph)
        self.maxcut = int(self.cuts.max())
        self.levels = np.arange(self.maxcut + 1, dtype=np.float64)
        self.rewards = 1.0 - self.cuts / self.maxcut
        self.uniform = uniform_amplitude(graph.n)

    def state(self, params):
        p = self.layers
        gammas = TWO_PI * params[..., :p]
        betas = TWO_PI * params[..., p:]
        state = np.full(params.shape[:-1] + self.cuts.shape,
                        self.uniform, dtype=np.complex128)
        for layer in range(p):
            apply_phase(state, self.levels, self.cuts, gammas[..., layer])
            # exp(-i beta X) is an x-rotation by 2*beta on every qubit
            apply_rotation(state, range(self.graph.n), "x",
                           2.0 * betas[..., layer])
        return state
