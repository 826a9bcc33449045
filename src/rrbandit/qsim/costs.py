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
from .graphs import cut_values, maxcut_bruteforce
from .statevector import (apply_cz, apply_hadamard, apply_phase,
                          apply_rotation, batch_size, probabilities,
                          zero_state)

TWO_PI = 2.0 * math.pi


def zeros_fractions(n):
    """Fraction of zero bits in each n-bit basis state."""
    idx = np.arange(1 << n, dtype=np.int64)
    ones = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        ones += (idx >> b) & 1
    return (n - ones) / n


def expected_reward(probs, rewards):
    """Exactly-rounded expectation sum(p_z r_z) / sum(p_z)."""
    num = math.fsum((probs * rewards).tolist())
    den = math.fsum(probs.tolist())
    return num / den


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
        return float(self.sample_means([params], n, [rng])[0])

    def sample_means(self, points, n, rngs):
        """Average reward of n shots at each point, point j drawing from rngs[j].

        The states of up to batch_size(self.rewards.size) points are
        simulated as one batch. Each point's outcome histogram is one
        multinomial over its own probability vector, which has exactly the
        distribution of n individual shots.
        """
        n = int(n)
        if n < 1:
            raise ValueError("need at least one shot")
        params = self._params(points, (len(rngs), self.dimension))
        out = np.empty(len(rngs), dtype=np.float64)
        chunk = batch_size(self.rewards.size)
        for lo in range(0, len(rngs), chunk):
            states = self.state(params[lo:lo + chunk])
            for j, probs in enumerate(probabilities(states), start=lo):
                counts = rngs[j].multinomial(n, probs / probs.sum())
                out[j] = float(counts @ self.rewards) / n
        return out


class PqcBandit(_ShotBandit):
    """Layered rotation ansatz scored by how few qubits read zero.

    Each layer applies a y-rotation to every qubit followed by a chain of
    CZ gates on neighbors. The shot reward for bitstring z is
    1 - (#zero bits)/n, so the all-zero state costs 0. Layer count
    defaults to the qubit count. lipschitz is advisory for line-search
    grids; it is not validated against the true smoothness.
    """

    def __init__(self, n, layers=None, lipschitz=0.5):
        self.n = int(n)
        self.layers = self.n if layers is None else int(layers)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        self.dimension = self.n * self.layers
        self.lipschitz = float(lipschitz)
        self.rewards = 1.0 - zeros_fractions(self.n)

    def state(self, params):
        state = zero_state(self.n, params.shape[:-1])
        angles = TWO_PI * params
        k = 0
        for _ in range(self.layers):
            for q in range(self.n):
                apply_rotation(state, q, "y", angles[..., k])
                k += 1
            for q in range(self.n - 1):
                apply_cz(state, q, q + 1)
        return state


class QaoaBandit(_ShotBandit):
    """Alternating-operator circuit for max-cut, scored by cut quality.

    Parameters are (gamma_1..gamma_p, beta_1..beta_p) in [0,1], scaled by
    2*pi. A layer applies the cut-count diagonal phase exp(-i gamma C)
    then the transverse mixer exp(-i beta X) on every qubit. The shot
    reward for bitstring z is 1 - cut(z)/maxcut, so an optimal cut costs 0.
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
        self.cuts = cut_values(graph).astype(np.float64)
        self.maxcut = maxcut_bruteforce(graph)
        self.rewards = 1.0 - self.cuts / self.maxcut

    def state(self, params):
        p = self.layers
        gammas = TWO_PI * params[..., :p]
        betas = TWO_PI * params[..., p:]
        state = zero_state(self.graph.n, params.shape[:-1])
        for q in range(self.graph.n):
            apply_hadamard(state, q)
        for layer in range(p):
            apply_phase(state, self.cuts, gammas[..., layer])
            for q in range(self.graph.n):
                # exp(-i beta X) is an x-rotation by 2*beta
                apply_rotation(state, q, "x", 2.0 * betas[..., layer])
        return state
