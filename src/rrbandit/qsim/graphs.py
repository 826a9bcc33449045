"""Simple undirected graphs, random instances, and their exact cut tables."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

MAX_CUT_VERTICES = 24


@dataclass(frozen=True)
class Graph:
    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not ordered into [0, {self.n})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self):
        return len(self.edges)


def erdos_renyi(n, rng, edge_prob=0.5):
    """Each pair (u, v), u < v in lexicographic order, kept independently
    with probability edge_prob, all decided from one vectorized draw."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < edge_prob
    return Graph(n, tuple(p for p, k in zip(pairs, keep) if k))


def cut_values(graph):
    """Cut size of every bitmask bipartition, indexed by basis state.

    Bit i of a mask is vertex i. The table counts integer cuts over
    chunks of 2^16 masks at a time, so it is exact.
    """
    if graph.n > MAX_CUT_VERTICES:
        raise ValueError(f"cut table limited to {MAX_CUT_VERTICES} vertices")
    size = 1 << graph.n
    if graph.m == 0:
        return np.zeros(size, dtype=np.int64)
    edges = np.asarray(graph.edges, dtype=np.int64)
    eu, ev = edges[:, 0], edges[:, 1]
    out = np.empty(size, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, size, chunk):
        z = np.arange(lo, min(lo + chunk, size), dtype=np.int64)[:, None]
        out[lo:lo + z.shape[0]] = (((z >> eu) ^ (z >> ev)) & 1).sum(axis=1)
    return out
