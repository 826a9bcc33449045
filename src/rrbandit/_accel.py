"""Cut-table kernels, with numba acceleration and a pure numpy fallback.

The jitted path is used when numba imports cleanly unless the environment
variable RRBANDIT_NO_NUMBA is set to a non-empty value. Both variants stay
importable so they can be compared directly (see benchmarks/bench_kernels.py);
they count integer cuts, so they agree exactly. The statevector gates have
a single numpy path in qsim/statevector.py.

Bitmask bit i corresponds to vertex i.
"""

import os

import numpy as np

HAS_NUMBA = False
if not os.environ.get("RRBANDIT_NO_NUMBA"):
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an install-time choice
        pass


# ---------------------------------------------------------------------------
# cut sizes of every bipartition bitmask
# ---------------------------------------------------------------------------

def cut_values_numpy(n, edges_u, edges_v):
    size = 1 << n
    out = np.empty(size, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, size, chunk):
        z = np.arange(lo, min(lo + chunk, size), dtype=np.int64)[:, None]
        diff = ((z >> edges_u[None, :]) ^ (z >> edges_v[None, :])) & 1
        out[lo:lo + z.shape[0]] = diff.sum(axis=1)
    return out


def _cut_values_loop(n, edges_u, edges_v):
    size = 1 << n
    m = edges_u.shape[0]
    out = np.empty(size, dtype=np.int64)
    for z in range(size):
        c = 0
        for e in range(m):
            c += ((z >> edges_u[e]) ^ (z >> edges_v[e])) & 1
        out[z] = c
    return out


def maxcut_numpy(n, edges_u, edges_v):
    # cut(z) = cut(~z), so scanning half the masks is enough
    size = 1 << max(n - 1, 1)
    best = 0
    chunk = 1 << 16
    for lo in range(0, size, chunk):
        z = np.arange(lo, min(lo + chunk, size), dtype=np.int64)[:, None]
        diff = ((z >> edges_u[None, :]) ^ (z >> edges_v[None, :])) & 1
        best = max(best, int(diff.sum(axis=1).max()))
    return best


def _maxcut_loop(n, edges_u, edges_v):
    size = 1 << max(n - 1, 1)
    m = edges_u.shape[0]
    best = 0
    for z in range(size):
        c = 0
        for e in range(m):
            c += ((z >> edges_u[e]) ^ (z >> edges_v[e])) & 1
        if c > best:
            best = c
    return best


if HAS_NUMBA:
    cut_values_numba = njit(cache=True)(_cut_values_loop)
    maxcut_numba = njit(cache=True)(_maxcut_loop)

    cut_values = cut_values_numba
    maxcut = maxcut_numba
else:
    cut_values_numba = None
    maxcut_numba = None

    cut_values = cut_values_numpy
    maxcut = maxcut_numpy
