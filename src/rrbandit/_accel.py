"""Cut-table kernel in plain numpy.

cut_values tabulates the cut size of every bipartition bitmask, over
chunks of 2^16 masks at a time. It counts integer cuts, so the table is
exact. Bitmask bit i corresponds to vertex i.
"""

import numpy as np

# there is no jitted variant; the flag stays for environment records
HAS_NUMBA = False


def cut_values(n, edges_u, edges_v):
    size = 1 << n
    out = np.empty(size, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, size, chunk):
        z = np.arange(lo, min(lo + chunk, size), dtype=np.int64)[:, None]
        diff = ((z >> edges_u[None, :]) ^ (z >> edges_v[None, :])) & 1
        out[lo:lo + z.shape[0]] = diff.sum(axis=1)
    return out
