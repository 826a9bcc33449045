"""Timing comparison of the jitted cut kernels against the numpy fallback.

Usage:
    python3 benchmarks/bench_kernels.py [--cut-vertices 18] [--repeats 50]

Requires numba importable and RRBANDIT_NO_NUMBA unset; otherwise only the
fallback exists and there is nothing to compare. Each kernel is checked
for agreement between the two variants before timing. The statevector
gates have no numba variant.
"""

import argparse
import math
import time

import numpy as np

from rrbandit import _accel


def _time(fn, args, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _report(name, numpy_fn, numba_fn, make_args, check, repeats):
    a_np = make_args()
    a_nb = make_args()
    out_np = numpy_fn(*a_np)
    out_nb = numba_fn(*a_nb)
    if not check(out_np, out_nb):
        raise AssertionError(f"{name}: variants disagree")
    t_np = _time(numpy_fn, make_args(), repeats)
    t_nb = _time(numba_fn, make_args(), repeats)
    print(f"{name:<14} numpy {t_np * 1e6:10.1f} us   "
          f"numba {t_nb * 1e6:10.1f} us   speedup {t_np / t_nb:6.2f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cut-vertices", type=int, default=18)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()

    if not _accel.HAS_NUMBA:
        print("numba is not active (missing, or RRBANDIT_NO_NUMBA is set); "
              "only the numpy fallback is available")
        return 1

    rng = np.random.default_rng(0)
    nc = args.cut_vertices
    pairs = [(u, v) for u in range(nc) for v in range(u + 1, nc)]
    keep = rng.random(len(pairs)) < 0.5
    edges = np.asarray([p for p, k in zip(pairs, keep) if k], dtype=np.int64)
    eu = np.ascontiguousarray(edges[:, 0])
    ev = np.ascontiguousarray(edges[:, 1])

    print(f"cut kernels on {nc} vertices / {eu.size} edges")
    _report("cut_values", _accel.cut_values_numpy, _accel.cut_values_numba,
            lambda: (nc, eu, ev),
            lambda a, b: bool(np.array_equal(a, b)), args.repeats)
    _report("maxcut", _accel.maxcut_numpy, _accel.maxcut_numba,
            lambda: (nc, eu, ev), lambda a, b: a == b, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
