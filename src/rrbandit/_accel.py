"""Environment flag read by perfbench's environment record.

There is no jitted kernel; the cut table is plain numpy in
qsim/graphs.py.
"""

HAS_NUMBA = False
