"""A traced benchmark pass on 12-qubit circuits.

perfbench's own tests trace only 3- and 4-qubit circuits. These run one
pass of a 12-qubit QAOA rr_powell and a 12-qubit PQC SPSA run with every
perfbench patch point wrapped, and check that each point was found and
that tracing changed no output byte.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched  # noqa: E402

WIDE = [
    workloads.Workload("wide-qaoa", "qaoa", "rr_powell", 1, sizes=(12,),
                       budget=200_000),
    workloads.Workload("wide-pqc", "pqc", "spsa", 1, sizes=(12,),
                       budget=100_000, optimizer_keys={"max_iters": 3}),
]


@pytest.mark.parametrize("workload", WIDE, ids=lambda wl: wl.name)
def test_traced_wide_pass_matches_the_untraced_one(tmp_path, workload):
    plain_dir, traced_dir = str(tmp_path / "plain"), str(tmp_path / "traced")
    workloads.run_pass(workload, workload.spec(0, plain_dir))

    tracer = Tracer()
    with patched(tracer, layers.PATCH_POINTS) as missing:
        tracer.wrap(layers.ROOT_BUCKET, workloads.run_pass)(
            workload, workload.spec(0, traced_dir))
    assert missing == []
    assert tracer.calls["qsim.gate_1q"] > 0
    assert workloads.digests(traced_dir) == workloads.digests(plain_dir)
    rows = workloads.read_runs(plain_dir)
    assert workloads.check_runs(workload, 0, rows)[0] == 0
