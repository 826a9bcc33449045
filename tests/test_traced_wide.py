"""Traced benchmark passes on the program's real code paths.

perfbench's own tests trace only 3- and 4-qubit circuits. These run one
pass of a 12-qubit QAOA rr_powell, a 12-qubit PQC SPSA run and a toy
elimination run with every perfbench patch point wrapped, and check that
each point was found and that tracing changed no output byte. The last
test checks that the benchmark can still record its environment, which
every benchmark run does.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched  # noqa: E402

WIDE = [
    workloads.Workload("wide-qaoa", "qaoa", "rr_powell", 1, sizes=(12,),
                       budget=200_000),
    workloads.Workload("wide-pqc", "pqc", "spsa", 1, sizes=(12,),
                       budget=100_000, optimizer_keys={"max_iters": 3}),
]


TOY = workloads.Workload("traced-toy", "toy", "rr", 5)


def traced_pass(tmp_path, workload):
    """Run the workload untraced and traced; return the tracer after
    checking that every patch point was found and no output byte moved."""
    plain_dir, traced_dir = str(tmp_path / "plain"), str(tmp_path / "traced")
    workloads.run_pass(workload, workload.spec(0, plain_dir))

    tracer = Tracer()
    with patched(tracer, layers.PATCH_POINTS) as missing:
        tracer.wrap(layers.ROOT_BUCKET, workloads.run_pass)(
            workload, workload.spec(0, traced_dir))
    assert missing == []
    assert workloads.digests(traced_dir) == workloads.digests(plain_dir)
    rows = workloads.read_runs(plain_dir)
    assert workloads.check_runs(workload, 0, rows)[0] == 0
    return tracer


@pytest.mark.parametrize("workload", WIDE, ids=lambda wl: wl.name)
def test_traced_wide_pass_matches_the_untraced_one(tmp_path, workload):
    assert traced_pass(tmp_path, workload).calls["qsim.gate_1q"] > 0


def test_traced_toy_pass_matches_the_untraced_one(tmp_path):
    assert traced_pass(tmp_path, TOY).counters["rr.rounds"] > 0


def test_benchmark_records_its_environment(monkeypatch):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    env = run.environment()
    assert env["numpy"] and env["nproc"] >= 1
    assert env["threads"] == {var: "1" for var in run.THREAD_VARS}
