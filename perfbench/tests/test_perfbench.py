"""Tests of the benchmark's tracer, layer table and output checks.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched  # noqa: E402


class ManualClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.t += 4.0

    def child_a():
        clock.t += 3.0
        leaf()

    def child_b():
        clock.t += 5.0
        leaf()

    def root():
        clock.t += 1.0
        child_a()
        clock.t += 2.0
        child_b()

    leaf = tracer.wrap("leaf", leaf)
    child_a = tracer.wrap("a", child_a)
    child_b = tracer.wrap("b", child_b)
    start = clock.t
    tracer.wrap("root", root)()

    assert dict(tracer.self_s) == {"root": 3.0, "a": 3.0, "b": 5.0,
                                   "leaf": 8.0}
    assert dict(tracer.calls) == {"root": 1, "a": 1, "b": 1, "leaf": 2}
    assert tracer.total_self_s() == clock.t - start == 19.0


def test_self_times_are_non_negative_and_sum_to_wall_with_real_clock():
    tracer = Tracer()

    def work(depth):
        total = sum(range(2000))
        if depth:
            total += inner(depth - 1) + inner(depth - 1)
        return total

    inner = tracer.wrap("inner", work)
    outer = tracer.wrap("outer", work)
    start = tracer.clock()
    outer(6)
    wall = tracer.clock() - start

    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert tracer.calls["inner"] == 2 ** 7 - 2
    # the root span sits inside the outer reading, apart from one wrapper
    assert 0.0 <= wall - tracer.total_self_s() < 1e-3


def test_a_raising_call_still_closes_its_span():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.t += 2.0
        raise KeyError("x")

    def outer():
        clock.t += 1.0
        with pytest.raises(KeyError):
            tracer.wrap("fails", fails)()

    tracer.wrap("outer", outer)()
    assert dict(tracer.self_s) == {"outer": 1.0, "fails": 2.0}


def test_hooks_see_arguments_and_result():
    tracer = Tracer()
    seen = []

    def hook(counters, args, result):
        counters["n"] += args[0]
        seen.append(result)

    double = tracer.wrap("double", lambda x: 2 * x, hook)
    assert double(3) == 6 and double(4) == 8
    assert tracer.counters["n"] == 7 and seen == [6, 8]


def test_patches_are_undone_also_after_an_exception():
    module = types.ModuleType("fake_layer")
    module.func = lambda: "plain"

    class Owner:
        def method(self):
            return "method"

    module.Owner = Owner
    sys.modules["fake_layer"] = module
    original_func, original_method = module.func, Owner.__dict__["method"]
    points = [("fake_layer", "func", "f", None),
              ("fake_layer:Owner", "method", "m", None),
              ("fake_layer", "absent", "x", None),
              ("no_such_module_here", "func", "x", None)]
    tracer = Tracer()
    try:
        with pytest.raises(RuntimeError):
            with patched(tracer, points) as missing:
                assert module.func is not original_func
                assert module.func() == "plain"
                assert Owner().method() == "method"
                raise RuntimeError("inside the block")
    finally:
        del sys.modules["fake_layer"]
    assert missing == ["fake_layer.absent", "no_such_module_here.func"]
    assert module.func is original_func
    assert Owner.__dict__["method"] is original_method
    assert tracer.calls == {"f": 1, "m": 1}


@pytest.mark.parametrize("workload", [
    workloads.Workload("tiny-qaoa", "qaoa", "rr_powell", 1, sizes=(4,),
                       budget=100_000),
    workloads.Workload("tiny-pqc", "pqc", "spsa", 1, sizes=(3,),
                       budget=100_000, optimizer_keys={"max_iters": 3}),
    workloads.Workload("tiny-toy", "toy", "rr", 3),
], ids=lambda wl: wl.name)
def test_tracing_changes_no_output_byte(tmp_path, workload):
    plain_dir, traced_dir = str(tmp_path / "plain"), str(tmp_path / "traced")
    workloads.run_pass(workload, workload.spec(0, plain_dir))

    tracer = Tracer()
    with patched(tracer, layers.PATCH_POINTS) as missing:
        tracer.wrap(layers.ROOT_BUCKET, workloads.run_pass)(
            workload, workload.spec(0, traced_dir))
    assert missing == []
    assert workloads.digests(traced_dir) == workloads.digests(plain_dir)
    assert tracer.calls[layers.ROOT_BUCKET] == 1
    assert all(v >= 0.0 for v in tracer.self_s.values())
    values = layers.layer_values(tracer)
    assert set(values) | {"trace.overhead_ratio"} == {
        name for name, _, _ in layers.PER_LAYER}


def _vqa_row(seed, **changes):
    row = {"size": "5", "seed": str(seed), "status": "censored",
           "n_total": "inf", "samples_spent": "1000", "final_cost": "0.1"}
    row.update(changes)
    return row


def test_check_runs_counts_each_broken_job():
    wl = workloads.Workload("w", "qaoa", "rr_powell", 7, sizes=(5,),
                            budget=2000, solved_threshold=0.2)
    rows = [
        _vqa_row(7),
        _vqa_row(8, status="crossed", n_total="1000",
                 final_cost=repr(workloads.UNREACHED_THRESHOLD)),
        _vqa_row(9, status="crossed", n_total="999", final_cost="0.0"),
        _vqa_row(10, n_total="1000"),
        _vqa_row(11, samples_spent="2001"),
        _vqa_row(12),
        _vqa_row(12),
        _vqa_row(99),
    ]
    failed, solved, samples = workloads.check_runs(wl, 1, rows)
    # 9: n_total != samples_spent; 10: censored with a finite n_total;
    # 11: over budget; 12: two rows; 13: no row; 99: outside the range
    assert failed == 6
    assert solved == 2
    assert samples == 4 * 1000 + 2001


def test_check_runs_toy_bounds():
    from rrbandit.harness.toy import smooth_minimizer

    x_star = smooth_minimizer()
    wl = workloads.Workload("t", "toy", "rr", 2)
    good = {"seed": "0", "x_hat": repr(0.5), "samples_spent": "10",
            "distance": repr(abs(0.5 - x_star))}
    bad = {"seed": "1", "x_hat": repr(1.5), "samples_spent": "10",
           "distance": repr(abs(1.5 - x_star))}
    assert workloads.check_runs(wl, 0, [good, bad])[0] == 1


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
            ] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)


def test_seed_ranges_never_overlap():
    for wl in workloads.WORKLOADS.values():
        assert wl.seeds(1).start == wl.seeds(0).stop
