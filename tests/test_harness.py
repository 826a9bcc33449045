"""Spec parsing, runners, CSV emission, and the command-line surface."""

import math
import os

import numpy as np
import pytest

from rrbandit import bounds
from rrbandit.baselines import PowellBrentConfig, SpsaConfig, spsa
from rrbandit.harness import (ConfigError, RunSpec, aggregate, build_instance,
                              load_spec, parse_overrides, run_bounds,
                              run_single, run_toy, run_vqa)
from rrbandit.harness.cli import main
from rrbandit.harness.config import expand_ints
from rrbandit.harness.output import fmt_value, write_csv
from rrbandit.harness.toy import (WEDGE_SLOPE, make_toy_bandit,
                                  smooth_minimizer, smooth_profile,
                                  staircase, staircase_cell, toy_objective)
from rrbandit.harness import toy, vqa
from rrbandit.harness.vqa import midpoint_quantile, optimizer_config
from rrbandit.lines import DriverConfig, powell_driver
from rrbandit.qsim import PqcBandit, QaoaBandit, erdos_renyi
from rrbandit.qsim.costs import _ShotBandit
from rrbandit.rng import SeededRng
from rrbandit.rr import RRConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


# ----------------------------------------------------------- spec files

def test_expand_seeds():
    assert expand_ints("0..3, 7", "run.seeds") == [0, 1, 2, 3, 7]
    assert expand_ints("5", "run.seeds") == [5]
    assert expand_ints("4,2,2", "run.seeds") == [2, 4]
    for bad in ("", "a", "3..1", "-1", "1..x"):
        with pytest.raises(ConfigError, match=r"^run\.seeds: "):
            expand_ints(bad, "run.seeds")


def test_expand_ints_keeps_order():
    """Sizes take the same rules as seeds: sorted and deduplicated."""
    assert expand_ints("8,4,6,4", "run.sizes") == [4, 6, 8]
    assert expand_ints("3..5,9", "run.sizes") == [3, 4, 5, 9]
    with pytest.raises(ConfigError, match=r"^run\.sizes: "):
        expand_ints("8,oops", "run.sizes")


def test_runspec_typed_getters():
    """fields parses each key as its type; unset keys are left out."""
    spec = RunSpec()
    spec.set("run", "budget", "100")
    spec.set("optimizer", "q", "3.5")
    spec.set("optimizer", "flag", "yes")
    assert spec.fields("run", budget=int, missing=int, nope=str) == {
        "budget": 100}
    assert spec.fields("optimizer", q=float, flag=bool, other=bool) == {
        "q": 3.5, "flag": True}
    for text, value in (("1", True), ("On", True), (" no ", False),
                        ("0", False), ("FALSE", False), ("off", False)):
        spec.set("optimizer", "flag", text)
        assert spec.fields("optimizer", q=float, flag=bool)["flag"] is value
    with pytest.raises(ConfigError, match=r"optimizer\.q: not an integer"):
        spec.fields("optimizer", q=int, flag=bool)  # 3.5 is not an integer
    spec.set("run", "budget", "lots")
    with pytest.raises(ConfigError, match=r"run\.budget: not a number"):
        spec.fields("run", budget=float)
    with pytest.raises(ConfigError, match="unknown section"):
        spec.set("misc", "x", "1")
    with pytest.raises(ConfigError, match="unknown section"):
        spec.fields("misc", x=str)
    spec.set("optimizer", "flag", "maybe")
    with pytest.raises(ConfigError, match=r"optimizer\.flag: not a boolean"):
        spec.fields("optimizer", q=float, flag=bool)


def test_runspec_fields_reads_set_keys_and_refuses_the_rest():
    spec = RunSpec()
    spec.set("optimizer", "q", "3.5")
    spec.set("optimizer", "d_max", "2")
    spec.set("optimizer", "wrap", "clip")
    spec.set("optimizer", "early_stop_depth1", "yes")
    types = {"q": float, "d_max": int, "wrap": str,
             "early_stop_depth1": bool, "delta": float}
    assert spec.fields("optimizer", **types) == {
        "q": 3.5, "d_max": 2, "wrap": "clip", "early_stop_depth1": True}
    assert spec.fields("instance", sigma=float) == {}
    del types["q"]
    with pytest.raises(ConfigError, match=r"optimizer\.q;"):
        spec.fields("optimizer", **types)
    spec.set("optimizer", "d_max", "two")
    with pytest.raises(ConfigError, match="d_max: not an integer"):
        spec.fields("optimizer", q=float, **types)


def test_load_spec_ini(tmp_path):
    path = tmp_path / "spec.ini"
    path.write_text("[run]\nseeds = 0..2\noptimizer = rr\n"
                    "[optimizer]\nepsilon = 0.0078125\n")
    spec = load_spec(str(path))
    assert spec.fields("run", seeds=str, optimizer=str) == {
        "seeds": "0..2", "optimizer": "rr"}
    assert spec.fields("optimizer", epsilon=float) == {"epsilon": 2.0 ** -7}
    assert load_spec(None) == RunSpec()


def test_load_spec_rejects_unknown_section(tmp_path):
    path = tmp_path / "spec.ini"
    path.write_text("[plotting]\ncolor = red\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_spec(str(path))
    with pytest.raises(ConfigError, match="not found"):
        load_spec(str(tmp_path / "missing.ini"))


def test_parse_overrides():
    spec = parse_overrides(RunSpec(), ["run.seeds=0..4", "optimizer.q=10"])
    assert spec.run == {"seeds": "0..4"}
    assert spec.optimizer == {"q": "10"}
    for bad in ("runseeds", "run.=1", ".key=1", "=x"):
        with pytest.raises(ConfigError):
            parse_overrides(RunSpec(), [bad])


# ------------------------------------------------------------- output

def test_fmt_value():
    assert fmt_value(0.1) == "0.1"
    assert fmt_value(float(2 ** -7)) == "0.0078125"
    assert fmt_value(math.inf) == "inf"
    assert fmt_value(True) == "1" and fmt_value(False) == "0"
    assert fmt_value(12) == "12"
    assert fmt_value(np.float64(0.25)) == "0.25"
    assert fmt_value(np.int64(3)) == "3"
    assert fmt_value("ok") == "ok"


def test_write_csv_creates_directories(tmp_path):
    path = tmp_path / "deep" / "dir" / "out.csv"
    write_csv(str(path), ["a", "b"], [{"a": 1, "b": 0.5}])
    assert path.read_text() == "a,b\n1,0.5\n"


# ------------------------------------------------------------ quantile

def test_midpoint_quantile_convention():
    vals = [3.0, 1.0, 2.0]
    assert midpoint_quantile(vals, 0.5) == 2.0
    assert midpoint_quantile(vals, 0.25) == 1.5
    assert midpoint_quantile(vals, 0.75) == 2.5


def test_midpoint_quantile_with_censored_values():
    assert midpoint_quantile([1.0, 2.0, math.inf], 0.5) == 2.0
    assert midpoint_quantile([1.0, math.inf, math.inf], 0.5) == math.inf
    assert midpoint_quantile([1.0, math.inf], 0.5) == math.inf
    assert midpoint_quantile([4.0], 0.5) == 4.0
    with pytest.raises(ValueError):
        midpoint_quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        midpoint_quantile([], 0.5)


def test_aggregate_marks_low_crossing_rates_failed():
    def row(size, n):
        return {"experiment": "qaoa", "optimizer": "rr_powell",
                "size": size, "n_total": n}

    rows = [row(5, 10.0), row(5, 30.0), row(5, 20.0), row(5, math.inf),
            row(6, math.inf), row(6, math.inf), row(6, 5.0)]
    agg = {a["size"]: a for a in aggregate(rows)}
    assert agg[5]["n_crossed"] == 3
    assert agg[5]["status"] == "ok"
    assert agg[5]["median"] == 25.0
    assert agg[6]["status"] == "failed"
    assert agg[6]["median"] == math.inf


# ----------------------------------------------------------- toy parts

def test_staircase_cells():
    assert staircase_cell(0.0) == 1
    assert staircase_cell(0.024) == 1
    assert staircase_cell(0.08) == 2
    assert staircase_cell(0.974) == 19
    assert staircase_cell(0.975) == 20
    assert staircase_cell(1.0) == 20


def test_smooth_minimizer_frozen():
    x_star = smooth_minimizer()
    assert x_star == pytest.approx(0.867526208251332, abs=1e-9)
    assert smooth_profile(x_star) == pytest.approx(0.5122004280942126,
                                                   abs=1e-9)


def test_toy_objective_shape():
    x_star = smooth_minimizer()
    assert toy_objective(x_star) == pytest.approx(smooth_profile(x_star))
    # the notch is narrower than a cell but deeper than the best step
    assert toy_objective(x_star) < staircase(x_star)
    # pointwise minimum of the step landscape and the notch
    v_star = float(smooth_profile(x_star))
    for x in np.linspace(0.0, 1.0, 97):
        expected = min(staircase(x), v_star + 2.0 * abs(x - x_star))
        assert toy_objective(x) == pytest.approx(expected, abs=1e-12)
    # far from the minimizer the notch is irrelevant
    assert toy_objective(0.05) == pytest.approx(staircase(0.05))


def _formula_toy_objective(x):
    # the objective evaluated from smooth_profile on every call
    x = float(np.squeeze(np.asarray(x, dtype=np.float64)))
    x_star = smooth_minimizer()
    wedge = float(smooth_profile(x_star)) + WEDGE_SLOPE * abs(x - x_star)
    step = float(smooth_profile(staircase_cell(x) / toy.N_CELLS))
    return min(step, wedge)


def test_tabulated_toy_objective_is_bitwise_the_formula():
    x_star = smooth_minimizer()
    edges = (np.arange(toy.N_CELLS + 1) - 0.5) / toy.N_CELLS
    xs = np.concatenate([
        np.linspace(0.0, 1.0, 20001), edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [x_star, np.nextafter(x_star, 0.0), np.nextafter(x_star, 1.0)]])
    for x in xs[(xs >= 0.0) & (xs <= 1.0)].tolist():
        assert toy_objective(x).hex() == _formula_toy_objective(x).hex()
        assert staircase(x).hex() == float(
            smooth_profile(staircase_cell(x) / toy.N_CELLS)).hex()


def test_run_toy_rr_writes_expected_schema(tmp_path):
    spec = RunSpec()
    spec.set("run", "seeds", "0,1")
    spec.set("run", "out", str(tmp_path / "toy"))
    spec.set("optimizer", "epsilon", "0.0625")
    res = run_toy(spec)
    assert os.path.exists(res["runs"]) and os.path.exists(res["trace"])
    assert len(res["rows"]) == 2
    for row in res["rows"]:
        assert row["status"] == "ok"
        assert row["distance"] < 0.5
    header = open(res["runs"]).readline().strip().split(",")
    assert header == ["experiment", "optimizer", "seed", "x_hat",
                      "distance", "samples_spent", "status"]


def test_run_toy_rejects_unknown_optimizer(tmp_path):
    spec = RunSpec()
    spec.set("run", "optimizer", "adam")
    with pytest.raises(ConfigError):
        run_toy(spec)


def test_run_toy_rerun_is_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        spec = RunSpec()
        spec.set("run", "seeds", "0..2")
        spec.set("run", "out", str(tmp_path / name))
        spec.set("optimizer", "epsilon", "0.0625")
        res = run_toy(spec)
        outputs.append((open(res["runs"], "rb").read(),
                        open(res["trace"], "rb").read()))
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------ vqa runs

def test_build_instance_labels():
    spec = RunSpec()
    bandit, label = build_instance("pqc", 3, spec, SeededRng(0))
    assert label == "pqc-n3-l3"
    assert bandit.dimension == 9
    rng = SeededRng(1, key=(4,)).child(0)
    bandit, label = build_instance("qaoa", 4, spec, rng)
    assert label.startswith("qaoa-n4-m")
    assert bandit.graph.m >= 1
    with pytest.raises(ConfigError):
        build_instance("pqc", 0, spec, SeededRng(0))
    with pytest.raises(ConfigError):
        build_instance("qaoa", 1, spec, SeededRng(0))
    with pytest.raises(ConfigError):
        build_instance("mystery", 3, spec, SeededRng(0))


def test_empty_spec_builds_the_constructor_defaults():
    """With no [optimizer] key set, every config equals its constructor
    given only the runner's own defaults."""
    budget = 1_000_000
    vqa_expected = {
        "rr_powell": DriverConfig(budget=budget),
        "rr_reject": DriverConfig(budget=budget),
        "rr_aim": DriverConfig(acceptance="aim", budget=budget),
        # max_iters: as many +- pairs of 10_000 shots as the budget buys
        "spsa": SpsaConfig(max_iters=50, shots_per_eval=10_000,
                           budget=budget),
        "powell_brent": PowellBrentConfig(shots_per_eval=10_000,
                                          budget=budget),
    }
    assert {name: optimizer_config(RunSpec(), name, budget)
            for name in vqa.OPTIMIZERS} == vqa_expected
    assert set(toy.OPTIMIZERS) == {"rr", "spsa"}
    assert toy.OPTIMIZERS["rr"][0](RunSpec(), None) == (
        RRConfig(epsilon=2.0 ** -7, delta=0.1, lipschitz=WEDGE_SLOPE), None)
    cfg, start = toy.OPTIMIZERS["spsa"][0](RunSpec(), None)
    assert cfg == SpsaConfig(max_iters=200, shots_per_eval=100_000)
    assert start.tolist() == [0.5]


def test_empty_spec_builds_the_constructor_default_instances(
        tmp_path, monkeypatch):
    bandit, _ = build_instance("pqc", 3, RunSpec(), SeededRng(0))
    ref = PqcBandit(3)
    assert (bandit.layers, bandit.lipschitz) == (ref.layers, ref.lipschitz)
    bandit, _ = build_instance("qaoa", 6, RunSpec(), SeededRng(1))
    ref = QaoaBandit(erdos_renyi(6, SeededRng(1), 0.5))
    assert ((bandit.graph, bandit.layers, bandit.lipschitz)
            == (ref.graph, ref.layers, ref.lipschitz))
    built = []

    def recording_toy_bandit(**kwargs):
        built.append(kwargs)
        return make_toy_bandit(**kwargs)

    monkeypatch.setattr(toy, "make_toy_bandit", recording_toy_bandit)
    spec = RunSpec()
    spec.set("run", "out", str(tmp_path / "toy"))
    spec.set("optimizer", "epsilon", "0.0625")
    run_toy(spec)
    assert built == [{}]


def test_readme_spec_example_is_accepted(tmp_path):
    """README's ini example loads and builds its optimizer and instance."""
    with open(README, encoding="utf-8") as fh:
        example = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(example)
    spec = load_spec(str(path))
    run = spec.fields("run", optimizer=str, sizes=str, seeds=str,
                      budget=int, threshold=float, workers=int)
    config = optimizer_config(spec, run["optimizer"], run["budget"])
    assert (config.q, config.d_max) == (400, 1)
    build_instance("qaoa", expand_ints(run["sizes"], "run.sizes")[0], spec,
                   SeededRng(0))


def test_run_single_crosses_immediately_with_loose_threshold():
    spec = RunSpec()
    config = optimizer_config(spec, "rr_reject", 10_000)
    row = run_single("qaoa", "rr_reject", 3, 0, 0.99, config, spec)
    assert row["status"] == "crossed"
    assert row["n_total"] == 0
    assert row["samples_spent"] == 0
    assert row["oracle_evals"] == 1
    assert row["final_cost"] <= 0.99


def test_run_single_censors_on_tiny_budget():
    spec = RunSpec()
    config = optimizer_config(spec, "rr_reject", 5_000)
    row = run_single("qaoa", "rr_reject", 3, 0, 1e-9, config, spec)
    assert row["status"] == "censored"
    assert row["n_total"] == math.inf
    assert row["samples_spent"] <= 5_000


def test_run_single_budget_integrity():
    """The reported sample count is the bandit-interface pull count and
    stays within budget; the crossing oracle is ledgered separately."""
    spec = RunSpec()
    budget = 150_000
    config = optimizer_config(spec, "rr_reject", budget)
    row = run_single("qaoa", "rr_reject", 3, 1, 0.05, config, spec)
    assert row["samples_spent"] <= budget
    assert row["oracle_evals"] >= 1
    if row["status"] == "crossed":
        assert row["n_total"] == row["samples_spent"]
        assert row["final_cost"] <= 0.05
    again = run_single("qaoa", "rr_reject", 3, 1, 0.05, config, spec)
    assert again == row


def test_run_single_simulates_each_incumbent_once(monkeypatch):
    """Crossing checks at an unchanged incumbent and final_cost reuse its
    exact mean: mean runs once per distinct point, and oracle_evals still
    counts every check (8 here, as when each check simulated its point)."""
    simulated, checked = [], []
    exact_mean = _ShotBandit.mean

    def recording_mean(self, params):
        simulated.append(np.asarray(params).tobytes())
        return exact_mean(self, params)

    def recording_driver(bandit, start, cfg, rng, stop_condition):
        def stop(point):
            checked.append(point.tobytes())
            return stop_condition(point)
        return powell_driver(bandit, start, cfg, rng, stop_condition=stop)

    monkeypatch.setattr(_ShotBandit, "mean", recording_mean)
    monkeypatch.setattr(vqa, "powell_driver", recording_driver)
    spec = RunSpec()
    config = optimizer_config(spec, "rr_powell", 300_000)
    row = run_single("qaoa", "rr_powell", 5, 0, 1e-9, config, spec)
    assert row["oracle_evals"] == 1 + len(checked) == 8
    assert len(set(simulated)) == len(simulated) < row["oracle_evals"]
    assert set(simulated) == set(checked) | {simulated[0]}


def test_run_vqa_schema_and_aggregate_consistency(tmp_path):
    spec = RunSpec()
    spec.set("run", "optimizer", "rr_reject")
    spec.set("run", "sizes", "3")
    spec.set("run", "seeds", "0..3")
    spec.set("run", "budget", "150000")
    spec.set("run", "out", str(tmp_path / "q"))
    res = run_vqa("qaoa", spec)
    assert len(res["rows"]) == 4
    finite = [r for r in res["rows"] if math.isfinite(r["n_total"])]
    agg = res["aggregates"][0]
    assert agg["n_runs"] == 4
    assert agg["n_crossed"] == len(finite)
    assert os.path.exists(res["runs"]) and os.path.exists(res["aggregate"])


def test_run_vqa_worker_pool_matches_serial(tmp_path):
    rows = {}
    for workers, name in ((1, "serial"), (2, "pool")):
        spec = RunSpec()
        spec.set("run", "optimizer", "spsa")
        spec.set("run", "sizes", "3")
        spec.set("run", "seeds", "0..3")
        spec.set("run", "budget", "60000")
        spec.set("run", "workers", str(workers))
        spec.set("run", "out", str(tmp_path / name))
        rows[name] = run_vqa("qaoa", spec)["rows"]
    assert rows["serial"] == rows["pool"]


def test_run_vqa_validation():
    spec = RunSpec()
    spec.set("run", "optimizer", "sgd")
    with pytest.raises(ConfigError):
        run_vqa("qaoa", spec)
    spec = RunSpec()
    spec.set("run", "threshold", "1.5")
    with pytest.raises(ConfigError):
        run_vqa("pqc", spec)
    with pytest.raises(ConfigError):
        run_vqa("spin-glass", RunSpec())


# ------------------------------------------------------------- bounds

def test_run_bounds_wedge_row(tmp_path):
    spec = RunSpec()
    spec.set("run", "out", str(tmp_path / "b"))
    res = run_bounds(spec)
    row = res["rows"][0]
    assert row["instance"] == "wedge"
    assert row["lower"] == pytest.approx(
        bounds.lower_bound(bounds.wedge(), 2.0 ** -5, 0.1))
    assert row["lower"] <= row["upper"]
    assert abs(row["beta"]) < 1e-6


def test_run_bounds_reads_instance_files(tmp_path):
    inst = tmp_path / "tri.txt"
    inst.write_text("0.0 0.5\n0.25 0.0\n1.0 0.75\n")
    spec = RunSpec()
    spec.set("run", "instances", f"wedge, {inst}")
    spec.set("run", "out", str(tmp_path / "b"))
    res = run_bounds(spec)
    assert [r["instance"] for r in res["rows"]] == ["wedge", "tri.txt"]
    spec.set("run", "instances", str(tmp_path / "missing.txt"))
    with pytest.raises(ConfigError, match="missing.txt"):
        run_bounds(spec)


# ---------------------------------------------------------------- cli

def test_cli_toy_runs_and_exits_zero(tmp_path, capsys):
    code = main(["toy", "--seeds", "0", "--out", str(tmp_path / "t"),
                 "--set", "optimizer.epsilon=0.0625"])
    assert code == 0
    out = capsys.readouterr().out
    assert "runs.csv" in out and "trace.csv" in out


def test_cli_bounds_default_wedge(tmp_path, capsys):
    code = main(["bounds", "--out", str(tmp_path / "b")])
    assert code == 0
    assert os.path.exists(tmp_path / "b" / "bounds.csv")


def test_cli_config_errors_exit_two(tmp_path, capsys):
    assert main(["toy", "--optimizer", "adam",
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["qaoa", "--budget", "lots",
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["toy", str(tmp_path / "no-such-spec.ini")]) == 2


def test_cli_sizes_take_ranges_in_any_order(tmp_path, capsys):
    """--sizes 4,3,4 and --sizes 3..4 write the bytes --sizes 3,4 writes."""
    outputs = []
    for i, sizes in enumerate(("3,4", "4,3,4", "3..4")):
        out_dir = tmp_path / str(i)
        assert main(["qaoa", "--sizes", sizes, "--seeds", "1,0",
                     "--budget", "20000", "--out", str(out_dir)]) == 0
        outputs.append([(out_dir / name).read_bytes()
                        for name in ("runs.csv", "aggregate.csv")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("argv", [
    ["qaoa", "--set", "optimizer.epsilon_line=0.3"],
    ["pqc", "--optimizer", "spsa", "--set", "optimizer.c=0"],
    ["qaoa", "--optimizer", "powell_brent", "--set", "optimizer.max_iters=0"],
    ["qaoa", "--set", "instance.layers=0"],
    ["pqc", "--sizes", "1"],  # rr_powell on a one-parameter circuit
    ["toy", "--set", "optimizer.delta=-1"],
    ["toy", "--optimizer", "spsa", "--set", "optimizer.shots_per_eval=0"],
    ["toy", "--set", "instance.sigma=-1"],
    ["qaoa", "--sizes", "4", "--seeds", "0", "--set", "instance.edge_prob=0"],
    ["qaoa", "--optimizer", "spsa", "--set", "optimizer.shots_per_eval=0"],
    # keys the runner does not read
    ["pqc", "--set", "optimizer.dmax=3"],
    ["qaoa", "--optimizer", "spsa", "--set", "optimizer.q=3"],
    ["pqc", "--set", "instance.edge_prob=0.5"],
    ["toy", "--set", "optimizer.epsilom=0.0625"],
    ["qaoa", "--sizes", "2", "--seeds", "0",
     "--set", "instance.edge_prob=1e-12"],  # no edge in any capped draw
    # [run] keys the runner does not read, or a value it cannot honour
    ["qaoa", "--sizes", "2", "--seeds", "0", "--budget", "1000",
     "--set", "run.thresold=0.9"],
    ["pqc", "--set", "run.instances=wedge"],
    ["toy", "--set", "run.sizes=4"],
    ["toy", "--set", "run.workers=2"],  # toy runs its seeds serially
    ["bounds", "--set", "run.seeds=0..3"],
    ["qaoa", "--workers", "0"],
    ["qaoa", "--workers", "-3"],
    ["toy", "--budget", "-5"],  # 0 means no budget; below it is refused
    # driver values that would fail mid-run or void the acceptance rule
    ["qaoa", "--set", "optimizer.delta=-1"],
    ["qaoa", "--set", "optimizer.delta=0"],
    ["qaoa", "--set", "optimizer.delta=nan"],
    ["qaoa", "--set", "optimizer.delta=inf"],
    ["qaoa", "--set", "optimizer.lipschitz=inf"],
    ["qaoa", "--set", "optimizer.q=nan"],
    ["qaoa", "--set", "optimizer.max_steps=-2"],
    # non-finite rr, SPSA and Powell-Brent values, and negative tolerances
    ["toy", "--seeds", "0", "--set", "optimizer.delta=inf"],
    ["toy", "--seeds", "0", "--set", "optimizer.lipschitz=inf"],
    ["toy", "--optimizer", "spsa", "--seeds", "0", "--set", "optimizer.c=nan"],
    ["toy", "--optimizer", "spsa", "--seeds", "0",
     "--set", "optimizer.alpha=inf"],
    ["qaoa", "--optimizer", "spsa", "--sizes", "3", "--seeds", "0",
     "--budget", "100000", "--set", "optimizer.a=nan"],
    ["qaoa", "--optimizer", "spsa", "--sizes", "3", "--seeds", "0",
     "--budget", "100000", "--set", "optimizer.c=inf"],
    ["qaoa", "--optimizer", "powell_brent", "--sizes", "3", "--seeds", "0",
     "--budget", "100000", "--set", "optimizer.xtol=nan"],
    ["qaoa", "--optimizer", "powell_brent", "--sizes", "3", "--seeds", "0",
     "--budget", "100000", "--set", "optimizer.ftol=-1"],
])
def test_cli_rejected_config_values_exit_two(argv, tmp_path, capsys):
    """A value an optimizer config or an instance rejects, or a key its
    runner does not read, exits 2 as a configuration error, and no output
    is written."""
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_program_errors_propagate(tmp_path, monkeypatch):
    """A ValueError raised inside a run is a program error, not exit 2."""

    def broken(*job):
        raise ValueError("bug inside a run")

    monkeypatch.setattr(vqa, "run_single", broken)
    with pytest.raises(ValueError, match="bug inside a run"):
        main(["qaoa", "--sizes", "3", "--out", str(tmp_path / "q")])


def test_run_single_looks_the_driver_up_when_the_job_runs(monkeypatch):
    """A driver patched over the module global is the one a job runs."""
    called = []

    def recording_spsa(*args, **kwargs):
        called.append(True)
        return spsa(*args, **kwargs)

    spec = RunSpec()
    config = optimizer_config(spec, "spsa", 40_000)
    monkeypatch.setattr(vqa, "spsa", recording_spsa)
    run_single("qaoa", "spsa", 3, 0, 1e-9, config, spec)
    assert called


def test_cli_spec_file_with_overrides(tmp_path, capsys):
    spec = tmp_path / "toy.ini"
    spec.write_text("[run]\nseeds = 0\n[optimizer]\nepsilon = 0.125\n")
    out_dir = tmp_path / "runs"
    code = main(["toy", str(spec), "--set", f"run.out={out_dir}"])
    assert code == 0
    assert os.path.exists(out_dir / "runs.csv")
