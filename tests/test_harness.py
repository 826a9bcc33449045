"""Spec parsing, runners, CSV emission, and the command-line surface."""

import csv
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from rrbandit import bounds, rr
from rrbandit.baselines import PowellBrentConfig, SpsaConfig, spsa
from rrbandit.harness import (ConfigError, RunSpec, aggregate, build_instance,
                              load_spec, parse_overrides, run_bounds,
                              run_single, run_toy, run_vqa)
from rrbandit.harness.cli import main
from rrbandit.harness.config import expand_ints
from rrbandit.harness.output import fmt_value, write_csv
from rrbandit.harness.toy import (WEDGE_SLOPE, make_toy_bandit,
                                  smooth_minimizer, smooth_profile,
                                  toy_objective)
from rrbandit.harness import toy, vqa
from rrbandit.harness.vqa import midpoint_quantile, optimizer_config
from rrbandit.lines import DriverConfig, powell_driver
from rrbandit.qsim import PqcBandit, QaoaBandit, costs, erdos_renyi
from rrbandit.qsim.costs import _ShotBandit
from rrbandit.rng import SeededRng
from rrbandit.rr import RRConfig

from instances import grid_points

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


# ----------------------------------------------------------- spec files

def test_expand_seeds():
    assert expand_ints("0..3, 7", "run.seeds") == [0, 1, 2, 3, 7]
    assert expand_ints("5", "run.seeds") == [5]
    assert expand_ints("4,2,2", "run.seeds") == [2, 4]
    for bad in ("", "a", "3..1", "-1", "1..x"):
        with pytest.raises(ConfigError, match=r"^run\.seeds: "):
            expand_ints(bad, "run.seeds")


def test_expand_ints_sorts_and_deduplicates_sizes():
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


def _isinstance_fmt_value(value):
    # fmt_value before its float fast path
    if isinstance(value, bool):
        return "1" if value else "0"
    if hasattr(value, "item"):
        return _isinstance_fmt_value(value.item())
    if isinstance(value, float):
        return repr(value)
    return str(value)


def test_fmt_value_fast_path_renders_as_before():
    values = [0.1, -0.0, 1e-300, 2.0 ** -1074, math.inf, -math.inf,
              np.float64(0.1), np.float64(math.inf), np.float32(0.1),
              np.int64(-3), np.bool_(True), True, False, 0, 12, -7,
              2 ** 70, "ok", "", "0.1"]
    for value in values:
        assert fmt_value(value) == _isinstance_fmt_value(value), value


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

# the smooth profile at cell centre i/20, from scalar calls, at index i - 1
_LEVELS = [float(smooth_profile(i / toy.N_CELLS))
           for i in range(1, toy.N_CELLS + 1)]


def _step(x):
    # the staircase at x, with its own cell index
    cell = min(max(math.floor(toy.N_CELLS * x + 0.5), 1), toy.N_CELLS)
    return _LEVELS[cell - 1]


def _formula_toy_objective(x):
    # the objective at one float, in Python float arithmetic
    x_star = smooth_minimizer()
    wedge = float(smooth_profile(x_star)) + WEDGE_SLOPE * abs(x - x_star)
    return min(_step(x), wedge)


def test_staircase_cells():
    """x reads the level of cell round(20 x), and the edge cells 1 and 20
    absorb the overhang."""
    xs = np.array([0.0, 0.024, 0.08, 0.974, 0.975, 1.0])
    cells = [1, 1, 2, 19, 20, 20]
    x_star = smooth_minimizer()
    wedge = float(smooth_profile(x_star)) + WEDGE_SLOPE * np.abs(xs - x_star)
    expect = np.minimum([_LEVELS[i - 1] for i in cells], wedge)
    assert toy_objective(xs).tolist() == expect.tolist()


def test_smooth_minimizer_frozen():
    x_star = smooth_minimizer()
    assert x_star == pytest.approx(0.867526208251332, abs=1e-9)
    assert smooth_profile(x_star) == pytest.approx(0.5122004280942126,
                                                   abs=1e-9)


def _profile_slope(x):
    return -(13.0 * math.cos(13.0 * x) * math.sin(27.0 * x)
             + 27.0 * math.sin(13.0 * x) * math.cos(27.0 * x)) / 4.0


def test_pinned_minimizer_is_bitwise_the_slope_root():
    """X_STAR is the root brentq finds for the profile's slope in the
    bracket a dense scan puts round the minimum, to the last bit."""
    grid = np.linspace(0.0, 1.0, 20001)
    i = int(np.argmin(smooth_profile(grid)))
    lo = grid[max(i - 2, 0)]
    hi = grid[min(i + 2, grid.size - 1)]
    reference = float(brentq(_profile_slope, lo, hi, xtol=1e-15))
    assert toy.X_STAR == reference
    assert smooth_minimizer() == reference
    assert toy._WEDGE_BASE == float(smooth_profile(toy.X_STAR))


def test_toy_objective_shape():
    x_star = smooth_minimizer()
    assert toy_objective(x_star) == pytest.approx(smooth_profile(x_star))
    # the notch is narrower than a cell but deeper than the best step
    assert toy_objective(x_star) < _step(x_star)
    # pointwise minimum of the step landscape and the notch, over an array
    v_star = float(smooth_profile(x_star))
    xs = np.linspace(0.0, 1.0, 97)
    expected = [min(_step(x), v_star + 2.0 * abs(x - x_star))
                for x in xs.tolist()]
    got = toy_objective(xs)
    assert got.shape == xs.shape
    assert got == pytest.approx(expected, abs=1e-12)
    # far from the minimizer the notch is irrelevant
    assert toy_objective(0.05) == _step(0.05)


def test_tabulated_toy_objective_is_bitwise_the_formula():
    """The array objective gives the bits of the scalar formula at every
    point, whatever the array's shape: the cell edges and their
    neighbours, the round 1-7 arm grids, and 200 000 uniform draws."""
    x_star = smooth_minimizer()
    edges = (np.arange(toy.N_CELLS + 1) - 0.5) / toy.N_CELLS
    xs = np.concatenate([
        np.linspace(0.0, 1.0, 20001), edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [x_star, np.nextafter(x_star, 0.0), np.nextafter(x_star, 1.0)]]
        + [grid_points(t, WEDGE_SLOPE) for t in range(1, 8)])
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    for x in xs.tolist():
        assert float(toy_objective(x)).hex() == _formula_toy_objective(x).hex()
    draws = SeededRng(5).random(200_000)
    for batch in (xs, draws):
        expect = np.array([_formula_toy_objective(x) for x in batch.tolist()])
        assert toy_objective(batch).tobytes() == expect.tobytes()
        # SPSA's (k, 1) points of the 1-d cube
        assert toy_objective(batch[:, None]).tobytes() == expect.tobytes()


def _clip_toy_objective(x):
    """toy_objective with np.clip for the cell clamp, as it was written."""
    x = np.asarray(x, dtype=np.float64)
    cell = np.clip(np.floor(toy.N_CELLS * x + 0.5), 1, toy.N_CELLS)
    wedge = toy._WEDGE_BASE + WEDGE_SLOPE * np.abs(x - toy.X_STAR)
    return np.minimum(toy._STAIRS[cell.astype(np.intp) - 1], wedge)


def test_toy_objective_is_bitwise_the_clip_form():
    edges = (np.arange(toy.N_CELLS + 1) - 0.5) / toy.N_CELLS
    xs = np.concatenate([
        [0.0, 1.0, toy.X_STAR], edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        SeededRng(9).random(10_000)])
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    assert toy_objective(xs).tobytes() == _clip_toy_objective(xs).tobytes()
    for x in xs[:100].tolist():
        assert (toy_objective(x).tobytes()
                == _clip_toy_objective(x).tobytes())


def test_run_toy_rr_writes_expected_schema(tmp_path):
    spec = RunSpec()
    spec.set("run", "seeds", "0,1")
    spec.set("run", "out", str(tmp_path / "toy"))
    spec.set("optimizer", "epsilon", "0.0625")
    res = run_toy(spec)
    assert sorted(res) == ["runs", "trace"]
    assert os.path.exists(res["runs"]) and os.path.exists(res["trace"])
    with open(res["runs"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["distance"]) < 0.5
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
    assert (bandit.layers, bandit.dimension) == (ref.layers, ref.dimension)
    bandit, _ = build_instance("qaoa", 6, RunSpec(), SeededRng(1))
    ref = QaoaBandit(erdos_renyi(6, SeededRng(1), 0.5))
    assert ((bandit.graph, bandit.layers, bandit.dimension)
            == (ref.graph, ref.layers, ref.dimension))
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
    assert (config.acceptance, config.d_max) == ("reject", 1)
    build_instance("qaoa", expand_ints(run["sizes"], "run.sizes")[0], spec,
                   SeededRng(0))


def test_readme_python_examples_run(capsys):
    """README's two python examples run as written; each prints one line."""
    with open(README, encoding="utf-8") as fh:
        blocks = [part.split("```", 1)[0]
                  for part in fh.read().split("```python\n")[1:]]
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, README, "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


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
    exact mean: oracle_evals counts every check (8 here, as when each
    check simulated its point), yet each distinct point asked for is
    simulated once and summed once. No point's full circuit is simulated
    twice in the run: the start's first draw, the repeated checks and
    the checks of accepted line minima, arms of the round just run, read
    what the bandit holds."""
    asked, checked, circuits, sums = [], [], [], []
    exact_mean = _ShotBandit.mean
    qaoa_state = QaoaBandit.state
    expected_reward = costs.expected_reward

    def recording_mean(self, params):
        asked.append(np.asarray(params).tobytes())
        return exact_mean(self, params)

    def recording_state(self, params, stop=None, prefix=None):
        if stop is None:
            circuits.extend(point.tobytes()
                            for point in params.reshape(-1, self.dimension))
        return qaoa_state(self, params, stop=stop, prefix=prefix)

    def recording_sum(probs, rewards):
        sums.append(probs.size)
        return expected_reward(probs, rewards)

    def recording_driver(bandit, start, cfg, rng, stop_condition):
        def stop(point):
            checked.append(point.tobytes())
            return stop_condition(point)
        return powell_driver(bandit, start, cfg, rng, stop_condition=stop)

    monkeypatch.setattr(_ShotBandit, "mean", recording_mean)
    monkeypatch.setattr(QaoaBandit, "state", recording_state)
    monkeypatch.setattr(costs, "expected_reward", recording_sum)
    monkeypatch.setattr(vqa, "powell_driver", recording_driver)
    spec = RunSpec()
    config = optimizer_config(spec, "rr_powell", 300_000)
    row = run_single("qaoa", "rr_powell", 5, 0, 1e-9, config, spec)
    assert row["oracle_evals"] == 1 + len(checked) == 8
    assert len(asked) == row["oracle_evals"] + 1  # and final_cost
    distinct = set(asked)
    assert distinct == set(checked) | {asked[0]}
    assert len(sums) == len(distinct) < row["oracle_evals"]
    assert len(circuits) > len(distinct)
    assert len(set(circuits)) == len(circuits)
    assert distinct <= set(circuits)


def test_a_run_seeds_one_generator_per_stream(monkeypatch, tmp_path):
    """Every round draws from its run's one stream, so no round seeds a
    generator: a toy rr run seeds one per seed, and a qaoa rr_powell job
    three, its instance's, its start's and its driver's."""
    seeded, rounds = [], []
    default_rng, run_round = np.random.default_rng, rr.run_round

    def recording_default_rng(seed=None):
        seeded.append((seed.entropy, seed.spawn_key))
        return default_rng(seed)

    def counting_run_round(*args, **kwargs):
        rounds.append(True)
        return run_round(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    monkeypatch.setattr(rr, "run_round", counting_run_round)
    spec = RunSpec()
    spec.set("run", "seeds", "0..2")
    spec.set("run", "out", str(tmp_path / "toy"))
    run_toy(spec)
    assert len(rounds) == 3 * 7
    assert seeded == [(0, (2,)), (1, (2,)), (2, (2,))]

    del seeded[:], rounds[:]
    spec = RunSpec()
    config = optimizer_config(spec, "rr_powell", 300_000)
    run_single("qaoa", "rr_powell", 5, 0, 1e-9, config, spec)
    assert len(rounds) > 3
    assert seeded == [(0, (5, 0)), (0, (5, 1)), (0, (5, 2))]


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


@pytest.mark.parametrize("value", ["0.1", "0", "-1", "nan", "inf"])
def test_run_bounds_refuses_a_bad_declared_lipschitz(tmp_path, value):
    """run.lipschitz must be finite, positive and at least every slope,
    for the wedge and for breakpoint files alike."""
    inst = tmp_path / "tri.txt"
    inst.write_text("0.0 0.5\n0.25 0.0\n1.0 0.75\n")
    for entry in ("wedge", str(inst)):
        spec = RunSpec()
        spec.set("run", "instances", entry)
        spec.set("run", "lipschitz", value)
        spec.set("run", "out", str(tmp_path / "b"))
        with pytest.raises(ConfigError, match="lipschitz"):
            run_bounds(spec)
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------- cli

def test_cli_toy_runs_and_exits_zero(tmp_path, capsys):
    code = main(["toy", "--seeds", "0", "--out", str(tmp_path / "t"),
                 "--set", "optimizer.epsilon=0.0625"])
    assert code == 0
    out = capsys.readouterr().out
    assert "runs.csv" in out and "trace.csv" in out


def test_cli_toy_rr_runs_a_large_finite_noise_scale(tmp_path):
    """A sigma whose every round's pull count is finite still runs."""
    out_dir = tmp_path / "t"
    assert main(["toy", "--seeds", "0", "--set", "instance.sigma=1e140",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "runs.csv").exists()


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
    ["qaoa", "--set", "optimizer.q=nan"],
    ["qaoa", "--optimizer", "rr_reject", "--set", "optimizer.q=400"],
    ["qaoa", "--optimizer", "rr_reject",
     "--set", "optimizer.raw_location_acceptance=yes"],
    ["pqc", "--set", "instance.lipschitz=0.5"],
    ["qaoa", "--set", "instance.lipschitz=0.5"],
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
    # a noise scale no pull count covers, and toy rr deltas for which
    # "with probability 1 - delta" promises nothing
    ["toy", "--seeds", "0", "--set", "instance.sigma=nan"],
    ["toy", "--seeds", "0", "--set", "instance.sigma=inf"],
    ["toy", "--seeds", "0", "--set", "optimizer.delta=1"],
    ["toy", "--seeds", "0", "--set", "optimizer.delta=5"],
    # a start off the unit interval, a declared Lipschitz constant off
    # (0, inf) or below the wedge's slope, and a fit with one radius
    ["toy", "--optimizer", "spsa", "--seeds", "0",
     "--set", "optimizer.start=nan"],
    ["toy", "--optimizer", "spsa", "--seeds", "0",
     "--set", "optimizer.start=2"],
    ["toy", "--optimizer", "spsa", "--seeds", "0",
     "--set", "optimizer.start=inf"],
    ["toy", "--optimizer", "spsa", "--seeds", "0",
     "--set", "optimizer.start=-inf"],
    ["bounds", "--set", "run.lipschitz=0.1"],
    ["bounds", "--set", "run.lipschitz=-1"],
    ["bounds", "--set", "run.lipschitz=0"],
    ["bounds", "--set", "run.lipschitz=nan"],
    ["bounds", "--set", "run.lipschitz=inf"],
    ["bounds", "--set", "run.radii=0.25,0.25,0.25"],
    # a noise scale whose deepest toy rr round needs more pulls per arm
    # than a float holds, with or without a budget that stops round 1
    ["toy", "--seeds", "0", "--set", "instance.sigma=1e300"],
    ["toy", "--seeds", "0", "--set", "instance.sigma=1e153"],
    ["toy", "--seeds", "0", "--budget", "1000",
     "--set", "instance.sigma=1e153"],
    # a Lipschitz constant whose round-1 grid holds more than 2**52 arms,
    # for rr and for the line drivers
    ["toy", "--set", "optimizer.lipschitz=1e300"],
    ["qaoa", "--sizes", "3", "--seeds", "0",
     "--set", "optimizer.lipschitz=1e300"],
    # a depth whose deepest toy rr round needs more pulls per arm than a
    # float holds even at sigma = 1: a subnormal epsilon, D = 503, where
    # the count overflows, and D = 511, where its level does
    ["toy", "--seeds", "0", "--set", "optimizer.epsilon=5e-324"],
    ["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -503!r}"],
    ["toy", "--seeds", "0", "--budget", "100000",
     "--set", f"optimizer.epsilon={2.0 ** -511!r}"],
    # an unbudgeted toy rr depth whose last round cannot be laid: round 41
    # searches a region narrower than EPSILON, at any noise scale, and
    # round 40 at L = 1000 a grid of more than 2**52 arms
    *(["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -41!r}",
       "--set", f"instance.sigma={sigma}"] for sigma in (0, 1, 6)),
    ["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -40!r}",
     "--set", "optimizer.lipschitz=1000"],
])
def test_cli_rejected_config_values_exit_two(argv, tmp_path, capsys):
    """A value an optimizer config or an instance rejects, or a key its
    runner does not read, exits 2 as a configuration error, and no output
    is written."""
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, key", [
    (["qaoa", "--optimizer", "rr_reject", "--set", "optimizer.q=400"],
     "optimizer.q"),
    (["qaoa", "--optimizer", "rr_reject",
      "--set", "optimizer.raw_location_acceptance=yes"],
     "optimizer.raw_location_acceptance"),
    (["pqc", "--set", "instance.lipschitz=0.5"], "instance.lipschitz"),
    (["qaoa", "--set", "instance.lipschitz=0.5"], "instance.lipschitz"),
    (["toy", "--optimizer", "spsa", "--set", "optimizer.start=nan"],
     "start"),
    (["bounds", "--set", "run.lipschitz=inf"], "lipschitz"),
    (["bounds", "--set", "run.radii=0.25,0.25,0.25"], "run.radii"),
    (["toy", "--seeds", "0", "--set", "instance.sigma=1e300"],
     "instance.sigma"),
    (["toy", "--set", "optimizer.lipschitz=1e300"], "lipschitz"),
    (["qaoa", "--sizes", "3", "--seeds", "0",
      "--set", "optimizer.lipschitz=1e300"], "lipschitz"),
    (["toy", "--seeds", "0", "--set", "optimizer.epsilon=5e-324"],
     "optimizer.epsilon"),
    (["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -503!r}"],
     "optimizer.epsilon"),
    (["toy", "--seeds", "0", "--budget", "100000",
      "--set", f"optimizer.epsilon={2.0 ** -511!r}"], "optimizer.epsilon"),
    *((["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -41!r}",
        "--set", f"instance.sigma={sigma}"], "optimizer.epsilon")
      for sigma in (0, 1, 6)),
    (["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -40!r}",
      "--set", "optimizer.lipschitz=1000"], "optimizer.epsilon"),
])
def test_cli_refusals_name_the_key(argv, key, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_cli_accepts_a_deep_epsilon_that_a_budget_stops(tmp_path):
    """Only round 1's grid is checked: a budget stops this run long before
    its round-60 grid, whose size no array could hold."""
    argv = ["toy", "--seeds", "0", "--budget", "1000000",
            "--set", "optimizer.epsilon=8.673617379884035e-19",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["toy", "--seeds", "0", "--budget", "100000",
     "--set", f"optimizer.epsilon={2.0 ** -502!r}"],
    ["qaoa", "--sizes", "3", "--seeds", "0",
     "--set", "optimizer.epsilon_line=5e-324"],
    ["toy", "--seeds", "0", "--set", f"optimizer.epsilon={2.0 ** -40!r}"],
], ids=["toy-D502", "qaoa-line-D1074", "toy-D40-unbudgeted"])
def test_cli_accepts_the_deepest_epsilons_it_can_count(argv, tmp_path):
    """At the default delta and lipschitz, round 502 is the deepest whose
    pull count per arm a float holds on the toy's full grid, and a budget
    stops the run long before it. A line search at the default d_max runs
    round 1 alone, so even the subnormal epsilon 2**-1074 runs. With no
    budget, the toy runs every round through 40, each laying only the
    arms in its surviving region."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [
    ["toy", "--seeds", "0", "--set", "optimizer.delta=5e-324"],
    ["toy", "--seeds", "0", "--set", "optimizer.delta=1e-310"],
    ["qaoa", "--sizes", "3", "--seeds", "0", "--set", "optimizer.delta=5e-324"],
    ["qaoa", "--sizes", "3", "--seeds", "0", "--set", "optimizer.delta=1e-310"],
], ids=["toy-5e-324", "toy-1e-310", "qaoa-5e-324", "qaoa-1e-310"])
def test_cli_accepts_a_tiny_delta(argv, tmp_path):
    """A delta so small that delta / (2^t n_arms) underflows, or its
    reciprocal overflows, still has a finite pull count."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("argv, status", [
    (["toy", "--seeds", "0", "--budget", "1000",
      "--set", "optimizer.lipschitz=1e8"], "budget"),
    (["qaoa", "--sizes", "3", "--seeds", "0",
      "--set", "optimizer.lipschitz=1e9"], "censored"),
], ids=["toy-L1e8", "qaoa-L1e9"])
def test_cli_counts_a_large_grid_before_laying_it(argv, status, tmp_path):
    """Round 1's grid holds 1.6e9 arms at toy L = 1e8, and a line's holds
    1.6e10 at L = 1e9: a round counts its arms and runs the budget test
    before it lays any, so both runs end under a 1 GiB address space."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rr.__file__)))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "rrbandit.harness.cli", *argv,
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == [status]


QAOA_REJECT = ["qaoa", "--sizes", "4", "--seeds", "0..1", "--budget", "300000",
               "--optimizer", "rr_reject"]
# the depth cap and the depth-1 early stop live in the line search that
# every rr_* driver shares, so each driver runs them
QAOA_POWELL = QAOA_REJECT[:-1] + ["rr_powell"]
QAOA_AIM = QAOA_REJECT[:-1] + ["rr_aim"]
# seeds whose runs take more than one step
QAOA_REJECT_LATE = ["qaoa", "--sizes", "4", "--seeds", "2..3", "--budget",
                    "300000", "--optimizer", "rr_reject"]
# a budget that outlasts several deep lines, and a seed (2) in which the
# early stop ends lines after round 1
QAOA_REJECT_DEEP = ["qaoa", "--sizes", "3", "--seeds", "0..3", "--budget",
                    "3000000", "--optimizer", "rr_reject"]
QAOA_AIM_DEEP = QAOA_REJECT_DEEP[:-1] + ["rr_aim"]


KEY_CASES = [
    (QAOA_REJECT, [], "optimizer.delta=0.5"),
    (QAOA_REJECT, [], "optimizer.lipschitz=1.5"),
    (QAOA_REJECT, [], "optimizer.wrap=truncated"),
    (QAOA_REJECT, [], "optimizer.d_max=2"),
    (QAOA_REJECT_LATE, [], "optimizer.max_steps=1"),
    (QAOA_REJECT_DEEP, ["optimizer.d_max=3"],
     "optimizer.early_stop_depth1=yes"),
    (QAOA_REJECT, ["optimizer.d_max=3"], "optimizer.epsilon_line=0.5"),
    (QAOA_POWELL, [], "optimizer.d_max=2"),
    (QAOA_POWELL, ["optimizer.d_max=3"], "optimizer.early_stop_depth1=yes"),
    (QAOA_AIM, [], "optimizer.d_max=2"),
    (QAOA_AIM_DEEP, ["optimizer.d_max=3"], "optimizer.early_stop_depth1=yes"),
    (QAOA_REJECT, [], "instance.layers=1"),
    (QAOA_REJECT, [], "instance.edge_prob=0.9"),
    (["pqc", "--sizes", "3"] + QAOA_REJECT[3:], [], "instance.layers=1"),
    (["toy", "--seeds", "0..1"], [], "instance.sigma=0.5"),
]


def _key_case_id(argv, key):
    """experiment-key, naming the driver when it is not rr_reject."""
    if argv[-1] in ("rr_powell", "rr_aim"):
        return f"{argv[0]}-{argv[-1]}-{key}"
    return f"{argv[0]}-{key}"


@pytest.mark.parametrize("argv, base, key", KEY_CASES,
                         ids=[_key_case_id(argv, key)
                              for argv, _, key in KEY_CASES])
def test_every_accepted_key_moves_an_output(argv, base, key, tmp_path):
    """Each [optimizer] key of the rr_* drivers and each [instance] key
    changes runs.csv: none is accepted and then left unread."""
    digests = []
    for name, sets in (("base", base), ("key", base + [key])):
        out_dir = tmp_path / name
        flags = [arg for pair in sets for arg in ("--set", pair)]
        assert main(argv + flags + ["--out", str(out_dir)]) == 0
        digests.append((out_dir / "runs.csv").read_bytes())
    assert digests[0] != digests[1]


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
