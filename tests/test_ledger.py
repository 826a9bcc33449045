"""One pull count per run: the drivers' own ledgers.

The runners report a driver's own count (samples_used, or rr.run's
total_samples on the toy) as samples_spent, and as n_total when a
circuit run crosses. These runs put the reference ledger, a
CountingBandit, between each driver and its bandit, and check that it
counted exactly the pulls the driver and the runner report: over every
circuit driver, budget stops, crossings, censored runs, starts that
cross, and the deeper line search with its depth-1 early stop.
"""

import csv
import math

import pytest

from rrbandit.harness import RunSpec, toy, vqa

from instances import CountingBandit

DEEP = {"d_max": 3, "early_stop_depth1": "yes"}

# (experiment, optimizer, budget, threshold, optimizer keys, outcome):
# "crossed" stops at the threshold, "budget" at the budget, "censored"
# at an iteration cap, and "start" crosses before the driver runs
CIRCUIT_CASES = [
    (experiment, optimizer, 2_000_000, 0.3, {}, "crossed")
    for experiment in vqa.VQA_EXPERIMENTS for optimizer in vqa.OPTIMIZERS
] + [
    ("qaoa", "rr_powell", 60_000, 1e-9, {}, "budget"),
    ("pqc", "powell_brent", 60_000, 1e-9, {}, "budget"),
    ("qaoa", "spsa", 3000, 1e-9, {}, "budget"),
    ("pqc", "spsa", 60_000, 0.3, {}, "censored"),
    ("qaoa", "rr_reject", 60_000, 0.99, {}, "start"),
    ("pqc", "powell_brent", 60_000, 0.99, {}, "start"),
    # a depth-2 line: at depth 3 this run's first line outspends the budget
    ("qaoa", "rr_reject", 2_000_000, 0.3, dict(DEEP, d_max=2), "crossed"),
    ("qaoa", "rr_powell", 2_000_000, 0.3, DEEP, "budget"),
    ("pqc", "rr_aim", 2_000_000, 1e-9, DEEP, "budget"),
]


def _case_id(case):
    experiment, optimizer, budget, threshold, keys, outcome = case
    deep = "-deep" if keys else ""
    return f"{experiment}-{optimizer}-{budget}{deep}-{outcome}"


@pytest.mark.parametrize("case", CIRCUIT_CASES,
                         ids=map(_case_id, CIRCUIT_CASES))
def test_circuit_runs_report_the_drivers_ledger(case, monkeypatch):
    experiment, optimizer, budget, threshold, keys, outcome = case
    ledgers = []
    name = vqa.OPTIMIZERS[optimizer][1]
    driver = getattr(vqa, name)

    def ledgered(bandit, *args, **kwargs):
        counting = CountingBandit(bandit)
        res = driver(counting, *args, **kwargs)
        ledgers.append((counting.count, res))
        return res

    monkeypatch.setattr(vqa, name, ledgered)
    spec = RunSpec()
    for key, value in keys.items():
        spec.set("optimizer", key, str(value))
    config = vqa.optimizer_config(spec, optimizer, budget)
    row = vqa.run_single(experiment, optimizer, 3, 0, threshold, config, spec)

    if outcome == "start":
        assert ledgers == []
        assert row["samples_spent"] == row["n_total"] == 0
        return
    ((count, res),) = ledgers
    assert count == res.samples_used == row["samples_spent"]
    assert (res.stopped_early, res.budget_exhausted) == {
        "crossed": (True, False), "budget": (False, True),
        "censored": (False, False)}[outcome]
    assert row["n_total"] == (count if outcome == "crossed" else math.inf)


@pytest.mark.parametrize("optimizer, budget, status", [
    ("rr", 0, "ok"), ("rr", 100_000, "budget"), ("rr", 1000, "budget"),
    ("spsa", 0, "ok"), ("spsa", 1_000_000, "budget"),
])
def test_toy_runs_report_the_drivers_ledger(optimizer, budget, status,
                                            monkeypatch, tmp_path):
    bandits = []
    make = toy.make_toy_bandit

    def counting_toy_bandit(**kwargs):
        bandits.append(CountingBandit(make(**kwargs)))
        return bandits[-1]

    monkeypatch.setattr(toy, "make_toy_bandit", counting_toy_bandit)
    spec = RunSpec()
    for key, value in (("optimizer", optimizer), ("seeds", "0"),
                       ("budget", str(budget)), ("out", str(tmp_path))):
        spec.set("run", key, value)
    with open(toy.run_toy(spec)["runs"], newline="") as fh:
        (row,) = csv.DictReader(fh)
    (counting,) = bandits
    assert row["status"] == status
    assert counting.count == int(row["samples_spent"])
