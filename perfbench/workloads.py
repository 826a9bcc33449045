"""The benchmark's workloads: seeded harness runs and their output checks.

A workload is one call of a harness runner (run_vqa or run_toy) on a
seed range. The benchmark's --seed picks which range: seed s covers the
n_seeds run seeds starting at s * n_seeds, so two benchmark seeds never
share an instance.

The circuit workloads run every job to a fixed shot budget. Their
threshold is one no run reaches, so a job's work (line searches, states
built, shots) does not depend on the instance the seed draws, and a
run's wall time measures the program, not how many instances happened to
cross early. Whether a run's final incumbent is good is still reported,
as solved_ratio against the harness's default threshold.
"""

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

# exact expected costs of these circuits stay well above this
UNREACHED_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # "qaoa", "pqc" or "toy"
    optimizer: str
    n_seeds: int
    sizes: tuple = ()
    budget: int = 0  # 0: no budget (toy)
    optimizer_keys: dict = field(default_factory=dict)
    solved_threshold: float = 0.0  # final_cost bound for solved_ratio

    def seeds(self, seed):
        return range(seed * self.n_seeds, (seed + 1) * self.n_seeds)

    def spec(self, seed, out_dir):
        from rrbandit.harness import RunSpec

        seeds = self.seeds(seed)
        spec = RunSpec()
        spec.set("run", "optimizer", self.optimizer)
        spec.set("run", "seeds", f"{seeds.start}..{seeds.stop - 1}")
        spec.set("run", "out", out_dir)
        spec.set("run", "workers", "1")
        if self.experiment != "toy":
            spec.set("run", "sizes", ",".join(map(str, self.sizes)))
            spec.set("run", "budget", str(self.budget))
            spec.set("run", "threshold", repr(UNREACHED_THRESHOLD))
        for key, value in self.optimizer_keys.items():
            spec.set("optimizer", key, str(value))
        return spec

    def describe(self, seed):
        seeds = self.seeds(seed)
        parts = [self.experiment, self.optimizer]
        if self.sizes:
            parts.append("sizes " + ",".join(map(str, self.sizes)))
        parts.append(f"seeds {seeds.start}..{seeds.stop - 1}")
        if self.budget:
            parts.append(f"budget {self.budget}")
        parts += [f"{k} {v}" for k, v in self.optimizer_keys.items()]
        return ", ".join(parts)

    def jobs(self):
        return self.n_seeds * max(1, len(self.sizes))


# BENCHMARK.json says why each workload is there
WORKLOADS = {w.name: w for w in (
    Workload(
        "qaoa-narrow", "qaoa", "rr_powell", 4, sizes=(5, 6, 7, 8),
        budget=500_000, solved_threshold=0.2),
    Workload(
        "qaoa-wide", "qaoa", "rr_powell", 1, sizes=(14,), budget=500_000,
        solved_threshold=0.2),
    Workload(
        "pqc-spsa", "pqc", "spsa", 2, sizes=(12,), budget=10_000_000,
        optimizer_keys={"max_iters": 25}, solved_threshold=0.4),
    Workload(
        "toy-rr", "toy", "rr", 100),
)}


def digests(out_dir):
    """sha256 of every CSV the run wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_runs(out_dir):
    with open(os.path.join(out_dir, "runs.csv"), newline="",
              encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_runs(workload, seed, rows):
    """Count the jobs whose rows break an output invariant.

    Returns (failed, solved, samples): failed counts jobs with a missing,
    duplicated or invalid row; solved counts good final incumbents.
    """
    seeds = list(workload.seeds(seed))
    sizes = workload.sizes or (None,)
    expected = {(size, s) for size in sizes for s in seeds}
    seen = {}
    for row in rows:
        key = (int(row["size"]) if workload.sizes else None, int(row["seed"]))
        seen.setdefault(key, []).append(row)
    failed = sum(1 for key in expected if len(seen.get(key, ())) != 1)
    failed += sum(len(group) for key, group in seen.items()
                  if key not in expected)
    solved = samples = 0
    for key in expected:
        group = seen.get(key, ())
        if len(group) != 1:
            continue
        row = group[0]
        ok, good = (_check_toy(row) if workload.experiment == "toy"
                    else _check_vqa(workload, row))
        failed += not ok
        solved += ok and good
        samples += int(row["samples_spent"])
    return failed, solved, samples


def _check_vqa(workload, row):
    spent = int(row["samples_spent"])
    final = float(row["final_cost"])
    n_total = float(row["n_total"])
    if row["status"] == "crossed":
        ok = final <= UNREACHED_THRESHOLD and n_total == spent
    elif row["status"] == "censored":
        ok = math.isinf(n_total)
    else:
        ok = False
    ok = ok and 0 <= spent <= workload.budget and math.isfinite(final)
    return ok, final <= workload.solved_threshold


def _check_toy(row):
    from rrbandit.harness.toy import smooth_minimizer

    x_hat = float(row["x_hat"])
    distance = float(row["distance"])
    ok = (0.0 <= x_hat <= 1.0 and int(row["samples_spent"]) > 0
          and distance == abs(x_hat - smooth_minimizer()))
    return ok, distance <= 2.0 ** -7  # the runner's default epsilon


def run_pass(workload, spec):
    from rrbandit.harness import run_toy, run_vqa

    if workload.experiment == "toy":
        return run_toy(spec)
    return run_vqa(workload.experiment, spec)
