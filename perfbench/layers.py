"""Where each layer of rrbandit is entered, and the per-layer metrics.

Every patch point names the module or class in which the caller looks the
name up, so the traced program runs unchanged apart from the wrapper.
The buckets group several entry points into one layer figure: the two
single-qubit gates, the two circuit families, both line drivers.

Which end-to-end metric each layer should move, with its share of traced
wall time (2-core Intel Xeon VM, 2 MB L2 per core, numpy 2.4 kernels, one
BLAS thread):

    layer figure         qaoa-narrow  qaoa-wide  pqc-spsa  toy-rr
    qsim.gate_1q_s           67 %        63 %      51 %      0
    qsim.gate_cz_s            0           0        40 %      0
    qsim.gate_phase_s         4 %        19 %       0        0
    qsim.circuit_s            7 %         2 %       4 %      0
    qsim.sample_s             9 %        11 %       2 %      0
    rng.stream_s              8 %         1 %       1 %     55 %
    rr.eliminate_s            4 %         1 %       0       14 %
    bandits.gaussian_s        0           0         0       30 %
    lines.drive_s, baselines.drive_s, harness.*: about 1 % or less

- Gate kernels set wall_s and samples_per_s on the three circuit
  workloads. On qaoa-narrow a gate touches 32-256 amplitudes, so its cost
  is per-call dispatch: batching a round's 16 arms should cut wall_s
  there. On qaoa-wide a 16-arm batch of 16384-amplitude states is 4 MB,
  more than L2, so the same change may gain little, lose, or raise
  peak_rss_mb. pqc-spsa evaluates single points, so batching arms should
  leave it unchanged; it is the only workload that runs the CZ kernel.
- rng.stream_s and the rr and bandits figures set wall_s on toy-rr,
  which runs no simulator: a qsim change should leave toy-rr unchanged.
- lines.accept_ratio explains changes in samples_per_s and solved_ratio
  when a change alters which moves the drivers accept.
- Harness imports set setup_s; the traced run does not measure it.
"""

import os

VQA = "rrbandit.harness.vqa"
TOY = "rrbandit.harness.toy"
COSTS = "rrbandit.qsim.costs"


def _gate(counters, args, result):
    counters["qsim.amp_updates"] += args[0].size


def _shots(counters, args, result):
    bandit, _, n = args[:3]
    counters["qsim.shots"] += int(n)
    counters["qsim.outcomes_drawn"] += bandit.rewards.size


def _round(counters, args, result):
    if not result.budget_exhausted:
        counters["rr.rounds"] += 1
        counters["rr.arms"] += result.trace[-1].n_active


def _driver(counters, args, result):
    counters["lines.steps"] += len(result.steps)
    counters["lines.accepted"] += sum(step.accepted for step in result.steps)


def _line(counters, args, result):
    counters["lines.line_searches"] += 1


def _iters(counters, args, result):
    counters["baselines.iters"] += len(result.steps)


def _csv(counters, args, result):
    counters["harness.csv_bytes"] += os.path.getsize(result)


# (owner, name, bucket, hook); the runner itself is the "harness" root span
PATCH_POINTS = (
    (COSTS, "apply_rotation", "qsim.gate_1q", _gate),
    (COSTS, "apply_hadamard", "qsim.gate_1q", _gate),
    (COSTS, "apply_cz", "qsim.gate_cz", _gate),
    (COSTS, "apply_phase", "qsim.gate_phase", _gate),
    (COSTS + ":QaoaBandit", "state", "qsim.circuit", None),
    (COSTS + ":PqcBandit", "state", "qsim.circuit", None),
    (COSTS + ":_ShotBandit", "sample_mean", "qsim.sample", _shots),
    (COSTS + ":_ShotBandit", "mean", "qsim.oracle", None),
    ("rrbandit.rng:SeededRng", "__init__", "rng.stream", None),
    ("rrbandit.rr", "run_round", "rr.eliminate", _round),
    ("rrbandit.bandits:GaussianBandit", "sample_mean", "bandits.gaussian",
     None),
    (VQA, "powell_driver", "lines.drive", _driver),
    (VQA, "random_direction_driver", "lines.drive", _driver),
    ("rrbandit.lines", "rr_line_search", "lines.drive", _line),
    (VQA, "spsa", "baselines.drive", _iters),
    (VQA, "powell_brent", "baselines.drive", _iters),
    (TOY, "spsa", "baselines.drive", _iters),
    (VQA, "build_instance", "harness.instance", None),
    (VQA, "write_csv", "harness.csv", _csv),
    (TOY, "write_csv", "harness.csv", _csv),
)

ROOT_BUCKET = "harness"

# (metric, unit, better); the order is the order of the report
PER_LAYER = (
    ("qsim.gate_1q_s", "s", "lower"),
    ("qsim.gate_1q_calls", "count", "lower"),
    ("qsim.gate_cz_s", "s", "lower"),
    ("qsim.gate_cz_calls", "count", "lower"),
    ("qsim.gate_phase_s", "s", "lower"),
    ("qsim.gate_phase_calls", "count", "lower"),
    ("qsim.amp_updates", "count", "lower"),
    ("qsim.amp_updates_per_s", "1/s", "higher"),
    ("qsim.circuit_s", "s", "lower"),
    ("qsim.states", "count", "lower"),
    ("qsim.sample_s", "s", "lower"),
    ("qsim.shots", "count", "lower"),
    ("qsim.outcomes_drawn", "count", "lower"),
    ("qsim.oracle_s", "s", "lower"),
    ("qsim.oracle_calls", "count", "lower"),
    ("rng.stream_s", "s", "lower"),
    ("rng.streams", "count", "lower"),
    ("rr.eliminate_s", "s", "lower"),
    ("rr.rounds", "count", "lower"),
    ("rr.arms", "count", "lower"),
    ("bandits.gaussian_s", "s", "lower"),
    ("bandits.gaussian_calls", "count", "lower"),
    ("lines.drive_s", "s", "lower"),
    ("lines.line_searches", "count", "lower"),
    ("lines.accept_ratio", "ratio", "higher"),
    ("baselines.drive_s", "s", "lower"),
    ("baselines.iters", "count", "lower"),
    ("harness.instance_s", "s", "lower"),
    ("harness.csv_s", "s", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_values(tracer):
    """Layer figures of one traced runner call.

    trace.overhead_ratio is not known here; the caller adds it.
    """
    s, calls, k = tracer.self_s, tracer.calls, tracer.counters
    gate_s = s["qsim.gate_1q"] + s["qsim.gate_cz"] + s["qsim.gate_phase"]
    steps = k["lines.steps"]
    out = {
        "qsim.gate_1q_s": s["qsim.gate_1q"],
        "qsim.gate_1q_calls": calls["qsim.gate_1q"],
        "qsim.gate_cz_s": s["qsim.gate_cz"],
        "qsim.gate_cz_calls": calls["qsim.gate_cz"],
        "qsim.gate_phase_s": s["qsim.gate_phase"],
        "qsim.gate_phase_calls": calls["qsim.gate_phase"],
        "qsim.amp_updates": k["qsim.amp_updates"],
        "qsim.circuit_s": s["qsim.circuit"],
        "qsim.states": calls["qsim.circuit"],
        "qsim.sample_s": s["qsim.sample"],
        "qsim.shots": k["qsim.shots"],
        "qsim.outcomes_drawn": k["qsim.outcomes_drawn"],
        "qsim.oracle_s": s["qsim.oracle"],
        "qsim.oracle_calls": calls["qsim.oracle"],
        "rng.stream_s": s["rng.stream"],
        "rng.streams": calls["rng.stream"],
        "rr.eliminate_s": s["rr.eliminate"],
        "rr.rounds": k["rr.rounds"],
        "rr.arms": k["rr.arms"],
        "bandits.gaussian_s": s["bandits.gaussian"],
        "bandits.gaussian_calls": calls["bandits.gaussian"],
        "lines.drive_s": s["lines.drive"],
        "lines.line_searches": k["lines.line_searches"],
        "baselines.drive_s": s["baselines.drive"],
        "baselines.iters": k["baselines.iters"],
        "harness.instance_s": s["harness.instance"],
        "harness.csv_s": s["harness.csv"],
        "harness.csv_bytes": k["harness.csv_bytes"],
        "harness.self_s": s[ROOT_BUCKET],
    }
    out["qsim.amp_updates_per_s"] = (k["qsim.amp_updates"] / gate_s
                                     if gate_s > 0 else 0.0)
    out["lines.accept_ratio"] = k["lines.accepted"] / steps if steps else 0.0
    return out
