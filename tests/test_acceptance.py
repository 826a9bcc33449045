"""End-to-end acceptance checklist.

Eight independent criteria covering convergence on the staircase toy
problem, the PAC guarantee and budget bounds of the elimination learner,
exclusion soundness, the bound calculators against hand oracles, simulator
fidelity, the desk-scale circuit-optimization comparison, and byte-level
determinism of the harness. Each test registers one summary line that the
session prints as an "acceptance checklist" section.
"""

import math
import time

import numpy as np
import pytest

from rrbandit import bounds, rr
from rrbandit.bandits import GaussianBandit
from rrbandit.harness import RunSpec, run_bounds, run_toy, run_vqa
from rrbandit.harness.vqa import aggregate
from rrbandit.qsim import (PqcBandit, QaoaBandit, complete_graph, cut_values,
                           erdos_renyi)
from rrbandit.qsim.costs import _ShotBandit
from rrbandit.qsim.statevector import (apply_cz, apply_hadamard, apply_phase,
                                       apply_rotation, batch_size,
                                       probabilities, zero_state)
from rrbandit.rng import SeededRng

EPS_PAC = 2.0 ** -5
DELTA_PAC = 0.1
# 0.1 + 3 sigma binomial slack at 100 runs allows 19 failures
PAC_ALLOWED = math.floor((0.1 + 3.0 * math.sqrt(0.1 * 0.9 / 100.0)) * 100)

# independently hand-evaluated with exact fraction arithmetic; the library
# is wrong if it disagrees with these, not the other way around
HAND_ORACLES = [
    ((0.0, 0.25, 1.0), (0.5, 0.0, 0.75), None, 2.0 ** -4, 0.1,
     29.12770142637468, 209001385.62715563),
    ((0.0, 0.5, 1.0), (1.0, 0.0, 1.0), None, 2.0 ** -5, 0.05,
     102.1544705281911, 714747335.2214212),
    ((0.0, 0.2, 0.4, 1.0), (0.3, 0.1, 0.0, 0.9), 1.5, 2.0 ** -3, 0.2,
     3.701707198598431, 27791739.318693873),
]


def _pac_runs(sigma):
    """5 random unimodal instances x 100 elimination runs each at noise sigma.

    Returns (instance, failures, largest sample count) per instance.
    """
    gen = SeededRng(7, key=(2,))
    out = []
    for i in range(5):
        inst = bounds.random_unimodal(gen.child(i))
        cfg = rr.RRConfig(EPS_PAC, DELTA_PAC, inst.lipschitz)
        bandit = GaussianBandit(inst.value, lipschitz=inst.lipschitz,
                                sigma=sigma)
        failures = 0
        tau_max = 0
        for seed in range(100):
            x_hat, state = rr.run(bandit, cfg, SeededRng(seed, key=(i,)))
            if abs(x_hat - inst.x_star) > EPS_PAC:
                failures += 1
            tau_max = max(tau_max, state.total_samples)
        out.append((inst, failures, tau_max))
    return out


@pytest.fixture(scope="module")
def pac_runs():
    """_pac_runs at sigma = 1, shared between the PAC-failure criterion and
    the budget criterion so the 500 runs execute once."""
    return _pac_runs(1.0)


def test_criterion_1_toy_convergence(tmp_path, record_criterion):
    t0 = time.time()
    spec = RunSpec()
    spec.set("run", "seeds", "0..19")
    spec.set("run", "out", str(tmp_path / "rr"))
    rr_rows = run_toy(spec)["rows"]

    spec = RunSpec()
    spec.set("run", "optimizer", "spsa")
    spec.set("run", "seeds", "0..19")
    spec.set("run", "out", str(tmp_path / "spsa"))
    spsa_rows = run_toy(spec)["rows"]

    n_close = sum(row["distance"] <= 2.0 ** -7 for row in rr_rows)
    n_stuck = sum(row["distance"] > 0.05 for row in spsa_rows)
    elapsed = time.time() - t0
    ok = n_close >= 18 and n_stuck >= 18 and elapsed <= 600.0
    record_criterion(
        f"criterion 1 toy convergence: {'PASS' if ok else 'FAIL'} "
        f"(elimination within 2^-7 in {n_close}/20 runs, descent stuck in "
        f"{n_stuck}/20, {elapsed:.0f}s)")
    assert n_close >= 18
    assert n_stuck >= 18
    assert elapsed <= 600.0


def test_criterion_2_pac_guarantee(pac_runs, record_criterion):
    allowed = PAC_ALLOWED
    fail_counts = [failures for _, failures, _ in pac_runs]
    ok = all(f <= allowed for f in fail_counts)
    record_criterion(
        f"criterion 2 pac guarantee: {'PASS' if ok else 'FAIL'} "
        f"(failures per 100 runs {fail_counts}, allowed {allowed})")
    assert ok


def test_pac_guarantee_holds_for_noise_above_one():
    # sigma = 6 rewards are not 1-sub-Gaussian: rounds must pull 36x as often
    fail_counts = [failures for _, failures, _ in _pac_runs(6.0)]
    assert all(f <= PAC_ALLOWED for f in fail_counts), fail_counts


def test_criterion_3_budget_bounds(pac_runs, record_criterion):
    margins = []
    for inst, _, tau_max in pac_runs:
        upper = bounds.upper_bound(inst, EPS_PAC, DELTA_PAC)
        margins.append(tau_max / upper)
    within = all(m <= 1.0 for m in margins)

    # log-log regression of measured pulls against resolution on the
    # two-sided wedge, whose near-optimal covering numbers are flat
    inst = bounds.wedge()
    bandit = GaussianBandit(inst.value, lipschitz=inst.lipschitz, sigma=1.0)
    log_inv_eps, log_tau = [], []
    for d in range(3, 8):
        eps = 2.0 ** -d
        cfg = rr.RRConfig(eps, DELTA_PAC, inst.lipschitz)
        taus = [rr.run(bandit, cfg, SeededRng(seed))[1].total_samples
                for seed in range(5)]
        log_inv_eps.append(math.log(1.0 / eps))
        log_tau.append(math.log(np.mean(taus)))
    slope = float(np.polyfit(log_inv_eps, log_tau, 1)[0])
    slope_ok = 1.7 <= slope <= 2.3

    ok = within and slope_ok
    record_criterion(
        f"criterion 3 budget bounds: {'PASS' if ok else 'FAIL'} "
        f"(max measured/upper ratio {max(margins):.3f}, wedge scaling "
        f"exponent {slope:.3f} in [1.7, 2.3])")
    assert within
    assert slope_ok


def test_criterion_4_exclusion_soundness(record_criterion):
    t0 = time.time()
    gen = SeededRng(11, key=(4,))
    violations = 0
    for i in range(1000):
        inst = bounds.random_unimodal(gen.child(i))
        cfg = rr.RRConfig(EPS_PAC, DELTA_PAC, inst.lipschitz)
        bandit = GaussianBandit(inst.value, lipschitz=inst.lipschitz,
                                sigma=0.0)
        state = rr.RRState()
        rng = SeededRng(0)
        for _ in range(cfg.depth):
            state = rr.run_round(state, bandit, cfg, rng)
            if not rr.active_mask(state.surviving,
                                  np.array([inst.x_star]))[0]:
                violations += 1
    ok = violations == 0
    record_criterion(
        f"criterion 4 exclusion soundness: {'PASS' if ok else 'FAIL'} "
        f"({violations} violations over 1000 noise-free instances x 5 "
        f"rounds, {time.time() - t0:.0f}s)")
    assert violations == 0


def test_criterion_5_bound_formulas(record_criterion):
    worst_rel = 0.0
    for xs, vs, lips, eps, delta, lower, upper in HAND_ORACLES:
        inst = bounds.BoundInstance(xs, vs, lips)
        got_lower = bounds.lower_bound(inst, eps, delta)
        got_upper = bounds.upper_bound(inst, eps, delta)
        worst_rel = max(worst_rel,
                        abs(got_lower - lower) / lower,
                        abs(got_upper - upper) / upper)
        assert bounds.trivial_bound(eps) == eps * eps
    hand_ok = worst_rel <= 1e-9

    gen = SeededRng(5)
    order_ok = all(
        bounds.lower_bound(inst, EPS_PAC, DELTA_PAC)
        <= bounds.upper_bound(inst, EPS_PAC, DELTA_PAC)
        for inst in (bounds.random_unimodal(gen.child(i))
                     for i in range(1000)))

    grid = (np.arange(1_000_000) + 0.5) / 1_000_000
    gen = SeededRng(8, key=(5,))
    worst_abs = 0.0
    for i in range(25):
        inst = bounds.random_unimodal(gen.child(i))
        values = inst.value(grid)
        for t in range(1, 5):
            brute = float(np.mean((values > 2.0 ** -t)
                                  & (values <= 2.0 ** -(t - 1))))
            worst_abs = max(worst_abs,
                            abs(brute - bounds.level_set_measure(inst, t)))
    grid_ok = worst_abs <= 1e-5

    ok = hand_ok and order_ok and grid_ok
    record_criterion(
        f"criterion 5 bound formulas: {'PASS' if ok else 'FAIL'} "
        f"(hand-oracle rel err {worst_rel:.1e}, lower<=upper on 1000 random "
        f"instances: {order_ok}, level-measure grid err {worst_abs:.1e})")
    assert hand_ok
    assert order_ok
    assert grid_ok


class _OutcomeIndicator(_ShotBandit):
    """Fixed state psi whose shot reward is 1 on outcome z and 0 elsewhere,
    so an n-shot mean is the frequency of z among n shots. It is a
    one-step circuit: numerator 1 at z, denominator 1."""

    dimension = 1
    steps = 1
    step_of = np.zeros(1, dtype=np.int64)

    def __init__(self, psi, z):
        self.psi = psi
        self.rewards = np.zeros(psi.size)
        self.rewards[z] = 1.0
        self.numerators = np.zeros(psi.size, dtype=np.int64)
        self.numerators[z] = 1
        self.batch = batch_size(psi.size, psi.dtype)

    def state(self, params, stop=None, prefix=None):
        return np.broadcast_to(self.psi, params.shape[:-1] + self.psi.shape)


def test_criterion_6_simulator_fidelity(record_criterion):
    t0 = time.time()
    # norm conservation over a long random gate stream
    gate_rng = np.random.default_rng(20260814)
    n = 6
    state = zero_state(n)
    diag = gate_rng.standard_normal(1 << n)
    every_state = np.arange(1 << n)  # each basis state its own phase level
    worst_norm = 0.0
    for _ in range(100_000):
        kind = int(gate_rng.integers(0, 4))
        if kind == 0:
            state = apply_rotation(state, int(gate_rng.integers(0, n)),
                                   "xyz"[int(gate_rng.integers(0, 3))],
                                   float(gate_rng.uniform(0.0, 2.0 * math.pi)))
        elif kind == 1:
            state = apply_hadamard(state, int(gate_rng.integers(0, n)))
        elif kind == 2:
            q1, q2 = gate_rng.choice(n, size=2, replace=False)
            state = apply_cz(state, int(q1), int(q2))
        else:
            state = apply_phase(state, diag, every_state,
                                float(gate_rng.uniform(0.0, 2.0 * math.pi)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
    norm_ok = worst_norm <= 1e-10

    # shot frequencies against exact output distributions
    born_ok = True
    rng = SeededRng(42)
    for width in range(1, 5):
        psi = zero_state(width)
        for q in range(width):
            psi = apply_rotation(psi, q, "y",
                                 float(rng.uniform(0.0, 2.0 * math.pi)))
            psi = apply_rotation(psi, q, "z",
                                 float(rng.uniform(0.0, 2.0 * math.pi)))
        for q in range(width - 1):
            psi = apply_cz(psi, q, q + 1)
        probs = probabilities(psi)
        freqs = np.array([
            _OutcomeIndicator(psi, z).sample_mean(
                np.zeros(1), 1_000_000, rng.child(width, z))
            for z in range(psi.size)])
        slack = 5.0 * np.sqrt(probs * (1.0 - probs) / 1e6) + 1e-6
        born_ok = born_ok and bool(np.all(np.abs(freqs - probs) <= slack))

    # exact identities at special parameter points
    pqc_ok = all(
        PqcBandit(w).mean(np.zeros(PqcBandit(w).dimension)) == 0.0
        for w in range(1, 6))
    k3 = QaoaBandit(complete_graph(3))
    k3_ok = k3.mean(np.zeros(k3.dimension)) == 0.25

    # brute-force cut maximizer against an independent enumeration
    def independent_maxcut(graph):
        masks = np.arange(1 << graph.n, dtype=np.int64)
        cut = np.zeros(masks.size, dtype=np.int64)
        for u, v in graph.edges:
            cut += (masks >> u ^ masks >> v) & 1
        return int(cut.max())

    cut_ok = True
    for i in range(1000):
        g = erdos_renyi(2 + i % 11, SeededRng(i, key=(61,)),
                        (0.2, 0.5, 0.8)[i % 3])
        cut_ok = cut_ok and (int(cut_values(g).max())
                             == independent_maxcut(g))

    ok = norm_ok and born_ok and pqc_ok and k3_ok and cut_ok
    record_criterion(
        f"criterion 6 simulator fidelity: {'PASS' if ok else 'FAIL'} "
        f"(norm drift {worst_norm:.1e} over 1e5 gates, shot frequencies "
        f"5-sigma: {born_ok}, zero-angle identities: {pqc_ok and k3_ok}, "
        f"1000 cut maximizers: {cut_ok}, {time.time() - t0:.0f}s)")
    assert norm_ok
    assert born_ok
    assert pqc_ok
    assert k3_ok
    assert cut_ok


def test_criterion_7_circuit_optimization(tmp_path, record_criterion):
    t0 = time.time()
    spec = RunSpec()
    spec.set("run", "optimizer", "rr_powell")
    spec.set("run", "sizes", "5,6,7,8")
    spec.set("run", "seeds", "0..79")
    spec.set("run", "budget", "10000000")
    spec.set("run", "threshold", "0.2")
    spec.set("run", "workers", "8")
    spec.set("run", "out", str(tmp_path / "rr_powell"))
    res = run_vqa("qaoa", spec)

    agg80 = {a["size"]: a for a in res["aggregates"]}
    rows20 = [r for r in res["rows"] if r["seed"] < 20]
    agg20 = {a["size"]: a for a in aggregate(rows20)}
    medians_ok = all(agg80[s]["status"] == "ok"
                     and math.isfinite(agg80[s]["median"])
                     for s in (5, 6, 7, 8))

    spec = RunSpec()
    spec.set("run", "optimizer", "spsa")
    spec.set("run", "sizes", "5,6,7,8")
    spec.set("run", "seeds", "0..19")
    spec.set("run", "budget", "10000000")
    spec.set("run", "threshold", "0.2")
    spec.set("run", "workers", "8")
    spec.set("run", "out", str(tmp_path / "spsa"))
    spsa20 = {a["size"]: a for a in run_vqa("qaoa", spec)["aggregates"]}
    success_ok = all(agg20[s]["n_crossed"] >= spsa20[s]["n_crossed"]
                     for s in (5, 6, 7, 8))

    # flat-landscape proxy: cost variance over random parameters shrinks
    # with circuit width, the regime that starves finite-difference methods
    variances = []
    for width in range(4, 11):
        bandit = PqcBandit(width)
        thetas = SeededRng(0, key=(99,)).child(width).random(
            (200, bandit.dimension))
        variances.append(float(np.var([bandit.mean(t) for t in thetas])))
    bp_ok = all(a > b for a, b in zip(variances, variances[1:]))

    elapsed = time.time() - t0
    ok = medians_ok and success_ok and bp_ok and elapsed <= 28800.0
    record_criterion(
        f"criterion 7 circuit optimization: {'PASS' if ok else 'FAIL'} "
        f"(80-seed crossings "
        f"{[agg80[s]['n_crossed'] for s in (5, 6, 7, 8)]}/80 with finite "
        f"medians {[round(agg80[s]['median'], 1) for s in (5, 6, 7, 8)]}; "
        f"20-seed medians {[agg20[s]['median'] for s in (5, 6, 7, 8)]} with "
        f"crossings {[agg20[s]['n_crossed'] for s in (5, 6, 7, 8)]}/20 vs "
        f"descent baseline {[spsa20[s]['n_crossed'] for s in (5, 6, 7, 8)]}"
        f"/20; cost variance {variances[0]:.2e}->{variances[-1]:.2e} "
        f"monotone: {bp_ok}; {elapsed:.0f}s)")
    assert medians_ok
    assert success_ok
    assert bp_ok
    assert elapsed <= 28800.0


def test_criterion_8_determinism(tmp_path, record_criterion):
    identical = []

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    for name in ("t1", "t2"):
        spec = RunSpec()
        spec.set("run", "seeds", "0..2")
        spec.set("run", "out", str(tmp_path / name))
        spec.set("optimizer", "epsilon", "0.0625")
        res = run_toy(spec)
        identical.append((read(res["runs"]), read(res["trace"])))
    toy_ok = identical[0] == identical[1]

    identical = []
    for workers, name in ((1, "q1"), (2, "q2")):
        spec = RunSpec()
        spec.set("run", "optimizer", "rr_reject")
        spec.set("run", "sizes", "3")
        spec.set("run", "seeds", "0..1")
        spec.set("run", "budget", "150000")
        spec.set("run", "workers", str(workers))
        spec.set("run", "out", str(tmp_path / name))
        res = run_vqa("qaoa", spec)
        identical.append((read(res["runs"]), read(res["aggregate"])))
    vqa_ok = identical[0] == identical[1]

    identical = []
    for name in ("b1", "b2"):
        spec = RunSpec()
        spec.set("run", "out", str(tmp_path / name))
        identical.append(read(run_bounds(spec)["bounds"]))
    bounds_ok = identical[0] == identical[1]

    ok = toy_ok and vqa_ok and bounds_ok
    record_criterion(
        f"criterion 8 determinism: {'PASS' if ok else 'FAIL'} "
        f"(toy rerun byte-identical: {toy_ok}, circuit run serial vs "
        f"2-worker pool: {vqa_ok}, bound table rerun: {bounds_ok})")
    assert toy_ok
    assert vqa_ok
    assert bounds_ok
