"""Statevector simulator and circuit objectives against dense-matrix oracles.

The oracle here is plain numpy linear algebra: full 2^n x 2^n unitaries
built with kron and applied by matrix-vector product, written without any
of the package's gate kernels.
"""

import math

import numpy as np
import pytest

from rrbandit.bandits import CountingBandit
from rrbandit.qsim import (Graph, MAX_QUBITS, PqcBandit, QaoaBandit,
                           apply_cz, apply_hadamard, apply_phase,
                           apply_rotation, complete_graph,
                           cut_values, erdos_renyi, expected_reward,
                           maxcut_bruteforce, norm, num_qubits, path_graph,
                           probabilities, read_graph, write_graph,
                           zero_state, zeros_fractions)
from rrbandit.qsim.costs import TWO_PI
from rrbandit.qsim.statevector import batch_size
from rrbandit.rng import SeededRng


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def random_batch(n, k, rng):
    return np.stack([random_state(n, rng) for _ in range(k)])


def embed_1q(matrix, qubit, n):
    """Full-register unitary with basis bit i owned by qubit i."""
    u = np.eye(1, dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        u = np.kron(u, matrix if q == qubit else np.eye(2))
    return u


def rotation_matrix(axis, angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])


# ------------------------------------------------------------ gates

def test_zero_state():
    s = zero_state(3)
    assert s.shape == (8,)
    assert s[0] == 1.0 and np.all(s[1:] == 0.0)
    assert num_qubits(s) == 3
    for bad in (0, MAX_QUBITS + 1):
        with pytest.raises(ValueError):
            zero_state(bad)


def test_rotation_matches_dense_oracle():
    gen = SeededRng(10)
    for i in range(20):
        rng = gen.child(i)
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, n))
        axis = "xyz"[int(rng.integers(0, 3))]
        angle = float(rng.uniform(-7.0, 7.0))
        psi = random_state(n, rng)
        expect = embed_1q(rotation_matrix(axis, angle), q, n) @ psi
        got = apply_rotation(psi.copy(), q, axis, angle)
        assert np.allclose(got, expect, atol=1e-12)
        # a (k, 2^n) batch, one angle per state
        batch = random_batch(n, 3, rng)
        angles = rng.uniform(-7.0, 7.0, size=3)
        got = apply_rotation(batch.copy(), q, axis, angles)
        for j in range(3):
            expect = embed_1q(rotation_matrix(axis, angles[j]), q, n) @ batch[j]
            assert np.allclose(got[j], expect, atol=1e-12)


def test_hadamard_matches_dense_oracle():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    gen = SeededRng(11)
    for i in range(10):
        rng = gen.child(i)
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, n))
        psi = random_state(n, rng)
        assert np.allclose(apply_hadamard(psi.copy(), q),
                           embed_1q(h, q, n) @ psi, atol=1e-12)
        batch = random_batch(n, 3, rng)
        assert np.allclose(apply_hadamard(batch.copy(), q),
                           batch @ embed_1q(h, q, n).T, atol=1e-12)


def test_cz_matches_dense_oracle():
    gen = SeededRng(12)
    for i in range(10):
        rng = gen.child(i)
        n = int(rng.integers(2, 5))
        q1, q2 = rng.choice(n, size=2, replace=False)
        psi = random_state(n, rng)
        idx = np.arange(1 << n)
        diag = np.where(((idx >> q1) & 1) & ((idx >> q2) & 1), -1.0, 1.0)
        assert np.allclose(apply_cz(psi.copy(), int(q1), int(q2)),
                           diag * psi, atol=1e-12)
        batch = random_batch(n, 3, rng)
        assert np.allclose(apply_cz(batch.copy(), int(q1), int(q2)),
                           diag * batch, atol=1e-12)


def test_phase_matches_dense_oracle():
    rng = SeededRng(13)
    psi = random_state(3, rng)
    values = rng.standard_normal(8)
    angle = 1.37
    expect = np.exp(-1j * angle * values) * psi
    assert np.allclose(apply_phase(psi.copy(), values, angle), expect,
                       atol=1e-12)
    batch = random_batch(3, 4, rng)
    angles = np.array([1.37, -0.2, 0.0, 5.5])
    expect = np.exp(-1j * angles[:, None] * values) * batch
    assert np.allclose(apply_phase(batch.copy(), values, angles), expect,
                       atol=1e-12)
    # one angle for the whole batch
    assert np.allclose(apply_phase(batch.copy(), values, angle),
                       np.exp(-1j * angle * values) * batch, atol=1e-12)


def test_gate_argument_validation():
    psi = zero_state(2)
    with pytest.raises(ValueError):
        apply_rotation(psi, 2, "x", 0.1)
    with pytest.raises(ValueError):
        apply_rotation(psi, 0, "w", 0.1)
    with pytest.raises(ValueError):
        apply_cz(psi, 1, 1)
    with pytest.raises(ValueError):
        apply_phase(psi, np.zeros(3), 0.1)
    with pytest.raises(ValueError):  # per-state angles need a batch
        apply_rotation(psi, 0, "x", np.zeros(2))
    batch = zero_state(2, (3,))
    assert batch.shape == (3, 4) and np.all(batch[:, 0] == 1.0)
    with pytest.raises(ValueError):  # one angle per state
        apply_phase(batch, np.zeros(4), np.zeros(2))


def test_norm_conserved_by_random_gates():
    rng = SeededRng(14)
    psi = random_state(6, rng)
    for _ in range(500):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            apply_rotation(psi, int(rng.integers(0, 6)),
                           "xyz"[int(rng.integers(0, 3))],
                           float(rng.uniform(-np.pi, np.pi)))
        elif kind == 1:
            q1, q2 = rng.choice(6, size=2, replace=False)
            apply_cz(psi, int(q1), int(q2))
        else:
            apply_hadamard(psi, int(rng.integers(0, 6)))
        assert abs(norm(psi) - 1.0) < 1e-10
    assert probabilities(psi).sum() == pytest.approx(1.0, abs=1e-10)


def test_cut_values_match_independent_enumeration():
    """Cut tables and maxima against a per-edge count over every mask;
    the n = 17 and 18 graphs span more than one 2^16-mask chunk."""
    gen = SeededRng(51)
    for i, n in enumerate([2, 3, 5, 7, 9, 17, 18]):
        g = erdos_renyi(n, gen.child(i), 0.5 if n < 10 else 0.1)
        if g.m == 0:
            g = path_graph(n)
        masks = np.arange(1 << n, dtype=np.int64)
        expect = np.zeros(masks.size, dtype=np.int64)
        for u, v in g.edges:
            expect += ((masks >> u) & 1) != ((masks >> v) & 1)
        assert np.array_equal(cut_values(g), expect)
        assert maxcut_bruteforce(g) == int(expect.max())


# ---------------------------------------------------------- sampling

def circuit_bandit(family, n):
    if family == "qaoa":
        return QaoaBandit(erdos_renyi(n, SeededRng(80 + n), 0.6))
    return PqcBandit(n, layers=2)


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_sample_means_match_looped_sample_mean(family, n):
    """Batching leaves every state and every draw bit-for-bit unchanged.

    k covers a single arm, a line-search round of 16 arms, and a count
    that leaves a partly filled last batch.
    """
    bandit = circuit_bandit(family, n)
    root = SeededRng(90 + n)
    for k in (1, 16, batch_size(1 << n) + 5):
        points = root.child(k).random((k, bandit.dimension))
        states = bandit.state(points)
        for j in range(k):
            assert states[j].tobytes() == bandit.state(points[j]).tobytes()
        rngs = [root.child(k, j) for j in range(k)]
        batched = bandit.sample_means(points, 1000, rngs)
        rngs = [root.child(k, j) for j in range(k)]
        looped = [bandit.sample_mean(points[j], 1000, rngs[j])
                  for j in range(k)]
        assert batched.dtype == np.float64
        assert batched.tobytes() == np.array(looped).tobytes()


def test_sample_means_validation():
    bandit = QaoaBandit(complete_graph(3))
    points = np.full((2, bandit.dimension), 0.3)
    rngs = [SeededRng(0), SeededRng(1)]
    with pytest.raises(ValueError):
        bandit.sample_means(points, 0, rngs)
    with pytest.raises(ValueError):  # one stream per point
        bandit.sample_means(points, 10, rngs[:1])
    with pytest.raises(ValueError):
        bandit.sample_means(points[:, :3], 10, rngs)
    counting = CountingBandit(bandit)
    counting.sample_means(points, 10, rngs)
    assert counting.count == 20


@pytest.mark.parametrize("bandit", [
    QaoaBandit(complete_graph(3)),
    QaoaBandit(erdos_renyi(6, SeededRng(81), 0.5)),
    PqcBandit(2),
    PqcBandit(5, layers=1),
], ids=["qaoa3", "qaoa6", "pqc2", "pqc5"])
def test_shot_means_follow_the_born_distribution(bandit):
    """sample_mean and sample_means against the exact shot distribution.

    One shot's reward has mean mu and variance var under |psi|^2, so the
    n-shot mean has mean mu and variance var / n. Both estimates over
    reps replications must sit within 5 sigma of those.
    """
    shots, reps = 40, 3000
    params = SeededRng(82).random(bandit.dimension)
    probs = probabilities(bandit.state(params))
    probs = probs / probs.sum()
    mu = float(probs @ bandit.rewards)
    var = float(probs @ (bandit.rewards - mu) ** 2) / shots
    assert var > 0.0
    root = SeededRng(83)
    looped = np.array([bandit.sample_mean(params, shots, root.child(0, i))
                       for i in range(reps)])
    batched = bandit.sample_means(np.tile(params, (reps, 1)), shots,
                                  [root.child(1, i) for i in range(reps)])
    for est in (looped, batched):
        assert abs(est.mean() - mu) < 5.0 * math.sqrt(var / reps)
        # sd of a variance estimate is about var * sqrt(2 / reps)
        assert abs(est.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / reps)


# --------------------------------------------------------- objectives

def test_zeros_fractions():
    assert np.array_equal(zeros_fractions(2), [1.0, 0.5, 0.5, 0.0])
    assert zeros_fractions(3)[5] == pytest.approx(1.0 / 3.0)  # 101


def test_expected_reward_uniform_is_exact_mean():
    probs = np.full(8, 0.125)
    rewards = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    assert expected_reward(probs, rewards) == 0.75


def test_pqc_zero_angles_cost_exactly_zero():
    for n in (1, 2, 3, 5):
        bandit = PqcBandit(n)
        assert bandit.mean(np.zeros(bandit.dimension)) == 0.0


def test_pqc_single_qubit_half_turn():
    bandit = PqcBandit(1, layers=1)
    assert bandit.dimension == 1
    # parameter 0.5 scales to a pi y-rotation, flipping |0> to |1>
    assert bandit.mean(np.array([0.5])) == 1.0
    assert bandit.mean(np.array([0.25])) == pytest.approx(0.5)


def test_pqc_layer_defaults_and_validation():
    assert PqcBandit(3).dimension == 9
    assert PqcBandit(3, layers=2).dimension == 6
    with pytest.raises(ValueError):
        PqcBandit(2, layers=0)
    with pytest.raises(ValueError):
        PqcBandit(2).mean(np.zeros(3))
    with pytest.raises(ValueError):
        PqcBandit(2).mean(np.full(4, np.nan))


def test_qaoa_triangle_zero_angles_exact_quarter():
    """Uniform superposition scores the triangle at exactly 1/4.

    Six of the eight bipartitions cut 2 of 3 edges (the maximum); the two
    trivial ones cut none. All outcomes are equally likely at zero angles
    and the two reward values are 0 and 1, so the mean is exactly 2/8.
    """
    bandit = QaoaBandit(complete_graph(3), layers=2)
    assert sorted(bandit.cuts.tolist()) == [0, 0, 2, 2, 2, 2, 2, 2]
    assert bandit.maxcut == 2
    assert bandit.mean(np.zeros(4)) == 0.25


def test_qaoa_single_edge_matches_dense_oracle():
    graph = Graph(2, ((0, 1),))
    bandit = QaoaBandit(graph, layers=1)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    gen = SeededRng(33)
    for i in range(20):
        params = gen.child(i).random(2)
        gamma, beta = TWO_PI * params[0], TWO_PI * params[1]
        psi = np.zeros(4, dtype=np.complex128)
        psi[0] = 1.0
        psi = np.kron(h, h) @ psi
        cuts = np.array([0.0, 1.0, 1.0, 0.0])
        psi = np.exp(-1j * gamma * cuts) * psi
        rx = rotation_matrix("x", 2.0 * beta)
        psi = np.kron(rx, rx) @ psi
        expect = float(np.abs(psi) ** 2 @ (1.0 - cuts))
        assert bandit.mean(params) == pytest.approx(expect, abs=1e-12)


def test_qaoa_rejects_edgeless_graph():
    with pytest.raises(ValueError):
        QaoaBandit(Graph(3, ()))


def test_circuit_costs_are_one_periodic():
    gen = SeededRng(40)
    pqc = PqcBandit(3, layers=1)
    qaoa = QaoaBandit(complete_graph(3))
    for bandit in (pqc, qaoa):
        params = gen.random(bandit.dimension)
        base = bandit.mean(params)
        assert bandit.mean(params + 1.0) == pytest.approx(base, abs=1e-9)
        assert bandit.mean(params - 1.0) == pytest.approx(base, abs=1e-9)


def test_shot_mean_converges_to_exact_mean():
    bandit = QaoaBandit(complete_graph(3))
    params = np.array([0.13, 0.42, 0.77, 0.31])
    exact = bandit.mean(params)
    n = 100_000
    est = bandit.sample_mean(params, n, SeededRng(8))
    # rewards live in [0,1], so the n-shot mean has sd at most 1/(2 sqrt(n))
    assert abs(est - exact) <= 5.0 / (2.0 * math.sqrt(n))
    with pytest.raises(ValueError):
        bandit.sample_mean(params, 0, SeededRng(0))


# ------------------------------------------------------------- graphs

def test_graph_constructors():
    k4 = complete_graph(4)
    assert k4.m == 6
    p4 = path_graph(4)
    assert p4.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))  # unordered edge
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))  # duplicate
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))  # out of range


def test_maxcut_known_graphs():
    assert maxcut_bruteforce(complete_graph(3)) == 2
    assert maxcut_bruteforce(path_graph(4)) == 3
    assert maxcut_bruteforce(complete_graph(4)) == 4
    assert maxcut_bruteforce(Graph(2, ((0, 1),))) == 1


def independent_maxcut(graph):
    """Brute force over all bipartition bitmasks, no package kernels."""
    best = 0
    for mask in range(1 << graph.n):
        cut = sum(1 for u, v in graph.edges
                  if ((mask >> u) & 1) != ((mask >> v) & 1))
        best = max(best, cut)
    return best


def test_maxcut_matches_independent_enumeration():
    gen = SeededRng(50)
    for i in range(100):
        rng = gen.child(i)
        n = int(rng.integers(2, 9))
        g = erdos_renyi(n, rng, 0.5)
        if g.m == 0:
            continue
        assert maxcut_bruteforce(g) == independent_maxcut(g)
        table = cut_values(g)
        assert int(table.max()) == maxcut_bruteforce(g)
        # cut(z) is symmetric under complementing the mask
        assert np.array_equal(table, table[::-1])


def test_erdos_renyi_edge_statistics():
    n, pairs = 10, 45
    gen = SeededRng(60)
    counts = [erdos_renyi(n, gen.child(i), 0.3).m for i in range(400)]
    mean = np.mean(counts)
    se = math.sqrt(pairs * 0.3 * 0.7 / len(counts))
    assert abs(mean - pairs * 0.3) < 5 * se
    assert erdos_renyi(5, gen.child(9999), 0.0).m == 0
    assert erdos_renyi(5, gen.child(9998), 1.0).m == 10


def test_graph_file_round_trip(tmp_path):
    g = erdos_renyi(6, SeededRng(70), 0.5)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    assert read_graph(str(path)) == g


def test_read_graph_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 edge"):
        read_graph(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        read_graph(str(empty))
