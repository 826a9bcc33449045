"""Statevector simulator and circuit objectives against dense-matrix oracles.

The oracle here is plain numpy linear algebra: full 2^n x 2^n unitaries
built with kron and applied by matrix-vector product, written without any
of the package's gate kernels.
"""

import math

import numpy as np
import pytest

from rrbandit.qsim import (Graph, MAX_QUBITS, PqcBandit, QaoaBandit,
                           apply_cz, apply_hadamard, apply_phase,
                           apply_rotation, cut_values, erdos_renyi,
                           expected_reward, num_qubits, probabilities,
                           zero_state)
from rrbandit.qsim import costs
from rrbandit.qsim import statevector
from rrbandit.qsim.costs import (TWO_PI, cz_chain_signs, exact_sum,
                                 uniform_amplitude)
from rrbandit.qsim.statevector import BATCH_BYTES, y_product_state
from rrbandit.rng import SeededRng

from instances import CountingBandit, complete_graph, path_graph


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
    dense = np.arange(8)  # every basis state its own level
    angle = 1.37
    expect = np.exp(-1j * angle * values) * psi
    assert np.allclose(apply_phase(psi.copy(), values, dense, angle), expect,
                       atol=1e-12)
    batch = random_batch(3, 4, rng)
    angles = np.array([1.37, -0.2, 0.0, 5.5])
    expect = np.exp(-1j * angles[:, None] * values) * batch
    assert np.allclose(apply_phase(batch.copy(), values, dense, angles),
                       expect, atol=1e-12)
    # one angle for the whole batch
    assert np.allclose(apply_phase(batch.copy(), values, dense, angle),
                       np.exp(-1j * angle * values) * batch, atol=1e-12)
    # repeated levels gathered by index
    levels = values[:3]
    index = rng.integers(0, 3, size=8)
    assert np.allclose(apply_phase(psi.copy(), levels, index, angle),
                       np.exp(-1j * angle * levels[index]) * psi, atol=1e-12)


def per_amplitude_phase(state, values, angle):
    """The phase as exp of every amplitude's own value, one exp per entry."""
    angles = np.atleast_1d(np.asarray(angle, dtype=np.float64)).tolist()
    coef = np.array([-1j * a for a in angles])
    state.reshape(-1, state.shape[-1])[...] *= np.exp(coef[:, None] * values)
    return state


def test_phase_over_levels_is_bitwise_the_per_amplitude_exp():
    """Gathering exp of the levels gives the same bits as exp of every
    amplitude's value: for a cut table indexing the levels 0..maxcut, for
    maxcut - cut indexing the levels maxcut..0, as QaoaBandit does, and for
    a real-valued table and its distinct values."""
    gen = SeededRng(15)
    for n in range(2, 15):
        rng = gen.child(n)
        cuts = cut_values(erdos_renyi(n, rng, 0.5))
        reals = rng.choice(rng.uniform(-3.0, 3.0, size=n + 1), size=1 << n)
        for values, levels, index in (
                (cuts.astype(np.float64),
                 np.arange(cuts.max() + 1, dtype=np.float64), cuts),
                (reals, *np.unique(reals, return_inverse=True)),
                (cuts.astype(np.float64),
                 np.arange(cuts.max(), -1, -1, dtype=np.float64),
                 cuts.max() - cuts)):
            psi = random_state(n, rng)
            angle = float(rng.uniform(-7.0, 7.0))
            got = apply_phase(psi.copy(), levels, index, angle)
            assert got.tobytes() == per_amplitude_phase(
                psi.copy(), values, angle).tobytes()
            batch = random_batch(n, 16, rng)
            angles = rng.uniform(-7.0, 7.0, size=16)
            got = apply_phase(batch.copy(), levels, index, angles)
            assert got.tobytes() == per_amplitude_phase(
                batch.copy(), values, angles).tobytes()


def test_rotation_on_qubit_sequence_matches_per_qubit_calls():
    """One call on a qubit sequence (a list with repeats, or a range as
    the QAOA mixer passes) equals one call per qubit in that order."""
    gen = SeededRng(16)
    for i in range(20):
        rng = gen.child(i)
        n = int(rng.integers(1, 9))
        axis = "xyz"[i % 3]
        shuffled = rng.integers(0, n, size=2 * n).tolist()
        for qubits, state, angle in (
                (shuffled, random_state(n, rng), float(rng.uniform(-7, 7))),
                (range(n), random_batch(n, 5, rng), rng.uniform(-7, 7, 5))):
            expect = state.copy()
            for q in qubits:
                apply_rotation(expect, q, axis, angle)
            got = apply_rotation(state.copy(), qubits, axis, angle)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_per_qubit_angles_match_one_call_per_qubit(n):
    """A sequence call with one angle per state and qubit equals one
    single-qubit call per qubit in that order, bitwise: real and complex
    states, one state and 16, ascending, descending and repeated qubits.
    The sequence call runs its low qubits on a transposed copy, the
    single-qubit calls in place."""
    rng = SeededRng(200 + n)
    sequences = (list(range(n)), list(range(n - 1, -1, -1)),
                 rng.integers(0, n, size=2 * n).tolist())
    for batch in ((), (16,)):
        for axis, dtype in (("x", np.complex128), ("y", np.complex128),
                            ("z", np.complex128), ("y", np.float64)):
            shape = batch + (1 << n,)
            state = rng.standard_normal(shape)
            if dtype == np.complex128:
                state = state + 1j * rng.standard_normal(shape)
            for qubits in sequences:
                angles = rng.uniform(-7.0, 7.0, batch + (len(qubits),))
                expect = state.copy()
                for j, q in enumerate(qubits):
                    apply_rotation(expect, q, axis, angles[..., j])
                got = apply_rotation(state.copy(), qubits, axis, angles)
                assert got.dtype == dtype
                assert got.tobytes() == expect.tobytes()


def per_angle_entries(state, axis, angle, count):
    """The rotation entries as statevector._sequence_entries returns them,
    built from one tuple of Python numbers per angle."""
    def entries(a):
        c, s = math.cos(0.5 * a), math.sin(0.5 * a)
        if axis == "x":
            return (complex(c), complex(0.0, -s), complex(0.0, -s),
                    complex(c))
        if axis == "y":
            return (c, -s, s, c)
        return (complex(c, -s), 0j, 0j, complex(c, s))

    if np.ndim(angle) != state.ndim:
        angles, sets = np.ravel(angle).tolist(), 1
    else:
        angles = np.asarray(angle).reshape(-1, count).T.ravel().tolist()
        sets = count
    m = np.array([entries(a) for a in angles], dtype=state.dtype)
    out = m.T.reshape(4, sets, -1, 1, 1).transpose(1, 0, 2, 3, 4)
    return list(out) if sets == count else [out[0]] * count


def test_rotation_entries_are_the_per_angle_entries():
    """The entries built in one pass from arrays of cos and sin are
    bitwise those built one angle at a time, zero parts included: x, y
    and z axes, real and complex states, one angle, one per state and
    one per state and qubit, with angles at 0, -0.0 and multiples of
    pi/2 among random ones."""
    rng = SeededRng(230)
    special = [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, TWO_PI, 3.0]
    for n, count in ((1, 1), (3, 3), (5, 2)):
        for batch in ((), (6,)):
            shape = batch + (1 << n,)
            for axis, dtype in (("x", np.complex128), ("y", np.complex128),
                                ("z", np.complex128), ("y", np.float64)):
                state = np.zeros(shape, dtype=dtype)
                per_qubit = rng.uniform(-7.0, 7.0, batch + (count,))
                per_qubit.flat[:len(special)] = special[:per_qubit.size]
                angles = [float(rng.uniform(-7.0, 7.0)), -0.0, math.pi,
                          per_qubit]
                if batch:
                    angles.append(np.array(special[:batch[0]]))
                for angle in angles:
                    got = statevector._sequence_entries(state, axis, angle,
                                                        count)
                    expect = per_angle_entries(state, axis, angle, count)
                    assert len(got) == len(expect) == count
                    for g, e in zip(got, expect):
                        assert g.dtype == e.dtype
                        assert g.shape == e.shape
                        assert g.tobytes() == e.tobytes()


def mirrored(half):
    """The full state whose top-bit-0 half is half and which flipping
    every bit leaves unchanged."""
    return np.concatenate([half, half[..., ::-1]], axis=-1)


@pytest.mark.parametrize("n", range(2, 15))
def test_half_state_x_rotation_is_the_full_state_half(n):
    """An x-rotation sequence on a half state, with the top qubit mirrored,
    is bitwise the first half of the same call on the full state, and the
    full state stays bitwise mirror-symmetric: one state and 16, one angle
    and one per state, the mixer's qubit order and a shuffled one."""
    rng = SeededRng(230 + n)
    shuffled = rng.permutation(n).tolist()
    for batch, angle in (((), float(rng.uniform(-7.0, 7.0))),
                         ((16,), rng.uniform(-7.0, 7.0, 16))):
        shape = batch + (1 << (n - 1),)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for qubits in (range(n), shuffled):
            full = apply_rotation(mirrored(half), qubits, "x", angle)
            got = apply_rotation(half.copy(), qubits, "x", angle, half=True)
            assert full.tobytes() == full[..., ::-1].tobytes()
            assert mirrored(got).tobytes() == full.tobytes()


def test_half_state_validation():
    """A half state of n - 1 held qubits takes an x-rotation on qubits
    0..n-1 and refuses every other axis; a full state has no qubit n."""
    half = zero_state(3, (2,))
    with pytest.raises(ValueError):
        apply_rotation(half, 4, "x", 0.1, half=True)
    for axis in ("y", "z"):
        with pytest.raises(ValueError):
            apply_rotation(half, [0, 3], axis, 0.1, half=True)
    assert np.array_equal(half, zero_state(3, (2,)))
    with pytest.raises(ValueError):
        apply_rotation(half, 3, "x", 0.1)
    apply_rotation(half, 3, "x", 0.1, half=True)


def test_per_qubit_angle_validation():
    """Per-qubit angles need shape state.shape[:-1] + (len(qubits),), and a
    real state refuses them for an x or z rotation."""
    for batch in ((), (3,)):
        psi = zero_state(4, batch)
        for wrong in (batch + (3,), batch + (1,)):
            with pytest.raises(ValueError):
                apply_rotation(psi, [0, 1], "x", np.zeros(wrong))
        real = zero_state(4, batch, dtype=np.float64)
        for axis in ("x", "z"):
            with pytest.raises(ValueError):
                apply_rotation(real, [0, 3], axis, np.full(batch + (2,), 0.4))
        assert np.array_equal(psi, zero_state(4, batch))
        assert np.array_equal(real, zero_state(4, batch, dtype=np.float64))
    with pytest.raises(ValueError):  # per qubit, then per state
        apply_rotation(zero_state(4, (3,)), [0, 1], "x", np.zeros((2, 3)))


def test_gate_argument_validation():
    psi = zero_state(2)
    with pytest.raises(ValueError):
        apply_rotation(psi, 2, "x", 0.1)
    with pytest.raises(ValueError):
        apply_rotation(psi, 0, "w", 0.1)
    with pytest.raises(ValueError):
        apply_cz(psi, 1, 1)
    with pytest.raises(ValueError):  # one index per basis state
        apply_phase(psi, np.zeros(3), np.zeros(3, dtype=int), 0.1)
    with pytest.raises(ValueError):
        apply_rotation(psi, [0, 2], "x", 0.1)
    with pytest.raises(ValueError):  # per-state angles need a batch
        apply_rotation(psi, 0, "x", np.zeros(2))
    batch = zero_state(2, (3,))
    assert batch.shape == (3, 4) and np.all(batch[:, 0] == 1.0)
    with pytest.raises(ValueError):  # one angle per state
        apply_phase(batch, np.zeros(4), np.arange(4), np.zeros(2))


def test_real_state_takes_only_y_rotations():
    """An x or z rotation would drop a real state's imaginary parts."""
    for batch, angle in (((), 0.3), ((3,), np.array([0.3, -1.2, 2.0]))):
        psi = zero_state(2, batch, dtype=np.float64)
        for axis in ("x", "z"):
            with pytest.raises(ValueError):
                apply_rotation(psi, 0, axis, angle)
            with pytest.raises(ValueError):
                apply_rotation(psi, [0, 1], axis, angle)
        assert np.array_equal(psi, zero_state(2, batch, dtype=np.float64))
        got = apply_rotation(psi, [1, 0], "y", angle)
        assert got.dtype == np.float64
        expect = apply_rotation(zero_state(2, batch), [1, 0], "y", angle)
        assert got.tobytes() == expect.real.tobytes()


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
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    assert probabilities(psi).sum() == pytest.approx(1.0, abs=1e-10)


def test_cut_values_match_independent_enumeration():
    """Cut tables against a per-edge count over every mask;
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


# ---------------------------------------------------------- sampling

def circuit_bandit(family, n):
    if family == "qaoa":
        graph = erdos_renyi(n, SeededRng(80 + n), 0.6)
        return QaoaBandit(graph if graph.m else path_graph(n))  # n = 2
    return PqcBandit(n, layers=2)


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_sample_means_match_looped_sample_mean(family, n):
    """Batching leaves every state and every draw bit-for-bit unchanged:
    sample_means on one stream returns what sample_mean called on each
    point in order on that stream returns.

    k covers a single arm, a line-search round of 16 arms, and a count
    that leaves a partly filled last batch, so a batch boundary is
    crossed. n = 3, 8 and 14 cover 8 to 16384 outcomes per draw.
    """
    bandit = circuit_bandit(family, n)
    root = SeededRng(90 + n)
    for k in (1, 16, bandit.batch + 5):
        points = root.child(k).random((k, bandit.dimension))
        states = bandit.state(points)
        for j in range(k):
            assert states[j].tobytes() == bandit.state(points[j]).tobytes()
        batched = bandit.sample_means(points, 1000, root.child(k, 0))
        stream = root.child(k, 0)
        looped = [bandit.sample_mean(points[j], 1000, stream)
                  for j in range(k)]
        assert batched.dtype == np.float64
        assert batched.tobytes() == np.array(looped).tobytes()


def reference_qaoa_state(bandit, params):
    """QAOA circuit gate by gate: exp of every amplitude's cut value, and
    the mixer as one rotation call per qubit."""
    p = bandit.layers
    gammas = TWO_PI * params[..., :p]
    betas = TWO_PI * params[..., p:]
    cuts = cut_values(bandit.graph).astype(np.float64)
    state = zero_state(bandit.graph.n, params.shape[:-1])
    for q in range(bandit.graph.n):
        apply_hadamard(state, q)
    for layer in range(p):
        per_amplitude_phase(state, cuts, gammas[..., layer])
        for q in range(bandit.graph.n):
            apply_rotation(state, q, "x", 2.0 * betas[..., layer])
    return state


@pytest.mark.parametrize("n", range(2, 15))
def test_qaoa_state_matches_the_per_qubit_circuit(n):
    """QaoaBandit's half state, mirrored, is bitwise the full circuit's
    state, which is bitwise mirror-symmetric; at n = 2 the half state
    holds one qubit below the mirrored top. mean(), which sums over the
    half state, is bitwise expected_reward over the full probabilities."""
    bandit = circuit_bandit("qaoa", n)
    rng = SeededRng(95 + n)
    for points in (rng.random(bandit.dimension),
                   rng.random((16, bandit.dimension))):
        state = bandit.state(points)
        expect = reference_qaoa_state(bandit, points)
        assert state.shape == expect.shape[:-1] + (1 << (n - 1),)
        assert expect.tobytes() == expect[..., ::-1].tobytes()
        assert mirrored(state).tobytes() == expect.tobytes()
    for point, full in zip(points, expect):
        assert bandit.mean(point) == expected_reward(probabilities(full),
                                                     bandit.rewards)


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
def test_batches_fill_batch_bytes_by_the_simulated_state(family):
    """A batch holds as many simulated states as fit in BATCH_BYTES, by
    their real size: float64 PQC states, half QAOA states."""
    for n in range(2, 15):
        bandit = circuit_bandit(family, n)
        size = bandit.state(np.zeros(bandit.dimension)).nbytes
        assert bandit.batch == max(1, BATCH_BYTES // size)


def test_uniform_start_is_bitwise_the_hadamard_layer():
    """QaoaBandit's filled start equals H on every qubit of |0...0>."""
    for n in range(1, 15):
        for batch in ((), (16,)):
            expect = zero_state(n, batch)
            for q in range(n):
                apply_hadamard(expect, q)
            got = np.full(batch + (1 << n,), uniform_amplitude(n),
                          dtype=np.complex128)
            assert got.tobytes() == expect.tobytes()


def reference_pqc_state(bandit, params):
    """PQC circuit gate by gate on a complex state: one y-rotation call per
    qubit, then one apply_cz call per neighbor pair."""
    state = zero_state(bandit.n, params.shape[:-1])
    angles = TWO_PI * params
    k = 0
    for _ in range(bandit.layers):
        for q in range(bandit.n):
            apply_rotation(state, q, "y", angles[..., k])
            k += 1
        for q in range(bandit.n - 1):
            apply_cz(state, q, q + 1)
    return state


def test_cz_chain_signs_are_the_cz_chain_diagonal():
    for n in range(1, 11):
        expect = np.ones(1 << n, dtype=np.complex128)
        for q in range(n - 1):
            apply_cz(expect, q, q + 1)
        assert cz_chain_signs(n).tobytes() == expect.real.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_real_pqc_state_matches_the_complex_per_gate_circuit(n):
    """The float64 state with one sign multiply per layer is bitwise the
    real part of the complex circuit, whose imaginary parts are all zero,
    and gives the same probability bits; n = 1 has no CZ."""
    bandit = PqcBandit(n, layers=3)
    rng = SeededRng(110 + n)
    for points in (rng.random(bandit.dimension),
                   rng.random((16, bandit.dimension))):
        state = bandit.state(points)
        assert state.dtype == np.float64
        expect = reference_pqc_state(bandit, points)
        assert not np.any(expect.imag)
        assert state.tobytes() == expect.real.tobytes()
        assert (probabilities(state).tobytes()
                == probabilities(expect).tobytes())


def per_qubit_pqc_state(bandit, params, stop=None):
    """PqcBandit's state with its first layer, too, as one y-rotation
    call on |0...0>."""
    state = zero_state(bandit.n, params.shape[:-1], dtype=np.float64)
    angles = TWO_PI * params
    for layer in range(bandit.layers if stop is None else stop):
        k = layer * bandit.n
        apply_rotation(state, range(bandit.n), "y",
                       angles[..., k:k + bandit.n])
        state *= bandit.cz_signs
    return state


@pytest.mark.parametrize("n", range(1, 13))
def test_product_start_is_the_rotation_kernel(n):
    """The product-state first layer gives the states of the y-rotation
    kernel on |0...0>, up to the sign of a zero amplitude, and bitwise
    the same probabilities: 1 to 3 layers, after the first layer and
    after all, one point and a batch, with 30 % of the parameters at
    0, 1/4, 1/2, 3/4 or 1, where a cos or sin is 0 or nearly so."""
    rng = SeededRng(620 + n)
    special = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for layers in (1, 2, 3):
        bandit = PqcBandit(n, layers=layers)
        for shape in ((bandit.dimension,), (5, bandit.dimension)):
            points = rng.random(shape)
            chosen = rng.random(shape) < 0.3
            points[chosen] = special[rng.integers(0, 5, int(chosen.sum()))]
            for stop in (1, None):
                got = bandit.state(points, stop=stop)
                expect = per_qubit_pqc_state(bandit, points, stop)
                assert got.dtype == np.float64
                assert got.shape == expect.shape
                assert np.array_equal(got, expect)
                assert (probabilities(got).tobytes()
                        == probabilities(expect).tobytes())


def test_y_product_state_validation():
    with pytest.raises(ValueError):
        y_product_state(np.zeros(0))
    with pytest.raises(ValueError):
        y_product_state(np.zeros(MAX_QUBITS + 1))
    assert y_product_state(np.zeros((2, 3, 4))).shape == (2, 3, 16)


def test_sample_means_validation():
    bandit = QaoaBandit(complete_graph(3))
    points = np.full((2, bandit.dimension), 0.3)
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        bandit.sample_means(points, 0, rng)
    with pytest.raises(ValueError):  # one point, not a list of points
        bandit.sample_means(points[0], 10, rng)
    with pytest.raises(ValueError):
        bandit.sample_means(points[:, :3], 10, rng)
    assert bandit.sample_means(points[:0], 10, rng).shape == (0,)
    counting = CountingBandit(bandit)
    counting.sample_means(points, 10, rng)
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
    reps replications must sit within 5 sigma of those. The looped
    replications each draw from their own stream, the batched ones all
    from one.
    """
    shots, reps = 40, 3000
    params = SeededRng(82).random(bandit.dimension)
    probs = bandit.outcome_probabilities(probabilities(bandit.state(params)))
    probs = probs / probs.sum()
    mu = float(probs @ bandit.rewards)
    var = float(probs @ (bandit.rewards - mu) ** 2) / shots
    assert var > 0.0
    root = SeededRng(83)
    looped = np.array([bandit.sample_mean(params, shots, root.child(0, i))
                       for i in range(reps)])
    batched = bandit.sample_means(np.tile(params, (reps, 1)), shots,
                                  root.child(1))
    for est in (looped, batched):
        assert abs(est.mean() - mu) < 5.0 * math.sqrt(var / reps)
        # sd of a variance estimate is about var * sqrt(2 / reps)
        assert abs(est.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / reps)


def prefix_bandit(family, n):
    """A QAOA of 1, 2 or 3 layers ('qaoa1'..'qaoa3'), or a 3-layer PQC."""
    if family == "pqc":
        return PqcBandit(n, layers=3)
    return QaoaBandit(erdos_renyi(n, SeededRng(80 + n), 0.6),
                      layers=int(family[-1]))


def sharing_points(bandit, k, shared, rng):
    """k random points whose parameters of the first `shared` circuit
    steps all equal those of the first point; of the next step's, only
    the last point's differ."""
    points = rng.random((k, bandit.dimension))
    points[:, bandit.step_of < shared] = points[0, bandit.step_of < shared]
    points[:-1, bandit.step_of == shared] = points[0,
                                                   bandit.step_of == shared]
    return points


@pytest.mark.parametrize("family", ["qaoa1", "qaoa2", "qaoa3", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_sample_means_states_are_the_per_point_states(family, n,
                                                      monkeypatch):
    """sample_means simulates the steps its points share once and starts
    every batch from copies of that state; each state it scores is
    bitwise state(point), and points that share every step are one point,
    simulated and scored once. Points share 0, 1, ..., all steps; k = 1,
    16 and batch + 5, so a batch boundary is crossed and the prefix is
    shared across batches. Each step is one call, a gate or the PQC's
    product-state first layer, which sees the prefix's steps on one state
    and every later step on each point's. Each call goes to a fresh
    bandit, which holds no earlier simulation."""
    bandit = prefix_bandit(family, n)
    scored, gate_states = [], []
    monkeypatch.setattr(costs, "probabilities", lambda state: (
        scored.append(state.copy()), probabilities(state))[1])
    # y_product_state takes angles, (k, n) on a batch, as its first argument
    for name in ("apply_phase", "apply_rotation", "y_product_state"):
        gate = getattr(costs, name)
        monkeypatch.setattr(costs, name, lambda state, *args, gate=gate,
                            **kwargs: (
            gate_states.append(len(state) if state.ndim == 2 else 1),
            gate(state, *args, **kwargs))[1])
    root = SeededRng(300 + n)
    for shared in range(bandit.steps + 1):
        for k in (1, 16, bandit.batch + 5):
            points = sharing_points(bandit, k, shared, root.child(shared, k))
            scored.clear()
            gate_states.clear()
            prefix_bandit(family, n).sample_means(points, 10,
                                                  root.child(shared, k, 0))
            states = np.concatenate([s.reshape(-1, s.shape[-1])
                                     for s in scored])
            start = bandit.steps if k == 1 else shared
            assert sum(gate_states) == start + k * (bandit.steps - start)
            assert len(states) == (1 if start == bandit.steps else k)
            for j in range(k):
                assert (states[j % len(states)].tobytes()
                        == bandit.state(points[j]).tobytes())


def recorded_states(monkeypatch, bandit):
    """Record bandit's state() calls as (stop, copy of the result); calls
    on other bandits of its class go through unrecorded."""
    calls = []
    state = type(bandit).state

    def recording(self, params, stop=None, prefix=None):
        out = state(self, params, stop=stop, prefix=prefix)
        if self is bandit:
            calls.append((stop, out.copy()))
        return out

    monkeypatch.setattr(type(bandit), "state", recording)
    return calls


def four_step_bandit(family, n):
    """A 2-layer QAOA or a 4-layer PQC: four steps either way."""
    if family == "pqc":
        return PqcBandit(n, layers=4)
    return prefix_bandit("qaoa2", n)


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_mean_at_a_held_point_is_the_fresh_mean(family, n, monkeypatch):
    """mean() at the lowest-scoring point of the last sample_means call
    (the first minimum, as np.argmin picks it), or at the last point
    mean() asked for, reads the held probabilities instead of calling
    state(), and returns bitwise what a fresh bandit returns. Every other
    point of the call, a tied minimum after the first among them, is not
    held. A point one ulp away, or with -0.0 for 0.0, is not held."""
    bandit = four_step_bandit(family, n)
    calls = recorded_states(monkeypatch, bandit)
    points = SeededRng(500 + n).random((bandit.batch + 5, bandit.dimension))
    values = bandit.sample_means(points, 10, SeededRng(501))
    low = int(np.argmin(values))
    calls.clear()
    fresh = four_step_bandit(family, n).mean(points[low])
    assert bandit.mean(points[low]).hex() == fresh.hex()
    assert calls == []
    bandit.sample_means(points, 10, SeededRng(501))
    others = [j for j in range(len(points)) if j != low]
    for j in others[:3] + others[3:][-3:]:
        calls.clear()
        fresh = four_step_bandit(family, n).mean(points[j])
        assert bandit.mean(points[j]).hex() == fresh.hex()
        assert bandit.mean(points[j]).hex() == fresh.hex()
        assert len(calls) == 1
    point = points[0].copy()
    point[0] = 0.0
    for moved in (0, 1):
        if moved:
            point[1] = np.nextafter(point[1], 2.0)
        for zero in (0.0, -0.0, 0.0):
            point[0] = zero
            calls.clear()
            fresh = four_step_bandit(family, n).mean(point)
            assert bandit.mean(point).hex() == fresh.hex()
            assert bandit.mean(point).hex() == fresh.hex()
            assert len(calls) == 1


def test_sample_means_holds_the_first_minimum(monkeypatch):
    """Of tied lowest-scoring points, sample_means holds the first, as
    np.argmin picks it; the others are simulated again. Here the ties are
    all-zero points, which score exactly 0, with -0.0 for 0.0 in one
    parameter, so no two have the same bytes; one lies in a later batch.
    A call whose only zero point lies in its last batch holds that one."""
    bandit = PqcBandit(3, layers=2)
    calls = recorded_states(monkeypatch, bandit)
    rng = SeededRng(505)
    points = rng.random((bandit.batch + 5, bandit.dimension))
    tied = [3, 7, bandit.batch + 2]
    points[tied] = 0.0
    points[7, 0] = points[bandit.batch + 2, 1] = -0.0
    for case in range(2):
        values = bandit.sample_means(points, 1000, rng.child(case))
        zeros = np.flatnonzero(values == 0.0).tolist()
        assert zeros == tied[case * 2:]
        calls.clear()
        assert bandit.mean(points[zeros[0]]) == 0.0
        assert calls == []
        for j in zeros[1:]:
            assert bandit.mean(points[j]) == 0.0
        assert len(calls) == len(zeros) - 1
        bandit.mean(points[0])  # the last mean() point is held too
        points[tied[:2]] = rng.child(2).random((2, bandit.dimension))


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_draws_at_held_points_are_the_cold_draws(family, n, monkeypatch):
    """A sample_means call whose every point is held draws from the held
    probabilities without calling state(), and draws bitwise what a
    bandit that holds nothing draws on the same stream: the last call's
    lowest-scoring point and the last mean() point, repeated to batch + 5
    points, so the read crosses a batch boundary, and the last mean()
    point alone (the start's first draw)."""
    bandit = four_step_bandit(family, n)
    calls = recorded_states(monkeypatch, bandit)
    root = SeededRng(510 + n)
    points = root.child(0).random((bandit.batch + 5, bandit.dimension))
    low = points[np.argmin(bandit.sample_means(points, 10, root.child(1)))]
    start = root.child(2).random(bandit.dimension)
    calls.clear()
    bandit.mean(start)
    assert len(calls) == 1
    again = np.resize(np.stack([low, start, low]),
                      (bandit.batch + 5, bandit.dimension))
    warm = bandit.sample_means(again, 1000, root.child(3))
    warm_start = bandit.sample_mean(start, 1000, root.child(4))
    assert len(calls) == 1
    cold = four_step_bandit(family, n).sample_means(again, 1000,
                                                    root.child(3))
    assert warm.tobytes() == cold.tobytes()
    cold_start = four_step_bandit(family, n).sample_mean(start, 1000,
                                                         root.child(4))
    assert warm_start.hex() == cold_start.hex()


@pytest.mark.parametrize("family", ["qaoa", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_prefix_continues_from_held_step_states(family, n, monkeypatch):
    """Rounds whose first point is a base point, and whose points share
    its first `stop` steps, continue the base's prefix from the deepest held step state whose
    step parameters, and every earlier step's, match bit for bit. Stops
    2, then 1, then 3 at one base run prefix steps 0-1, none, then step 2;
    a base one ulp away in a step-0 parameter, or with -0.0 for 0.0,
    matches nothing and runs them all. Every state scored and every draw
    is bitwise what a fresh bandit gives."""
    bandit = four_step_bandit(family, n)
    calls = recorded_states(monkeypatch, bandit)
    root = SeededRng(520 + n)
    base = root.child(0).random(bandit.dimension)
    first = np.flatnonzero(bandit.step_of == 0)[0]
    ulp = base.copy()
    ulp[first] = np.nextafter(ulp[first], 2.0)
    zero, negative = base.copy(), base.copy()
    zero[first], negative[first] = 0.0, -0.0
    for case, (at, stop, runs) in enumerate([
            (base, 2, 2), (base, 1, 0), (base, 3, 1), (ulp, 3, 3),
            (ulp, 2, 0), (base, 3, 3), (zero, 2, 2), (negative, 2, 2),
            (negative, 3, 1), (zero, 1, 1)]):
        points = root.child(1, case).random((16, bandit.dimension))
        points[:, bandit.step_of < stop] = at[bandit.step_of < stop]
        points[0] = at
        calls.clear()
        warm = bandit.sample_means(points, 1000, root.child(2, case))
        assert sum(1 for end, _ in calls if end is not None) == runs
        scored = np.concatenate([s for end, s in calls if end is None])
        fresh = four_step_bandit(family, n)
        assert scored.tobytes() == fresh.state(points).tobytes()
        cold = fresh.sample_means(points, 1000, root.child(2, case))
        assert warm.tobytes() == cold.tobytes()


class RecordingRng:
    """Passes multinomial calls on to rng and keeps each pvals array."""

    def __init__(self, rng):
        self.rng = rng
        self.pvals = []

    def multinomial(self, n, pvals):
        self.pvals.append(pvals.copy())
        return self.rng.multinomial(n, pvals)


@pytest.mark.parametrize("family", ["qaoa2", "pqc"])
@pytest.mark.parametrize("n", [3, 8, 14])
def test_level_probabilities_are_the_outcome_probabilities_by_level(family,
                                                                    n):
    """Each point's multinomial runs over the levels 0..denominator with
    the probabilities of its outcomes summed by reward numerator, to
    1e-15 relative to the row's total. bincount adds a level's terms one
    by one, not correctly rounded, so relative to a single level the
    error grows with its term count (3e-15 seen at n = 14)."""
    bandit = prefix_bandit(family, n)
    rng = RecordingRng(SeededRng(400 + n))
    points = SeededRng(410 + n).random((5, bandit.dimension))
    bandit.sample_means(points, 100, rng)
    got = np.concatenate(rng.pvals)
    assert got.shape == (5, bandit.denominator + 1)
    for point, row in zip(points, got):
        probs = bandit.outcome_probabilities(
            probabilities(bandit.state(point))).tolist()
        total = math.fsum(probs)
        expect = np.array([math.fsum(p for p, l in zip(
            probs, bandit.numerators.tolist()) if l == level) / total
            for level in range(bandit.denominator + 1)])
        assert np.all(np.abs(row - expect) <= 1e-15)


def test_reward_numerators_over_the_denominator_are_the_rewards():
    qaoa = prefix_bandit("qaoa2", 8)
    pqc = PqcBandit(6)
    assert np.array_equal(qaoa.numerators,
                          qaoa.maxcut - cut_values(qaoa.graph))
    assert qaoa.denominator == qaoa.maxcut
    assert np.array_equal(pqc.numerators, [bin(z).count("1")
                                           for z in range(1 << 6)])
    assert pqc.denominator == 6
    for bandit in (qaoa, pqc):
        assert bandit.numerators.dtype == np.int64
        assert np.allclose(bandit.numerators / bandit.denominator,
                           bandit.rewards, rtol=0.0, atol=1e-15)


def test_integer_scores_are_exact():
    """The all-zero PQC state scores exactly 0 however many shots; a
    single shot scores exactly its level over the denominator."""
    bandit = PqcBandit(5)
    zeros = np.zeros((40, bandit.dimension))
    for shots in (1, 7, 100_000):
        means = bandit.sample_means(zeros, shots, SeededRng(shots))
        assert np.all(means == 0.0)
        assert bandit.sample_mean(zeros[0], shots, SeededRng(shots)) == 0.0
    qaoa = QaoaBandit(complete_graph(3))  # levels 0/2, 1/2 and 2/2
    singles = qaoa.sample_means(np.zeros((200, 4)), 1, SeededRng(7))
    assert set(singles.tolist()) <= {0.0, 0.5, 1.0}


@pytest.mark.parametrize("family", ["qaoa2", "pqc"])
def test_single_shot_levels_follow_the_born_distribution(family):
    """At n = 12, the level of each of reps one-shot pulls, all on one
    stream, against the exact level probabilities: every level's
    frequency within 5 sigma."""
    bandit = prefix_bandit(family, 12)
    reps = 20_000
    params = SeededRng(420).random(bandit.dimension)
    probs = bandit.outcome_probabilities(probabilities(bandit.state(params)))
    levels = np.bincount(bandit.numerators, weights=probs,
                         minlength=bandit.denominator + 1) / probs.sum()
    means = bandit.sample_means(np.tile(params, (reps, 1)), 1, SeededRng(421))
    drawn = np.rint(means * bandit.denominator).astype(np.int64)
    assert np.array_equal(drawn / bandit.denominator, means)
    freqs = np.bincount(drawn, minlength=levels.size) / reps
    slack = 5.0 * np.sqrt(levels * (1.0 - levels) / reps) + 1e-6
    assert np.all(np.abs(freqs - levels) <= slack)


# --------------------------------------------------------- objectives

def test_zeros_fractions():
    """A PQC shot scores 1 - its fraction of zero bits."""
    assert np.array_equal(PqcBandit(2).rewards, [0.0, 0.5, 0.5, 1.0])
    assert PqcBandit(3).rewards[5] == pytest.approx(2.0 / 3.0)  # 101


def test_expected_reward_uniform_is_exact_mean():
    probs = np.full(8, 0.125)
    rewards = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    assert expected_reward(probs, rewards) == 0.75


def sum_cases():
    """Arrays whose math.fsum is hard to match: long, zero, subnormal,
    spread over many binades, or at a rounding tie."""
    rng = SeededRng(640)
    for length in (1, 2, 3, 17, 4096, 1 << 20):
        yield rng.child(length).random(length)
    yield np.zeros(7)
    yield np.array([0.0, 0.5, 0.0, 2.0 ** -1074])
    yield np.full(5, 2.0 ** -1074)
    yield np.ldexp(rng.child(1).random(300),
                   rng.child(2).integers(-1074, -1021, 300))
    yield np.concatenate([rng.child(3).random(50),
                          np.ldexp(rng.child(4).random(50),
                                   rng.child(5).integers(-1074, -1000, 50))])
    yield np.ldexp(rng.child(6).random(5000),
                   rng.child(7).integers(-1000, 1, 5000))
    # half-ulp ties: to even below, to even above, and just past a tie
    yield np.array([1.0, 2.0 ** -53])
    yield np.array([1.0 + 2.0 ** -52, 2.0 ** -53])
    yield np.array([2.0 ** -53, 1.0, 2.0 ** -106])
    yield np.array([2.0 ** -53] * 2 + [1.0 - 2.0 ** -53])
    yield np.array([3.0, 2.0 ** -52, 2.0 ** -1074])
    for n in (3, 8, 14):
        for family in ("qaoa", "pqc"):
            bandit = circuit_bandit(family, n)
            probs = probabilities(bandit.state(
                rng.child(n).random(bandit.dimension)))
            yield probs
            yield probs * bandit.rewards[:probs.size]


def test_exact_sum_is_math_fsum():
    for values in sum_cases():
        got = exact_sum(values)
        assert type(got) is float
        assert got == math.fsum(values.tolist())


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
    cuts = sorted(cut_values(bandit.graph).tolist())
    assert cuts == [0, 0, 2, 2, 2, 2, 2, 2]
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
    for graph, maxcut in ((complete_graph(3), 2), (path_graph(4), 3),
                          (complete_graph(4), 4), (Graph(2, ((0, 1),)), 1),
                          (Graph(3, ()), 0)):
        assert cut_values(graph).max() == maxcut


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
        table = cut_values(g)
        assert table.max() == independent_maxcut(g)
        assert QaoaBandit(g).maxcut == independent_maxcut(g)
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
