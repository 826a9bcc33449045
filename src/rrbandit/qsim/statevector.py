"""Dense statevector simulation for up to 20 qubits.

Basis-state index bit i is qubit i (least significant bit first). A state
is a complex array of shape (2^n,), or (k, 2^n) for a batch of k states
that run the same circuit with per-state angles. Gate functions mutate the
array in place and return it. A gate that takes an angle accepts one float
for every state or, on a batch, an array of k angles; a rotation on a
sequence of qubits also accepts one angle per state and qubit.

A circuit of real gates keeps a real state real, so it may be simulated
as a float64 array (zero_state(n, dtype=np.float64)). Such a state takes
y-rotations, apply_cz and probabilities; apply_rotation raises ValueError
for an x or z axis on it, which would drop the imaginary parts. The other
gates need a complex state. On a complex state whose imaginary parts are
all zero, the kernel's real parts are the real products plus zeros, so the
float64 state has the same real parts and the same probability bits.

There is one kernel path, plain numpy. A gate on qubit q works on the view
reshape(k, 2^(n-1-q), 2, 2^q), whose third axis is that qubit's bit, so
one call updates every state of a batch. Each amplitude sees the same
arithmetic whether its state is simulated alone or in a batch, so
batching never changes a sampled shot.

The view's contiguous runs are 2^q amplitudes long, so on a wide state a
pass on a low qubit walks thousands of short runs, and runs 2-4x slower
than one on a high qubit. A rotation on a sequence of qubits therefore
runs the qubits below n // 2 on a transposed copy of each state, of shape
(2^(n//2) low index, 2^(n - n//2) high index): qubit q is bit
q + n - n//2 of the copy's index, so each of those passes streams runs at
least 2^(n - n//2) long. It then copies the result back and runs the high
qubits in place. Consecutive low qubits of the sequence share one copy,
and the qubits run in the order given; a single-qubit call runs in place.
Small states take the same path: on 5- to 8-qubit QAOA circuits the two
layouts ran equally fast end to end, within run-to-run noise. The bits
are the same as in the direct layout: each pass is the same _apply_1q
kernel with the same matrix entries and operand order, on the same pairs
of amplitudes, so every amplitude sees the same arithmetic and only where
it sits in memory changes. (x and y rotations multiply by purely real or
purely imaginary entries, whose products round the same in any numpy
loop; the tests compare sequence calls with per-qubit calls bitwise for
x, y and z rotations at n = 1..14.)

A state that flipping every bit leaves unchanged, psi(z) = psi(~z), may
be carried as its half: the 2^(n-1) amplitudes whose top bit (qubit
n - 1) is 0. Its top-bit-1 half is the same array reversed, since ~z of
index z is 2^n - 1 - z. MaxCut QAOA keeps this symmetry throughout (the
Z2 symmetry of Shaydulin et al., "Classical symmetries and the Quantum
Approximate Optimization Algorithm", arXiv:2012.04713): its uniform
start, its cut phase (cut(z) = cut(~z)) and x-rotations all commute with
flipping every bit. The qubits below the top run on a half state as on
any state of n - 1 qubits. An x-rotation on the top qubit (apply_rotation
with half=True) runs as m00 * psi + m01 * psi[::-1], which is _apply_1q's
m00 * v0 + m01 * v1 with the same entries and operands, since v1 is the
mirrored half. So the half is bitwise the first half of the full state,
and the full state stays bitwise mirror-symmetric: an amplitude and its
mirror add the same two products, in swapped order, which rounds the
same. The tests check both at n = 2..14.

Values shared by many amplitudes are computed once. A rotation on a
sequence of qubits builds its matrix entries once per call, for one angle
or for one angle per qubit, and applies them qubit by qubit. The entries
of all its angles are built in one pass: math.cos and math.sin mapped
over the half angles into two arrays, written into one (4, angles) array
of the state's dtype whose other real and imaginary parts are +0.0. A
diagonal phase is given as levels and a per-basis-state index into them,
so exp runs once per level and not once per amplitude; exp of the same
input gives the same bits, so the result is identical to taking exp per
amplitude. Keep each product's operand order (m00 * v0,
coef * levels): numpy may evaluate complex a * b and b * a with fused
multiply-adds that round differently, which would move amplitudes by an
ulp.
"""

import itertools
import math

import numpy as np

MAX_QUBITS = 20

# Bytes of states simulated as one batch. Every gate streams the whole
# batch plus temporaries of about its size, which stay in a 2 MB L2 at this
# size. In a sweep over 16 QAOA arms on a 2 MB-L2 Xeon, 128 KB came within
# 12 % of the best cap at every n from 5 to 14, while 1 MB ran 1.2-1.5x
# slower at n = 10-14 and 32 KB 1.3-1.6x slower at n = 5-10.
# A single state larger than this is simulated alone.
BATCH_BYTES = 128 * 1024

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def zero_state(n, batch=(), dtype=np.complex128):
    """|0...0> on n qubits; batch=(k,) gives k copies as a (k, 2^n) array."""
    if int(n) != n or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    state = np.zeros(tuple(batch) + (1 << n,), dtype=dtype)
    state[..., 0] = 1.0
    return state


def batch_size(length, dtype):
    """States of `length` amplitudes of `dtype` per batch under BATCH_BYTES,
    at least one."""
    return max(1, BATCH_BYTES // (length * np.dtype(dtype).itemsize))


def num_qubits(state):
    n = state.shape[-1].bit_length() - 1
    if 1 << n != state.shape[-1]:
        raise ValueError("state length is not a power of two")
    return n


def _check_qubits(state, qubits, half=False):
    """The state's qubit count, after checking every index in qubits; a
    half state (see apply_rotation) also takes index n, its top qubit."""
    n = num_qubits(state)
    for qubit in qubits:
        if int(qubit) != qubit or not 0 <= qubit < n + half:
            raise ValueError(
                f"qubit index {qubit} out of range for {n + half} qubits")
    return n


def _angles(state, angle):
    """[angle] for one angle, or the list of per-state angles of a batch."""
    if np.ndim(angle) == 0:
        return [float(angle)]
    angle = np.asarray(angle, dtype=np.float64)
    if state.ndim != 2 or angle.shape != state.shape[:1]:
        raise ValueError("need one angle, or one per state of a batch")
    return angle.tolist()


def _apply_1q(state, m00, m01, m10, m11, qubit):
    """[[m00, m01], [m10, m11]] on qubit; entries are scalars, or arrays
    of shape (1, 1, 1) or (k, 1, 1) for one matrix per state."""
    psi = state.reshape(-1, state.shape[-1] >> (qubit + 1), 2, 1 << qubit)
    v0 = psi[:, :, 0, :]
    v1 = psi[:, :, 1, :]
    new0 = m00 * v0 + m01 * v1
    psi[:, :, 1, :] = m10 * v0 + m11 * v1
    psi[:, :, 0, :] = new0
    return state


def _apply_mirrored(state, m00, m01):
    """_apply_1q's top-bit-0 half on the top qubit of a half state, whose
    top-bit-1 half v1 is this half reversed."""
    psi = state.reshape(-1, 1, state.shape[-1])
    psi[...] = m00 * psi + m01 * psi[..., ::-1]
    return state


def _half_angle_trig(angles):
    """math.cos and math.sin of 0.5 * angle for each float in angles, as two
    float64 arrays. Never np.cos: its SIMD paths may differ by an ulp from
    one CPU to another."""
    halves = [0.5 * a for a in angles]
    return (np.fromiter(map(math.cos, halves), np.float64, len(halves)),
            np.fromiter(map(math.sin, halves), np.float64, len(halves)))


def _sequence_entries(state, axis, angle, count):
    """Each of count qubits' matrix entries, as _apply_1q takes them.

    angle is one angle, one per state of a batch, or one per state and
    qubit, of shape state.shape[:-1] + (count,). Returns count arrays of
    shape (4, k, 1, 1), k = 1 for one angle; all are the same array unless
    the angles are per qubit. The entries of an angle a, from
    c = cos(a / 2) and s = sin(a / 2), are (c, -s, s, c) for y,
    (c, -is, -is, c) for x and (c - is, 0, 0, c + is) for z, with +0.0
    for every other real or imaginary part.
    """
    if np.ndim(angle) != state.ndim:
        angles, sets = _angles(state, angle), 1
    else:
        angle = np.asarray(angle, dtype=np.float64)
        if angle.shape != state.shape[:-1] + (count,):
            raise ValueError(
                "per-qubit angles need shape state.shape[:-1] + (qubits,)")
        angles, sets = angle.reshape(-1, count).T.ravel().tolist(), count
    c, s = _half_angle_trig(angles)
    m = np.zeros((4, len(angles)), dtype=state.dtype)
    if axis == "y":
        m[0] = m[3] = c
        m[1] = -s
        m[2] = s
    else:
        m.real[0] = m.real[3] = c
        if axis == "x":
            m.imag[1] = m.imag[2] = -s
        else:
            m.imag[0] = -s
            m.imag[3] = s
    entries = m.reshape(4, sets, -1, 1, 1).transpose(1, 0, 2, 3, 4)
    return list(entries) if sets == count else [entries[0]] * count


def y_product_state(angles):
    """A y-rotation by angles[..., q] on each qubit q of |0...0>, as a
    float64 state of shape angles.shape[:-1] + (2^n,).

    Amplitude z is the product f_(n-1) * (... * (f_1 * f_0)), with
    f_q = cos(angle_q / 2) where bit q of z is 0 and sin(angle_q / 2)
    where it is 1: the products, in the order in which
    apply_rotation(zero_state(n, dtype=np.float64), range(n), "y", angles)
    forms them. That call also adds a product with a zero amplitude at
    each step, which can flip the sign of a zero amplitude but leaves
    every other one as it is. So the states are equal under
    np.array_equal (not always bytewise), and their probabilities are
    bitwise equal.
    """
    angles = np.asarray(angles, dtype=np.float64)
    n = angles.shape[-1]
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    per_qubit = angles.reshape(-1, n).T  # (n, states)
    c, s = (f.reshape(n, -1, 1)
            for f in _half_angle_trig(per_qubit.ravel().tolist()))
    state = np.empty((per_qubit.shape[1], 1 << n))
    state[:, :1] = c[0]
    state[:, 1:2] = s[0]
    for q in range(1, n):
        low, high = state[:, :1 << q], state[:, 1 << q:2 << q]
        np.multiply(s[q], low, out=high)
        np.multiply(c[q], low, out=low)
    return state.reshape(angles.shape[:-1] + (1 << n,))


def apply_rotation(state, qubits, axis, angle, half=False):
    """exp(-i * angle * P / 2) for the Pauli P named by axis ('x', 'y', 'z'),
    on one qubit or on each of a sequence of qubits in turn.

    angle is one angle, one per state of a batch, or one per state and
    qubit, of shape state.shape[:-1] + (len(qubits),). The matrix entries
    are built once per call, in the state's dtype. A real state takes only
    the real y-rotation. A sequence runs its low qubits on a transposed
    copy.

    half=True takes state as the top-bit-0 half of a state that flipping
    every bit leaves unchanged (module docstring). Qubit num_qubits(state)
    is then that state's top qubit. Only x-rotations keep the symmetry, so
    a half state takes no other axis.
    """
    # hasattr, not np.ndim, which costs about 2 us on an int
    qubits = tuple(qubits) if hasattr(qubits, "__iter__") else (qubits,)
    n = _check_qubits(state, qubits, half)
    if axis not in ("x", "y", "z"):
        raise ValueError("axis must be 'x', 'y' or 'z'")
    if axis != "y" and state.dtype.kind != "c":
        raise ValueError(f"a real state cannot take a rotation about {axis}")
    if half and axis != "x":
        raise ValueError("a half state takes only x-rotations")
    entries = _sequence_entries(state, axis, angle, len(qubits))
    low = n // 2 if len(qubits) > 1 else 0
    high = n - low
    # each state as (high index, low index); qubit q < low is bit q + high
    # of the transposed copy's index
    psi = state.reshape(-1, 1 << high, 1 << low)
    k = psi.shape[0]
    pairs = zip(qubits, entries)
    runs = (itertools.groupby(pairs, key=lambda qm: qm[0] < low) if low
            else [(False, pairs)])
    for transposed, run in runs:
        if not transposed:
            for qubit, m in run:
                if qubit == n:  # the mirrored top qubit of a half state
                    _apply_mirrored(state, *m[:2])
                else:
                    _apply_1q(state, *m, int(qubit))
            continue
        work = psi.transpose(0, 2, 1).reshape(k, -1)
        for qubit, m in run:
            _apply_1q(work, *m, int(qubit) + high)
        psi[...] = work.reshape(k, 1 << low, 1 << high).transpose(0, 2, 1)
    return state


def apply_hadamard(state, qubit):
    _check_qubits(state, (qubit,))
    h = complex(_SQRT_HALF)
    return _apply_1q(state, h, h, h, -h, int(qubit))


def apply_cz(state, q1, q2):
    _check_qubits(state, (q1, q2))
    if q1 == q2:
        raise ValueError("controlled-Z needs two distinct qubits")
    lo, hi = sorted((int(q1), int(q2)))
    psi = state.reshape(-1, state.shape[-1] >> (hi + 1), 2,
                        1 << (hi - lo - 1), 2, 1 << lo)
    psi[:, :, 1, :, 1, :] *= -1.0
    return state


def apply_phase(state, levels, index, angle):
    """Diagonal phase exp(-i * angle * levels[index[z]]) per basis state z.

    A diagonal with few distinct values (a cut table) takes exp of each
    level once and gathers the factors by index.
    """
    levels = np.asarray(levels, dtype=np.float64)
    index = np.asarray(index)
    if levels.ndim != 1 or index.shape != state.shape[-1:]:
        raise ValueError("need 1-d levels and one index per basis state")
    coef = np.array([-1j * a for a in _angles(state, angle)])
    psi = state.reshape(-1, state.shape[-1])
    psi *= np.exp(coef[:, None] * levels)[:, index]
    return state


def probabilities(state):
    return np.abs(state) ** 2
