"""Statevector primitives: semantics, counting, allocation tracking, kernels."""

import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qngsim.gates import (
    ControlledPauliRotation,
    GeneratedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)
from qngsim.ansatz import random_circuit, random_parameters
from qngsim.statevector import (
    MatrixGateOperator,
    OpCounter,
    PauliStringOperator,
    Statevector,
    _rotation_layout,
    apply_operator,
    axpy,
    clone_into,
    inner_product,
    make_basis_state,
    track_allocations,
)
from qngsim.errors import ResourceLimitError

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def reference_apply(amps, num_qubits, targets, matrix):
    """Direct transcription of the matrix action, one output amplitude at a time."""
    k = len(targets)
    out = np.zeros_like(amps)
    for i in range(amps.size):
        row = sum(((i >> t) & 1) << j for j, t in enumerate(targets))
        base = i
        for t in targets:
            base &= ~(1 << t)
        for col in range(1 << k):
            j = base
            for b, t in enumerate(targets):
                if (col >> b) & 1:
                    j |= 1 << t
            out[i] += matrix[row, col] * amps[j]
    return out


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# Basis states
# ---------------------------------------------------------------------------


def test_basis_state_single_qubit():
    state = make_basis_state(1, 0)
    np.testing.assert_array_equal(state.amplitudes, [1, 0])


def test_basis_state_two_qubits():
    state = make_basis_state(2, 3)
    np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])


def test_basis_state_index_out_of_range():
    with pytest.raises(ValueError):
        make_basis_state(1, 2)
    with pytest.raises(ValueError):
        make_basis_state(2, -1)


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        Statevector(2, np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# Clone
# ---------------------------------------------------------------------------


def test_clone_copies_amplitudes_exactly():
    counter = OpCounter()
    src = Statevector(1, np.array([1, 0], dtype=complex))
    dst = Statevector(1, np.array([0, 1], dtype=complex))
    clone_into(src, dst, counter)
    np.testing.assert_array_equal(dst.amplitudes, [1, 0])
    np.testing.assert_array_equal(src.amplitudes, [1, 0])
    assert counter.clones == 1


def test_clone_complex_values():
    counter = OpCounter()
    src = Statevector(1, np.array([0.6, 0.8j], dtype=complex))
    dst = Statevector(1)
    clone_into(src, dst, counter)
    np.testing.assert_array_equal(dst.amplitudes, [0.6, 0.8j])


def test_clone_dimension_mismatch():
    counter = OpCounter()
    with pytest.raises(ValueError):
        clone_into(Statevector(1), Statevector(2), counter)
    assert counter.clones == 0


# ---------------------------------------------------------------------------
# Inner product
# ---------------------------------------------------------------------------


def test_inner_product_of_unit_state_is_one():
    counter = OpCounter()
    state = random_state(3, seed=1)
    assert abs(inner_product(state, state, counter) - 1.0) <= 1e-12


def test_inner_product_orthogonal_basis_states():
    counter = OpCounter()
    zero = make_basis_state(1, 0)
    one = make_basis_state(1, 1)
    assert inner_product(zero, one, counter) == 0


def test_inner_product_orthogonal_superpositions():
    counter = OpCounter()
    plus = Statevector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
    minus = Statevector(1, np.array([1, -1], dtype=complex) / np.sqrt(2))
    assert abs(inner_product(plus, minus, counter)) <= 1e-15


def test_inner_product_conjugates_the_bra():
    counter = OpCounter()
    bra = Statevector(1, np.array([1j, 0], dtype=complex))
    ket = Statevector(1, np.array([1, 0], dtype=complex))
    assert inner_product(bra, ket, counter) == pytest.approx(-1j)


def test_inner_product_leaves_operands_alone_and_counts():
    counter = OpCounter()
    a = random_state(2, seed=2)
    b = random_state(2, seed=3)
    before_a, before_b = a.amplitudes.copy(), b.amplitudes.copy()
    # a Python complex, not numpy's: energies built from it must stay plain floats
    assert type(inner_product(a, b, counter)) is complex
    np.testing.assert_array_equal(a.amplitudes, before_a)
    np.testing.assert_array_equal(b.amplitudes, before_b)
    assert counter.inner_products == 1


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(Statevector(1), Statevector(2), OpCounter())


def test_inner_product_repeated_runs_bit_identical():
    counter = OpCounter()
    a = random_state(6, seed=4)
    b = random_state(6, seed=5)
    first = inner_product(a, b, counter)
    assert all(inner_product(a, b, counter) == first for _ in range(5))


# ---------------------------------------------------------------------------
# Axpy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_qubits", [1, 4, 18])
@pytest.mark.parametrize("alpha", [0.37, -1.25e-3, 0.6 - 0.8j, 1.0, -1.0, 1, -1])
def test_axpy_is_numpy_sum_bit_for_bit(num_qubits, alpha):
    x = random_state(num_qubits, seed=7)
    y = random_state(num_qubits, seed=8)
    expected = y.amplitudes + alpha * x.amplitudes
    counter = OpCounter()
    axpy(alpha, x, y, counter)
    assert np.array_equal(y.amplitudes.view(np.float64), expected.view(np.float64))
    assert counter.axpys == 1 and counter.as_tuple() == (0, 0, 0)


def test_axpy_allocates_no_register_sized_temporary():
    # a register at N = 18 is 4 MiB; alpha * x taken whole would allocate one
    x, y = random_state(18, seed=9), random_state(18, seed=10)
    tracemalloc.start()
    try:
        axpy(0.37 - 0.2j, x, y, OpCounter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_axpy_dimension_mismatch():
    with pytest.raises(ValueError, match="cannot add a 1-qubit state"):
        axpy(1.0, Statevector(1), Statevector(2), OpCounter())


# ---------------------------------------------------------------------------
# Apply
# ---------------------------------------------------------------------------


def test_apply_pauli_x_flips_qubit_zero():
    counter = OpCounter()
    state = make_basis_state(1, 0)
    apply_operator(state, MatrixGateOperator((0,), X), counter)
    np.testing.assert_allclose(state.amplitudes, [0, 1])
    assert counter.gate_applications == 1


def test_little_endian_qubit_order():
    # qubit 0 is the least-significant bit: X on qubit 1 of |00> gives index 2
    counter = OpCounter()
    state = make_basis_state(2, 0)
    apply_operator(state, MatrixGateOperator((1,), X), counter)
    np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0])
    probabilities = np.abs(state.amplitudes.reshape(2, 2)) ** 2  # [bit 1, bit 0]
    assert probabilities[1, :].sum() == pytest.approx(1.0)  # qubit 1 reads 1
    assert probabilities[:, 1].sum() == pytest.approx(0.0)  # qubit 0 reads 0


def test_apply_rotation_at_zero_angle_is_identity():
    counter = OpCounter()
    state = random_state(2, seed=6)
    before = state.amplitudes.copy()
    rx0 = scipy.linalg.expm(1j * 0.0 / 2 * X)
    apply_operator(state, MatrixGateOperator((0,), rx0), counter)
    np.testing.assert_allclose(state.amplitudes, before, atol=1e-15)


def test_apply_rx_pi_matches_matrix_exponential_oracle():
    # exp(i*pi/2*X)|0> = i|1> under the exp(i*theta*X/2) convention
    counter = OpCounter()
    state = make_basis_state(1, 0)
    oracle = scipy.linalg.expm(1j * (np.pi / 2) * X)
    apply_operator(state, MatrixGateOperator((0,), oracle), counter)
    np.testing.assert_allclose(state.amplitudes, [0, 1j], atol=1e-12)


def test_apply_rejects_out_of_range_qubit():
    with pytest.raises(ValueError):
        apply_operator(make_basis_state(1, 0), MatrixGateOperator((1,), X), OpCounter())


@pytest.mark.parametrize("op", [MatrixGateOperator((2,), X),
                                PauliStringOperator(((0, "Z"), (2, "Y")))],
                         ids=["matrix", "pauli"])
def test_cached_kernel_still_rejects_a_narrower_register(op):
    # the range check runs when a kernel is built, once per register size, so
    # a kernel cached for 3 qubits must not let the operator act on 1
    counter = OpCounter()
    apply_operator(make_basis_state(3, 0), op, counter)
    with pytest.raises(ValueError, match="acts on qubit 2"):
        apply_operator(make_basis_state(1, 0), op, counter)
    assert counter.gate_applications == 1


def test_operator_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        MatrixGateOperator((0, 0), np.eye(4))


def test_apply_accepts_non_unitary_operators():
    counter = OpCounter()
    state = make_basis_state(1, 0)
    apply_operator(state, MatrixGateOperator((0,), 0.5j * X), counter)
    assert state.norm() == pytest.approx(0.5)


@pytest.mark.parametrize("num_qubits", [2, 3, 5, 7, 8])
@pytest.mark.parametrize("targets", [(0,), (1,), "top", (0, 1), (1, 0), "pair", "triple"])
def test_apply_matches_reference_action(num_qubits, targets):
    # random matrices take the one-row GEMV up to N = 5, the window and the
    # moveaxis kernels; the rotation kernel is checked on rotations below
    if targets == "top":
        targets = (num_qubits - 1,)
    elif targets == "pair":
        targets = (num_qubits - 1, 0)
    elif targets == "triple":
        if num_qubits < 3:
            pytest.skip("needs 3 qubits")
        targets = (1, num_qubits - 1, 0)
    if max(targets) >= num_qubits:
        pytest.skip("target outside register")
    rng = np.random.default_rng(num_qubits * 31 + len(targets))
    dim = 1 << len(targets)
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    state = random_state(num_qubits, seed=num_qubits)
    expected = reference_apply(state.amplitudes, num_qubits, targets, matrix)
    apply_operator(state, MatrixGateOperator(targets, matrix), OpCounter())
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def kron_oracle(num_qubits, targets, matrix):
    """Full 2^N x 2^N matrix of ``matrix`` on ``targets``: the sum over its
    entries of the kron product, qubit by qubit, of |r_j><c_j| on target j
    and the identity elsewhere."""
    k = len(targets)
    full = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)
    for r in range(1 << k):
        for c in range(1 << k):
            if matrix[r, c] == 0:
                continue
            factors = []
            for q in reversed(range(num_qubits)):
                if q in targets:
                    j = targets.index(q)
                    unit = np.zeros((2, 2))
                    unit[(r >> j) & 1, (c >> j) & 1] = 1
                    factors.append(unit)
                else:
                    factors.append(np.eye(2))
            full += matrix[r, c] * reduce(np.kron, factors)
    return full


KERNEL_KINDS = ("dense", "diagonal", "diagonal_identity_control", "diagonal_zero_control",
                "controlled_dense")


def kernel_case_operator(kind, targets, rng):
    """An operator of the given structure; controlled kinds use the last
    target as the control.  Diagonals have some entries exactly 1 or 0, so
    phase patterns that are partly ones or zeros occur."""
    def random_matrix(dim):
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    def random_diagonal(dim):
        entries = random_matrix(dim)[0]
        special = rng.integers(0, 4, size=dim)
        entries[special == 1] = 1
        entries[special == 2] = 0
        return np.diag(entries)

    if kind == "dense":
        return MatrixGateOperator(targets, random_matrix(1 << len(targets)))
    if kind == "diagonal":
        return MatrixGateOperator(targets, random_diagonal(1 << len(targets)))
    if kind in ("zero_diagonal", "identity_diagonal"):
        dim = 1 << len(targets)
        return MatrixGateOperator(targets, np.eye(dim) * (kind == "identity_diagonal"))
    dim = 1 << (len(targets) - 1)
    block = random_matrix(dim) if kind == "controlled_dense" else random_diagonal(dim)
    control_zero = np.eye(dim) * (kind != "diagonal_zero_control")
    return MatrixGateOperator(targets, scipy.linalg.block_diag(control_zero, block))


def check_kernel_against_oracle(num_qubits, targets, kind, seed):
    op = kernel_case_operator(kind, targets, np.random.default_rng(seed))
    check_operator_against_oracle(num_qubits, op, seed)


def check_operator_against_oracle(num_qubits, op, seed):
    state = random_state(num_qubits, seed=seed)
    expected = kron_oracle(num_qubits, op.targets, op.matrix) @ state.amplitudes
    counter = OpCounter()
    apply_operator(state, op, counter)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
    assert counter.gate_applications == 1


@st.composite
def kernel_cases(draw):
    num_qubits = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(KERNEL_KINDS if num_qubits > 1 else KERNEL_KINDS[:2]))
    low = 2 if kind in KERNEL_KINDS[2:] else 1
    size = draw(st.integers(low, min(3, num_qubits)))
    targets = draw(st.permutations(range(num_qubits)))[:size]
    return num_qubits, tuple(targets), kind, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
# whole-register edges: a diagonal is one block up to N = 6, a dense gate one row up to N = 5
@example((3, (1,), "zero_diagonal", 1))
@example((3, (2, 0), "identity_diagonal", 2))
@example((7, (2,), "zero_diagonal", 3))
@example((7, (6, 1), "zero_diagonal", 4))
@example((7, (1, 6), "identity_diagonal", 5))
@example((5, (4, 0), "dense", 6))
@example((6, (4,), "dense", 7))
def test_kernels_match_kron_oracle(case):
    check_kernel_against_oracle(*case)


def check_crz_family_interleaved(num_qubits, targets, seed):
    """crz, its derivative (control-0 block zero) and its adjoint share their
    targets and N, so one cached layout, but bind different phase patterns;
    applied in interleaved order, each must still match the oracle."""
    gate = ControlledPauliRotation(targets[1], PauliString.single(targets[0], "Z"))
    unitary = gate.unitary(0.7)
    ops = (unitary, gate.derivative(0.7), unitary.adjoint())
    for op in ops + ops[::-1]:
        check_operator_against_oracle(num_qubits, op, seed)


@pytest.mark.parametrize("kind", KERNEL_KINDS + ("crz_family",))
@pytest.mark.parametrize("num_qubits, bit", [(n, q) for n in (5, 6, 7, 8) for q in (4, 5, 6, 7)
                                             if q < n and (q < 7 or n == 8)])
def test_kernels_match_kron_oracle_at_block_cutoffs(kind, num_qubits, bit):
    # target bits on both sides of the GEMM (5) and diagonal block (6) cutoffs
    others = [q for q in (0, num_qubits - 1, 2) if q != bit]
    if kind == "crz_family":
        check_crz_family_interleaved(num_qubits, (bit, others[0]), seed=bit)
        check_crz_family_interleaved(num_qubits, (others[0], bit), seed=bit + 1)
        return
    targets = (bit,) if kind in KERNEL_KINDS[:2] else (bit, others[0])
    check_kernel_against_oracle(num_qubits, targets, kind, seed=bit * 10 + num_qubits)
    if kind not in KERNEL_KINDS[:2]:
        check_kernel_against_oracle(num_qubits, (others[0], bit), kind, seed=bit)


def test_single_qubit_kron_anchor():
    # full-space oracle: kron(I_high, gate, I_low) for gate on qubit q
    rng = np.random.default_rng(12)
    num_qubits = 4
    gate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q in range(num_qubits):
        full = np.kron(np.kron(np.eye(1 << (num_qubits - 1 - q)), gate), np.eye(1 << q))
        state = random_state(num_qubits, seed=q)
        expected = full @ state.amplitudes
        apply_operator(state, MatrixGateOperator((q,), gate), OpCounter())
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_adjacent_two_qubit_kron_anchor():
    rng = np.random.default_rng(13)
    num_qubits = 4
    gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for q in range(num_qubits - 1):
        # targets (q, q+1) with q the least-significant matrix bit
        full = np.kron(np.kron(np.eye(1 << (num_qubits - 2 - q)), gate), np.eye(1 << q))
        state = random_state(num_qubits, seed=10 + q)
        expected = full @ state.amplitudes
        apply_operator(state, MatrixGateOperator((q, q + 1), gate), OpCounter())
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Rotation kernel: rx, ry, their adjoints and factors D as BLAS plane rotations
# ---------------------------------------------------------------------------


def one_target_oracle(amplitudes, qubit, matrix):
    """``matrix`` on ``qubit``: every pair of amplitudes that differ only in
    that bit, taken as a 2-vector, times ``matrix``."""
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    return np.einsum("ij,ajb->aib", matrix, view).reshape(-1)


def kernel_name(op, num_qubits):
    return op._kernel(num_qubits).__qualname__.split(".")[0]


def on_rotation_path(qubit, num_qubits):
    # above the one-row GEMV (N <= 5): at bits 0 and 1, and from bit 8 up
    return num_qubits > 5 and (qubit <= 1 or qubit >= 8)


@pytest.mark.parametrize("num_qubits", [6, 9, 12, 13, 16])
@pytest.mark.parametrize("axis", ["X", "Y"])
def test_rotation_kernel_matches_oracle_on_every_bit(num_qubits, axis):
    for qubit in range(num_qubits):
        gate = PauliRotation(PauliString.single(qubit, axis))
        unitary = gate.unitary(17.3)
        for op in (unitary, unitary.adjoint(), gate.derivative_factor):
            name = kernel_name(op, num_qubits)
            assert (name == "_rotation_kernel") == on_rotation_path(qubit, num_qubits)
        for op in (unitary, unitary.adjoint(), gate.derivative_factor, gate.derivative(17.3)):
            state = random_state(num_qubits, seed=qubit)
            expected = one_target_oracle(state.amplitudes, qubit, op.matrix)
            counter = OpCounter()
            apply_operator(state, op, counter)
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-15)
            assert counter.gate_applications == 1


@pytest.mark.parametrize("num_qubits", range(1, 19))
def test_rotation_layout_by_bit_and_register_size(num_qubits):
    for qubit in range(num_qubits):
        layout = _rotation_layout(qubit, num_qubits)
        assert (layout is not None) == on_rotation_path(qubit, num_qubits)
        if layout is None:
            continue
        calls = layout
        half = 1 << qubit
        if qubit <= 1:  # 2**q strided calls over the register
            assert len(calls) == half
            assert all(incx == incy == 2 * half for _, _, incx, _, incy in calls)
        else:  # one unit-stride call per block of 2**(q+1) amplitudes
            assert len(calls) == 1 << (num_qubits - 1 - qubit)
            assert all(incx == incy == 1 for _, _, incx, _, incy in calls)
        # every amplitude appears once, as x with the bit clear or as its partner y
        xs = np.concatenate([offx + incx * np.arange(n) for n, offx, incx, _, _ in calls])
        ys = np.concatenate([offy + incy * np.arange(n) for n, _, _, offy, incy in calls])
        assert np.all(xs & half == 0) and np.array_equal(ys, xs + half)
        assert np.array_equal(np.sort(np.concatenate([xs, ys])), np.arange(1 << num_qubits))


@pytest.mark.parametrize("num_qubits, qubit", [(4, 0), (5, 1), (5, 4), (6, 0), (9, 8), (12, 1),
                                                (16, 3)])
def test_rotation_kernel_fallbacks(num_qubits, qubit):
    # phased rotations (prx, pry), a one-qubit gen whose m01 is neither real
    # nor imaginary, and every gate up to N = 5 keep the dense kernel
    phased = [PauliRotation(PauliString.single(qubit, axis), phase_rate=rate)
              for axis, rate in (("X", 0.7), ("Y", -0.4))]
    generated = GeneratedGate(PauliSum(((0.3, PauliString.single(qubit, "X")),
                                        (0.4, PauliString.single(qubit, "Y")))))
    ops = [op for gate in phased for op in (gate.unitary(17.3), gate.derivative_factor)]
    ops += [generated.unitary(17.3), generated.derivative_factor]
    if num_qubits <= 5:
        for axis in ("X", "Y"):
            gate = PauliRotation(PauliString.single(qubit, axis))
            ops += [gate.unitary(17.3), gate.unitary(17.3).adjoint(), gate.derivative_factor]
    for op in ops:
        assert kernel_name(op, num_qubits) == "_dense_kernel"
        state = random_state(num_qubits, seed=qubit)
        expected = one_target_oracle(state.amplitudes, qubit, op.matrix)
        apply_operator(state, op, OpCounter())
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("axis", ["X", "Y"])
@pytest.mark.parametrize("source", ["built", "built-read-only", "assigned"])
def test_rotation_acts_on_an_offset_buffer(axis, source):
    # BLAS wrappers rotate a copy of a misaligned or read-only array, so the
    # register holds an aligned, writeable buffer of its own, however given
    num_qubits = 12
    raw = np.zeros(16 * (1 << num_qubits) + 4, dtype=np.uint8)[4:].view(np.complex128)
    raw[:] = random_state(num_qubits, seed=3).amplitudes
    raw.flags.writeable = source != "built-read-only"
    assert not raw.flags.aligned
    if source == "assigned":
        state = Statevector(num_qubits)
        state.amplitudes = raw
    else:
        state = Statevector(num_qubits, raw)
    assert state.amplitudes.flags.aligned and state.amplitudes.flags.writeable
    op = PauliRotation(PauliString.single(0, axis)).unitary(0.9)
    expected = one_target_oracle(raw, 0, op.matrix)
    apply_operator(state, op, OpCounter())
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Kernel plans: every gate word against its generator, on every bit
# ---------------------------------------------------------------------------

GATE_WORDS = ("rx", "ry", "rz", "crx", "cry", "crz", "prx", "pry", "prz", "gen")


def word_gates(word, qubit, num_qubits):
    """The gates of a circuit-file word with target ``qubit``.  Controlled
    words take the next bit and the farthest bit as control; ``gen`` is a
    one-qubit generator that is no rotation and, from 2 qubits, a two-qubit
    one and a diagonal ``0.5 Z Z`` one with each of those bits."""
    others = sorted({(qubit + 1) % num_qubits,
                     0 if 2 * qubit >= num_qubits else num_qubits - 1} - {qubit})
    if word == "gen":
        one = PauliSum(((0.3, PauliString.single(qubit, "X")),
                        (0.4, PauliString.single(qubit, "Y"))))
        return [GeneratedGate(one)] + [
            GeneratedGate(generator) for other in others for generator in (
                PauliSum(((0.3, PauliString.single(qubit, "X")),
                          (-0.2, PauliString(((qubit, "Z"), (other, "Y")))))),
                PauliSum(((0.5, PauliString(((qubit, "Z"), (other, "Z")))),)))]
    axis = PauliString.single(qubit, word[-1].upper())
    if word.startswith("c"):
        return [ControlledPauliRotation(other, axis) for other in others]
    if word.startswith("p"):
        return [PauliRotation(axis, scale=0.3, phase_rate=-0.7)]
    return [PauliRotation(axis)]


def generator_matrix(gate):
    """``A`` of ``U(theta) = exp(i theta A)`` on ``gate.qubit_indices``, from
    the gate's definition."""
    if isinstance(gate, GeneratedGate):
        support = gate.generator.support
        return sum(weight * pauli.dense_matrix(support) for weight, pauli in gate.generator.terms)
    sigma = gate.scale * gate.axis.dense_matrix()
    if isinstance(gate, ControlledPauliRotation):  # the control is the top matrix bit
        return np.kron(np.diag([0, 1]), sigma)
    return gate.phase_rate * np.eye(len(sigma)) + sigma


def dense_oracle(amplitudes, num_qubits, targets, matrix):
    """``matrix`` on ``targets`` as one tensor contraction: its column axes
    (bit k-1 first) against the register's target axes."""
    k = len(targets)
    axes = [num_qubits - 1 - q for q in reversed(targets)]
    out = np.tensordot(matrix.reshape((2,) * 2 * k), amplitudes.reshape((2,) * num_qubits),
                       (list(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes).reshape(-1)


def test_dense_oracle_matches_kron_oracle():
    rng = np.random.default_rng(31)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    state = random_state(5, seed=32)
    for targets in ((3, 0, 4), (1, 2, 0)):
        np.testing.assert_allclose(dense_oracle(state.amplitudes, 5, targets, matrix),
                                   kron_oracle(5, targets, matrix) @ state.amplitudes,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 5, 6, 7, 9, 12])
@pytest.mark.parametrize("word", GATE_WORDS)
def test_plan_kernels_match_dense_oracle_on_every_bit(num_qubits, word):
    # U, its adjoint, the factor D and dU = D U with its adjoint, bound from
    # the gate's plan, against exp(i theta A), its conjugate transpose, i A,
    # i A exp(i theta A) and its conjugate transpose, at theta = 0, at pi
    # over the scale (U = -I for a rotation) and at a large theta; U then
    # U^dagger gives the state back
    if word in ("crx", "cry", "crz") and num_qubits < 2:
        pytest.skip("needs a control")
    for qubit in range(num_qubits):
        for gate in word_gates(word, qubit, num_qubits):
            generator = generator_matrix(gate)
            scale = getattr(gate, "scale", 1.0)
            for theta in (0.0, np.pi / scale, 123.456):
                unitary, derivative = gate.unitary(theta), gate.derivative(theta)
                expected = scipy.linalg.expm(1j * theta * generator)
                slope = 1j * generator @ expected
                cases = ((unitary, expected), (unitary.adjoint(), expected.conj().T),
                         (gate.derivative_factor, 1j * generator),
                         (derivative, slope), (derivative.adjoint(), slope.conj().T))
                for op, matrix in cases:
                    np.testing.assert_allclose(op.matrix, matrix, rtol=0, atol=1e-12)
                    state = random_state(num_qubits, seed=qubit)
                    wanted = dense_oracle(state.amplitudes, num_qubits, op.targets, matrix)
                    apply_operator(state, op, OpCounter())
                    np.testing.assert_allclose(state.amplitudes, wanted, rtol=0, atol=1e-12)
                state = random_state(num_qubits, seed=qubit)
                before = state.amplitudes.copy()
                apply_operator(state, unitary, OpCounter())
                apply_operator(state, unitary.adjoint(), OpCounter())
                np.testing.assert_allclose(state.amplitudes, before, rtol=0, atol=1e-15)


def matrix_family(matrix, targets, num_qubits):
    """The kernel family a matrix picks by its own entries, the rule before
    plans: diagonal, else a one-target plane rotation on the rotation path,
    else dense."""
    if np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal()):
        return "_diagonal_kernel"
    if len(targets) == 1 and _rotation_layout(targets[0], num_qubits):
        (m00, m01), (m10, m11) = matrix
        if (m00 == m11 and not m00.imag and m10 == -m01.conjugate()
                and not (m01.real and m01.imag)):
            return "_rotation_kernel"
    return "_dense_kernel"


@pytest.mark.parametrize("word", GATE_WORDS)
def test_plans_pick_the_matrix_rule_family_on_wide_registers(word):
    # at N = 18 and a theta where no entry vanishes, each bit's U, U^dagger,
    # D, dU and dU^dagger keep the family their matrices picked before plans
    num_qubits = 18
    for qubit in range(num_qubits):
        for gate in word_gates(word, qubit, num_qubits):
            unitary, derivative = gate.unitary(0.7), gate.derivative(0.7)
            for op in (unitary, unitary.adjoint(), gate.derivative_factor,
                       derivative, derivative.adjoint()):
                assert kernel_name(op, num_qubits) == matrix_family(op.matrix, op.targets,
                                                                    num_qubits), (word, qubit)


def test_binding_twice_builds_each_plan_once_per_register_size(monkeypatch):
    # gates of one axis and control share a basis, whose plan per N every
    # binding of every such gate reuses: U, U^dagger, D, dU and dU^dagger; a
    # gen gate's spectral basis and its factor D = i A are built once per gate
    import qngsim.gates
    import qngsim.statevector
    from qngsim.ansatz import AnsatzCircuit

    built = []
    original = qngsim.statevector._kernel_plan

    def counting(terms, targets, real, num_qubits):
        built.append((targets, id(terms), real, num_qubits))
        return original(terms, targets, real, num_qubits)

    qngsim.gates._rotation_basis.cache_clear()
    monkeypatch.setattr(qngsim.statevector, "_kernel_plan", counting)
    generated = GeneratedGate(PauliSum(((0.3, PauliString.parse("X0 Y1")),
                                        (-0.2, PauliString.single(2, "Z")))))
    circuit = AnsatzCircuit(3, random_circuit(3, 15, 41).gates + (generated,))
    bases = {id(basis): basis for gate in circuit.gates
             for basis in (gate._basis, gate.derivative_factor._basis)}.values()
    sizes = (3, 5)
    counts = []
    for seed in (42, 43):
        bound = circuit.bind(random_parameters(16, seed))
        factors = tuple(gate.derivative_factor for gate in circuit.gates)
        for num_qubits in sizes:
            state = random_state(num_qubits, seed=seed)
            for op in (bound.unitaries + bound.adjoints + factors + bound.derivatives
                       + bound.derivative_adjoints):
                apply_operator(state, op, OpCounter())
        counts.append(len(built))
    assert len(bases) < circuit.num_parameters
    assert sorted(built) == sorted((basis.targets, id(basis.terms), basis.real, num_qubits)
                                   for basis in bases for num_qubits in sizes)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("num_qubits", [2, 4, 8])
@pytest.mark.parametrize("word", ["X0", "Y1", "Z0", "X0 Z1", "Y0 Y1", "Z1 X0"])
def test_pauli_string_operator_matches_dense_oracle(num_qubits, word):
    from qngsim.gates import PauliString

    string = PauliString.parse(word)
    dense = string.dense_matrix()
    support = string.qubits
    # strings used here have contiguous support starting at 0 or 1
    low = min(support)
    span = max(support) - low + 1
    full = np.kron(
        np.kron(np.eye(1 << (num_qubits - low - span)), dense), np.eye(1 << low)
    )
    state = random_state(num_qubits, seed=hash(word) % 1000)
    expected = full @ state.amplitudes
    apply_operator(state, string.operator(), OpCounter())
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def pauli_kron_oracle(num_qubits, word):
    """Full matrix of a Pauli word, one 2x2 factor per qubit from the top down."""
    from qngsim.gates import PauliString

    labels = dict(PauliString.parse(word).factors)
    single = {"I": np.eye(2), "X": X, "Y": Y, "Z": Z}
    return reduce(np.kron, [single[labels.get(q, "I")] for q in reversed(range(num_qubits))])


@pytest.mark.parametrize("num_qubits", [7, 10])
@pytest.mark.parametrize("word", [
    "X0 Z2 Y5", "Y6", "X6", "Z6", "Y1 Z3 Y4 X6", "X0 X6", "Y0 Y6", "Z1 Z5 Z6",
    "all Z", "all Y", "all X", "mixed",
])
def test_pauli_string_operator_matches_kron_oracle(num_qubits, word):
    # non-contiguous, high-qubit and full-width strings, on both sides of the
    # split of the register into rows and columns (at bit 6 for N = 7 and 10)
    from qngsim.gates import PauliString

    everywhere = range(num_qubits)
    if word.startswith("all "):
        word = " ".join(f"{word[-1]}{q}" for q in everywhere)
    elif word == "mixed":
        word = " ".join(f"{'XYZ'[q % 3]}{q}" for q in everywhere)
    state = random_state(num_qubits, seed=len(word) + num_qubits)
    expected = pauli_kron_oracle(num_qubits, word) @ state.amplitudes
    apply_operator(state, PauliString.parse(word).operator(), OpCounter())
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


def test_pauli_string_operator_self_adjoint_and_involution():
    from qngsim.gates import PauliString

    op = PauliString.parse("Y0 X2 Z3").operator()
    assert op.adjoint() is op
    state = random_state(4, seed=17)
    before = state.amplitudes.copy()
    counter = OpCounter()
    apply_operator(state, op, counter)
    apply_operator(state, op, counter)
    np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def test_counter_exact_after_scripted_sequence():
    counter = OpCounter()
    state = make_basis_state(2, 0)
    work = Statevector(2)
    op = MatrixGateOperator((0,), X)
    for _ in range(7):
        apply_operator(state, op, counter)
    for _ in range(4):
        clone_into(state, work, counter)
    for _ in range(3):
        inner_product(state, work, counter)
    assert counter.as_tuple() == (7, 4, 3)
    assert counter.gates_plus_clones == 11


def test_counter_reset():
    counter = OpCounter()
    apply_operator(make_basis_state(1, 0), MatrixGateOperator((0,), X), counter)
    counter.reset()
    assert counter.as_tuple() == (0, 0, 0)


# ---------------------------------------------------------------------------
# Norm behavior
# ---------------------------------------------------------------------------


def test_unitary_sequences_preserve_norm():
    rng = np.random.default_rng(18)
    counter = OpCounter()
    state = make_basis_state(4, 0)
    paulis = [X, Y, Z]
    for _ in range(200):
        sigma = paulis[rng.integers(0, 3)]
        theta = rng.uniform(0, 2 * np.pi)
        gate = np.cos(theta / 2) * np.eye(2) + 1j * np.sin(theta / 2) * sigma
        apply_operator(state, MatrixGateOperator((int(rng.integers(0, 4)),), gate), counter)
    assert abs(state.norm() - 1.0) <= 1e-12


def test_statevector_never_normalizes_derivative_images():
    state = Statevector(1, np.array([0.1, 0.0], dtype=complex))
    assert state.norm() == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Allocation tracking
# ---------------------------------------------------------------------------


def test_allocation_tracking_counts_kinds():
    with track_allocations() as tally:
        keep = [Statevector.zeros(2) for _ in range(3)]
        make_basis_state(2, 0, kind="input")
    assert tally.total_allocated("workspace") == 3
    assert tally.total_allocated("input") == 1
    assert tally.total_allocated() == 4
    assert tally.peak_live("workspace") == 3
    del keep


def test_allocation_tracking_peak_reflects_frees():
    with track_allocations() as tally:
        for _ in range(5):
            transient = Statevector.zeros(2)
            del transient
    assert tally.total_allocated("workspace") == 5
    assert tally.peak_live("workspace") == 1


def test_allocation_tracking_scoped():
    Statevector.zeros(1)
    with track_allocations() as tally:
        Statevector.zeros(1)
    Statevector.zeros(1)
    assert tally.total_allocated() == 1


def test_budget_refuses_a_register_before_recording_it():
    # the inner tally has no budget, the outer one room for two 64-byte
    # registers: every active tally is asked before the buffer is allocated
    with track_allocations(budget_bytes=128) as outer, track_allocations() as inner:
        keep = [Statevector.zeros(2), Statevector(2, np.ones(4))]
        with pytest.raises(ResourceLimitError, match="2-qubit register"):
            Statevector.zeros(2)
        assert (outer.total_allocated(), inner.total_allocated()) == (2, 2)
        assert (outer.live_bytes, inner.live_bytes) == (128, 128)
        del keep[0]
        keep.append(Statevector.zeros(2))
    assert outer.peak_bytes == inner.peak_bytes == 128


def test_register_numpy_cannot_size_is_resource_limit():
    with pytest.raises(ResourceLimitError, match="100-qubit"):
        Statevector.zeros(100)


@pytest.mark.parametrize("budget", [None, 1 << 20])
@pytest.mark.parametrize("make", [Statevector, lambda n: make_basis_state(n, 0)],
                         ids=["register", "basis_state"])
def test_register_too_large_to_size_is_resource_limit(make, budget):
    # refused before 2**N or its byte count is built as a Python integer
    with track_allocations(budget) as tally, pytest.raises(ResourceLimitError,
                                                            match="too large to allocate"):
        make(10**41)
    assert tally.total_allocated() == 0


# ---------------------------------------------------------------------------
# Cost-model sanity: apply time grows with the register size
# ---------------------------------------------------------------------------


def _ry_apply(num_qubits):
    """A state and an ry on its middle qubit, ready to time."""
    state = Statevector(
        num_qubits,
        np.full(1 << num_qubits, (1 << num_qubits) ** -0.5, dtype=complex),
    )
    gate = np.cos(0.37) * np.eye(2) + 1j * np.sin(0.37) * Y
    return state, MatrixGateOperator((num_qubits // 2,), gate)


def _seconds(state, op, counter):
    start = time.perf_counter()
    apply_operator(state, op, counter)
    return time.perf_counter() - start


def test_apply_walltime_tracks_register_size():
    # two more register doublings should cost ~4x, within a factor of two;
    # the two sizes are timed sample by sample (21 at N = 18, 11 at N = 20,
    # one every other round), so a load change on the host moves both alike
    small_case, large_case = _ry_apply(18), _ry_apply(20)
    counter = OpCounter()
    small, large = [], []
    for round_ in range(21):
        small.append(_seconds(*small_case, counter))
        if round_ % 2 == 0:
            large.append(_seconds(*large_case, counter))
    ratio = float(np.median(large)) / float(np.median(small))
    assert 2.0 <= ratio <= 8.0, f"wall-time ratio {ratio:.2f} outside [2, 8]"
