"""Gate families: unitaries, derivatives vs finite differences, diagonal values."""

import numpy as np
import pytest
import scipy.linalg

from qngsim.errors import UnsupportedGateError
from qngsim.gates import (
    ControlledPauliRotation,
    GeneratedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)
from qngsim.statevector import OpCounter, Statevector, apply_operator, make_basis_state

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


def acted(state, operator):
    out = state.copy()
    apply_operator(out, operator, OpCounter())
    return out.amplitudes


def gate_pool(num_qubits=3):
    """One representative of every gate kind, on a few qubits."""
    return [
        PauliRotation(PauliString.single(0, "X")),
        PauliRotation(PauliString.single(num_qubits - 1, "Y"), scale=0.3),
        PauliRotation(PauliString.parse("X0 Z2")),
        ControlledPauliRotation(0, PauliString.single(1, "Z")),
        ControlledPauliRotation(2, PauliString.parse("Y0 X1"), scale=-0.7),
        PauliRotation(PauliString.single(1, "X"), phase_rate=0.7),
        PauliRotation(PauliString.single(0, "Z"), scale=0.5, phase_rate=-0.25),
        GeneratedGate(PauliSum(((0.5, PauliString.single(0, "X")),))),
        # non-commuting two-term generator: exercises the exact derivative
        GeneratedGate(PauliSum((
            (0.3, PauliString.single(0, "X")),
            (-0.2, PauliString.parse("Z0 Y1")),
        ))),
    ]


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------


def test_pauli_string_normalizes_and_validates():
    string = PauliString(((2, "y"), (0, "x")))
    assert string.factors == ((0, "X"), (2, "Y"))
    assert string.qubits == (0, 2)
    with pytest.raises(ValueError):
        PauliString(((0, "X"), (0, "Z")))
    with pytest.raises(ValueError):
        PauliString(((0, "Q"),))


def test_pauli_string_parse_and_str():
    assert str(PauliString.parse("X0 Y2")) == "X0 Y2"
    assert PauliString.parse("").is_identity
    with pytest.raises(ValueError):
        PauliString.parse("W1")


def test_pauli_string_self_inverse():
    counter = OpCounter()
    for word in ("X0", "Y1", "Z0 Z1", "X0 Y1 Z2"):
        op = PauliString.parse(word).operator()
        state = random_state(3, seed=len(word))
        before = state.amplitudes.copy()
        apply_operator(state, op, counter)
        apply_operator(state, op, counter)
        np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


def test_pauli_string_dense_matrix_small_cases():
    np.testing.assert_array_equal(PauliString.single(0, "X").dense_matrix(), X)
    # X on qubit 0, Z on qubit 1: matrix bit 0 is qubit 0
    xz = PauliString.parse("X0 Z1").dense_matrix()
    z = np.diag([1, -1]).astype(complex)
    np.testing.assert_array_equal(xz, np.kron(z, X))


def test_pauli_string_dense_matrix_guard():
    wide = PauliString(tuple((q, "Z") for q in range(7)))
    with pytest.raises(UnsupportedGateError):
        wide.dense_matrix()


# ---------------------------------------------------------------------------
# Unitaries
# ---------------------------------------------------------------------------


def test_rotation_at_zero_is_identity():
    gate = PauliRotation(PauliString.single(0, "X"))
    state = random_state(1, seed=0)
    np.testing.assert_allclose(acted(state, gate.unitary(0.0)), state.amplitudes,
                               atol=1e-15)


def test_rotation_at_pi_acts_as_i_times_axis():
    # exp(i*pi/2*X) = iX under the scale-1/2 convention
    gate = PauliRotation(PauliString.single(0, "X"))
    oracle = scipy.linalg.expm(1j * (np.pi / 2) * X)
    np.testing.assert_allclose(gate.unitary(np.pi).matrix, oracle, atol=1e-12)
    np.testing.assert_allclose(gate.unitary(np.pi).matrix, 1j * X, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.37, -1.2, np.pi])
def test_rotation_matches_expm_oracle(theta):
    for gate in gate_pool():
        if not isinstance(gate, PauliRotation):
            continue
        sigma = gate.axis.dense_matrix()
        oracle = scipy.linalg.expm(1j * theta * (gate.phase_rate * np.eye(len(sigma))
                                                 + gate.scale * sigma))
        np.testing.assert_allclose(gate.unitary(theta).matrix, oracle, atol=1e-12)


def test_controlled_rotation_leaves_control_zero_alone():
    gate = ControlledPauliRotation(0, PauliString.single(1, "Z"))
    state = make_basis_state(2, 0)  # |00>, control qubit 0 is off
    np.testing.assert_allclose(acted(state, gate.unitary(1.3)), state.amplitudes,
                               atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.45, 2.2, -0.8])
def test_unitary_then_adjoint_is_identity(theta):
    for index, gate in enumerate(gate_pool()):
        state = random_state(3, seed=100 + index)
        forward = gate.unitary(theta)
        out = state.copy()
        apply_operator(out, forward, OpCounter())
        apply_operator(out, forward.adjoint(), OpCounter())
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def test_rotation_derivative_at_zero():
    # U(0) = I, so dU/dtheta at 0 is (i/2) X for a scale-1/2 X rotation
    gate = PauliRotation(PauliString.single(0, "X"))
    np.testing.assert_allclose(gate.derivative(0.0).matrix, 0.5j * X, atol=1e-15)


def test_controlled_derivative_annihilates_control_zero():
    gate = ControlledPauliRotation(0, PauliString.single(1, "X"))
    state = make_basis_state(2, 2)  # |10>: control qubit 0 is 0
    out = acted(state, gate.derivative(0.9))
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-15)


def test_derivatives_match_finite_differences_on_random_states():
    # 100 random (gate, theta) draws across all kinds; h = 1e-5, tol 1e-7
    rng = np.random.default_rng(42)
    pool = gate_pool()
    step = 1e-5
    draws = 0
    while draws < 100:
        gate = pool[rng.integers(0, len(pool))]
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        state = random_state(3, seed=int(rng.integers(0, 2**31)))
        plus = acted(state, gate.unitary(theta + step))
        minus = acted(state, gate.unitary(theta - step))
        oracle = (plus - minus) / (2 * step)
        computed = acted(state, gate.derivative(theta))
        np.testing.assert_allclose(computed, oracle, atol=1e-7)
        draws += 1


@pytest.mark.parametrize("theta", [0.0, 0.6, -1.9])
def test_derivative_factor_composition(theta):
    # dU/dtheta must equal the factor applied after the unitary
    for index, gate in enumerate(gate_pool()):
        state = random_state(3, seed=40 + index)
        direct = acted(state, gate.derivative(theta))
        staged = state.copy()
        counter = OpCounter()
        apply_operator(staged, gate.unitary(theta), counter)
        apply_operator(staged, gate.derivative_factor, counter)
        np.testing.assert_allclose(staged.amplitudes, direct, atol=1e-12)


def test_derivative_factor_is_built_once_per_gate():
    for gate in gate_pool():
        assert gate.derivative_factor is gate.derivative_factor


def test_phased_rotation_product_rule():
    gate = PauliRotation(PauliString.single(0, "X"), phase_rate=0.7)
    theta = 0.9
    plain = PauliRotation(PauliString.single(0, "X"))
    expected = (
        0.7j * np.exp(0.7j * theta) * plain.unitary(theta).matrix
        + np.exp(0.7j * theta) * plain.derivative(theta).matrix
    )
    np.testing.assert_allclose(gate.derivative(theta).matrix, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Diagonal values
# ---------------------------------------------------------------------------


def diagonal(gate, state):
    # <phi|phi> for |phi> = D|state>: the L_jj every tensor route reads, with
    # ``state`` the state just after the gate
    phi = acted(state, gate.derivative_factor)
    return np.vdot(phi, phi).real


def test_rotation_diagonal_is_scale_squared():
    gate = PauliRotation(PauliString.single(0, "Z"))
    for seed in range(3):
        assert diagonal(gate, random_state(1, seed)) == pytest.approx(0.25)
    assert diagonal(PauliRotation(PauliString.single(0, "X"), scale=0.3),
                    make_basis_state(1, 0)) == pytest.approx(0.09)


def test_controlled_diagonal_from_plus_state():
    # control in |+>: p1 = 1/2, so the value is (1/2)^2 * 1/2 = 0.125
    gate = ControlledPauliRotation(0, PauliString.single(1, "Z"))
    state = Statevector(2, np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2))
    assert diagonal(gate, state) == pytest.approx(0.125)


def test_controlled_diagonal_control_never_one():
    gate = ControlledPauliRotation(0, PauliString.single(1, "Z"))
    assert diagonal(gate, make_basis_state(2, 0)) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(6))
def test_diagonal_matches_explicit_derivative_norm(seed):
    # <phi|phi> with |phi> = dU |pre> equals ||D U|pre>||^2, and scale^2 for a
    # rotation or scale^2 * p1 for a controlled one, p1 read from U|pre>
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0, 2 * np.pi))
    pre = random_state(3, seed=200 + seed)
    for gate in (PauliRotation(PauliString.single(int(rng.integers(0, 3)), "Y")),
                 ControlledPauliRotation(0, PauliString.single(1, "X"))):
        phi = acted(pre, gate.derivative(theta))
        post = Statevector(3, acted(pre, gate.unitary(theta)))
        p1 = np.sum(np.abs(post.amplitudes[1::2]) ** 2)  # qubit 0 reads 1
        analytic = 0.25 * (p1 if isinstance(gate, ControlledPauliRotation) else 1.0)
        assert np.vdot(phi, phi).real == pytest.approx(diagonal(gate, post), abs=1e-12)
        assert np.vdot(phi, phi).real == pytest.approx(analytic, abs=1e-12)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_generated_gate_unitary_matches_expm_oracle():
    gate = GeneratedGate(PauliSum((
        (0.3, PauliString.parse("X0 Y1")),
        (-0.2, PauliString.single(0, "Z")),
    )))
    theta = 0.8
    x0y1 = np.kron(np.array([[0, -1j], [1j, 0]]), X)
    z0 = np.kron(np.eye(2), np.diag([1, -1])).astype(complex)
    generator = 0.3 * x0y1 - 0.2 * z0
    oracle = scipy.linalg.expm(1j * theta * generator)
    slope = 1j * generator @ oracle
    unitary, derivative = gate.unitary(theta), gate.derivative(theta)
    np.testing.assert_allclose(unitary.matrix, oracle, atol=1e-12)
    np.testing.assert_allclose(derivative.matrix, slope, atol=1e-12)
    np.testing.assert_allclose(unitary.adjoint().matrix, oracle.conj().T, atol=1e-12)
    np.testing.assert_allclose(derivative.adjoint().matrix, slope.conj().T, atol=1e-12)
    np.testing.assert_array_equal(gate.derivative_factor.matrix, 1j * generator)


def test_generated_gate_support_limit():
    terms = tuple((0.1, PauliString.single(q, "X")) for q in range(4))
    with pytest.raises(UnsupportedGateError):
        GeneratedGate(PauliSum(terms))


def test_generator_requires_terms():
    with pytest.raises(ValueError, match="at least one term"):
        GeneratedGate(PauliSum(()))
    with pytest.raises(ValueError, match="at least one qubit"):
        GeneratedGate(PauliSum(((0.5, PauliString.parse("")),)))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_pauli_sum_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError, match="finite"):
        PauliSum(((weight, PauliString.single(0, "Z")),))


@pytest.mark.parametrize("weights", [(1e308, 1e308), (1e308, -1e308), (-1.7e308,) * 3])
def test_pauli_sum_rejects_an_overflowing_absolute_sum(weights):
    # each weight is finite, but the sum of their sizes, which bounds the
    # norm of the operator, is not
    with pytest.raises(ValueError, match="absolute sum of the weights overflows"):
        PauliSum(tuple((weight, PauliString.single(0, "Z")) for weight in weights))
    PauliSum(((weights[0], PauliString.single(0, "Z")),))


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_rotations_reject_non_finite_scale(scale):
    with pytest.raises(ValueError, match="scale must be finite"):
        PauliRotation(PauliString.single(0, "X"), scale=scale)
    with pytest.raises(ValueError, match="scale must be finite"):
        ControlledPauliRotation(1, PauliString.single(0, "Y"), scale=scale)
