"""Circuit construction, state preparation, seeded generators."""

import numpy as np
import pytest

from qngsim.ansatz import (
    AnsatzCircuit,
    phased_variant,
    prepare_ansatz_state,
    random_circuit,
    random_layered_circuit,
    random_parameters,
)
from qngsim.gates import (
    ControlledPauliRotation,
    PauliRotation,
    PauliString,
)
from qngsim.statevector import OpCounter


def rx_circuit(count=1):
    gate = PauliRotation(PauliString.single(0, "X"))
    return AnsatzCircuit(1, tuple(gate for _ in range(count)))


def test_circuit_validation():
    with pytest.raises(ValueError):
        AnsatzCircuit(1, ())
    with pytest.raises(ValueError):
        AnsatzCircuit(1, (PauliRotation(PauliString.single(1, "X")),))
    with pytest.raises(ValueError):
        AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X")),), input_basis=2)


def test_prepare_identity_rotation():
    state = prepare_ansatz_state(rx_circuit(), [0.0], OpCounter())
    np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-15)


def test_prepare_rx_pi_gives_i_one():
    # exp(i*pi/2*X)|0> = i|1>
    state = prepare_ansatz_state(rx_circuit(), [np.pi], OpCounter())
    np.testing.assert_allclose(state.amplitudes, [0, 1j], atol=1e-12)


def test_prepare_inverse_pair_returns_input():
    state = prepare_ansatz_state(rx_circuit(2), [np.pi, -np.pi], OpCounter())
    np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-12)


def test_prepare_counts_exactly_p_gates():
    counter = OpCounter()
    circuit = random_circuit(3, 9, seed_or_rng=0)
    prepare_ansatz_state(circuit, random_parameters(9, 1), counter)
    assert counter.gate_applications == 9
    assert counter.clones == 0


def test_prepare_parameter_length_mismatch():
    with pytest.raises(ValueError):
        prepare_ansatz_state(rx_circuit(2), [0.1], OpCounter())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bind_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="parameter 1 .* must be finite"):
        rx_circuit(2).bind([0.1, bad])


def test_bind_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected 2 parameters"):
        rx_circuit(2).bind([0.1])
    with pytest.raises(ValueError, match="expected 2 parameters"):
        rx_circuit(2).bind([[0.1, 0.2]])


def test_bind_copies_and_freezes_theta():
    params = np.array([0.1, 0.2])
    bound = rx_circuit(2).bind(params)
    params[0] = 5.0
    np.testing.assert_array_equal(bound.theta, [0.1, 0.2])
    assert not bound.theta.flags.writeable


def test_bound_operators_built_once_and_match_gates():
    circuit = random_circuit(3, 6, seed_or_rng=4)
    params = random_parameters(6, 5)
    bound = circuit.bind(params)
    assert bound.unitaries is bound.unitaries
    assert bound.adjoints is bound.adjoints
    for k, gate in enumerate(circuit.gates):
        np.testing.assert_array_equal(bound.unitaries[k].matrix,
                                      gate.unitary(params[k]).matrix)
        np.testing.assert_array_equal(bound.derivatives[k].matrix,
                                      gate.derivative(params[k]).matrix)
        np.testing.assert_array_equal(bound.adjoints[k].matrix,
                                      bound.unitaries[k].matrix.conj().T)
        np.testing.assert_array_equal(bound.derivative_adjoints[k].matrix,
                                      bound.derivatives[k].matrix.conj().T)


def test_bound_prepare_counts_upto_gates():
    circuit = random_circuit(3, 7, seed_or_rng=2)
    bound = circuit.bind(random_parameters(7, 3))
    counter = OpCounter()
    full = bound.prepare(counter)
    assert counter.gate_applications == 7
    np.testing.assert_array_equal(
        full.amplitudes, prepare_ansatz_state(circuit, bound.theta, OpCounter()).amplitudes)
    counter.reset()
    bound.prepare(counter, upto=3)
    assert counter.gate_applications == 3


def test_random_circuit_rejects_zero_qubits():
    with pytest.raises(ValueError, match="num_qubits"):
        random_circuit(0, 2, seed_or_rng=0)


def test_partial_state_zero_is_input():
    circuit = AnsatzCircuit(2, rx_circuit(2).gates, input_basis=3)
    state = circuit.bind([0.4, 0.9]).prepare(OpCounter(), upto=0)
    np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])


def test_partial_state_full_equals_prepare():
    circuit = random_circuit(3, 7, seed_or_rng=2)
    params = random_parameters(7, 3)
    full = prepare_ansatz_state(circuit, params, OpCounter())
    partial = circuit.bind(params).prepare(OpCounter(), upto=7)
    np.testing.assert_array_equal(partial.amplitudes, full.amplitudes)


def test_partial_state_one_gate():
    state = rx_circuit(2).bind([np.pi, -np.pi]).prepare(OpCounter(), upto=1)
    np.testing.assert_allclose(state.amplitudes, [0, 1j], atol=1e-12)


def test_partial_state_range_errors():
    bound = rx_circuit(2).bind([0.1, 0.2])
    with pytest.raises(ValueError):
        bound.prepare(OpCounter(), upto=3)
    with pytest.raises(ValueError):
        bound.prepare(OpCounter(), upto=-1)


@pytest.mark.parametrize("seed", range(4))
def test_partial_state_recurrence(seed):
    # each partial state is the previous one advanced by a single gate
    from qngsim.statevector import apply_operator

    circuit = random_circuit(3, 8, seed_or_rng=seed)
    params = random_parameters(8, seed + 10)
    bound = circuit.bind(params)
    previous = bound.prepare(OpCounter(), upto=0)
    for i in range(8):
        apply_operator(previous, circuit.gates[i].unitary(params[i]), OpCounter())
        direct = bound.prepare(OpCounter(), upto=i + 1)
        np.testing.assert_allclose(previous.amplitudes, direct.amplitudes, atol=1e-12)


def test_prepared_state_is_normalized():
    circuit = random_circuit(4, 12, seed_or_rng=5)
    state = prepare_ansatz_state(circuit, random_parameters(12, 6), OpCounter())
    assert abs(state.norm() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def test_random_circuit_exact_gate_count_and_determinism():
    a = random_circuit(4, 13, seed_or_rng=7)
    b = random_circuit(4, 13, seed_or_rng=7)
    assert a.num_parameters == 13
    assert a.gates == b.gates


def test_random_circuit_layer_pattern():
    # N rotations, then a ring of controlled-Z rotations, repeating
    circuit = random_circuit(3, 12, seed_or_rng=8)
    kinds = [type(g) for g in circuit.gates]
    assert kinds[:3] == [PauliRotation] * 3
    assert kinds[3:6] == [ControlledPauliRotation] * 3
    assert kinds[6:9] == [PauliRotation] * 3
    ring = circuit.gates[3:6]
    assert [(g.control, g.axis.qubits[0]) for g in ring] == [(0, 1), (1, 2), (2, 0)]
    assert all(g.axis.factors[0][1] == "Z" for g in ring)


def test_random_circuit_single_qubit_has_no_entanglers():
    circuit = random_circuit(1, 6, seed_or_rng=9)
    assert all(isinstance(g, PauliRotation) for g in circuit.gates)


def test_random_layered_circuit_sizes():
    assert random_layered_circuit(2, 3, 0).num_parameters == 12
    assert random_layered_circuit(1, 3, 0).num_parameters == 3
    assert random_layered_circuit(3, 2, 0, include_controlled=False).num_parameters == 6


def test_random_parameters_range_and_determinism():
    a = random_parameters(50, 11)
    b = random_parameters(50, 11)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0) & (a < 2 * np.pi))


def test_phased_variant_conversion():
    circuit = random_circuit(2, 4, seed_or_rng=12, include_controlled=False)
    phased = phased_variant(circuit, 0.7)
    assert all(isinstance(g, PauliRotation) for g in phased.gates)
    assert all(g.phase_rate == 0.7 for g in phased.gates)
    # rate 0 reproduces the plain circuit's states exactly
    params = random_parameters(4, 13)
    plain_state = prepare_ansatz_state(circuit, params, OpCounter())
    zero_rate = prepare_ansatz_state(phased_variant(circuit, 0.0), params, OpCounter())
    np.testing.assert_allclose(zero_rate.amplitudes, plain_state.amplitudes, atol=1e-12)


def test_phased_variant_rejects_controlled_gates():
    circuit = random_circuit(2, 4, seed_or_rng=14)  # contains a ring layer
    with pytest.raises(ValueError):
        phased_variant(circuit, 0.7)
