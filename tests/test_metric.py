"""The main recurrent tensor evaluation: oracles, invariants, costs, registers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qngsim.ansatz import (
    AnsatzCircuit,
    phased_variant,
    random_circuit,
    random_parameters,
)
from qngsim.baselines import BaselineId, compute_li_tensor, cost_model, naive_full_li_matrix
from qngsim.errors import ResourceLimitError
from qngsim.gates import ControlledPauliRotation, PauliRotation, PauliString
from qngsim.metric import (
    blocked_tensor_cost,
    blocked_tensor_registers,
    compute_berry_vector,
    compute_geometric_tensor,
    compute_geometric_tensor_blocked,
    compute_geometric_tensor_costate,
    compute_geometric_tensor_main,
    costate_tensor_cost,
    main_algorithm_cost,
    read_tensor_binary,
    tensor_matrix,
    write_tensor_binary,
    write_tensor_csv,
)
from qngsim.statevector import OpCounter, track_allocations
from qngsim.verify import finite_difference_tensor

from circuit_strategies import blocked_cases


def rx_circuit():
    return AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X")),))


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.7, -2.4])
def test_single_rx_tensor_is_quarter(theta):
    tensor = compute_geometric_tensor_main(rx_circuit(), [theta], OpCounter())
    np.testing.assert_allclose(tensor.matrix, [[0.25]], atol=1e-12)
    np.testing.assert_allclose(tensor.berry, [0.0], atol=1e-12)
    oracle = finite_difference_tensor(rx_circuit(), [theta])
    np.testing.assert_allclose(tensor.matrix, oracle, atol=1e-6)


def test_rz_then_rx_at_zero_matches_finite_differences():
    circuit = AnsatzCircuit(1, (
        PauliRotation(PauliString.single(0, "Z")),
        PauliRotation(PauliString.single(0, "X")),
    ))
    tensor = compute_geometric_tensor_main(circuit, [0.0, 0.0], OpCounter())
    oracle = finite_difference_tensor(circuit, [0.0, 0.0])
    np.testing.assert_allclose(tensor.matrix, oracle, atol=1e-6)


def test_single_phased_rotation_berry_entry():
    # phase term contributes i/2; the axis term averages to zero on |0>
    gate = PauliRotation(PauliString.single(0, "X"), phase_rate=0.5)
    circuit = AnsatzCircuit(1, (gate,))
    for theta in (0.0, 0.8, -1.3):
        berry = compute_berry_vector(circuit, [theta], OpCounter())
        np.testing.assert_allclose(berry, [0.5j], atol=1e-12)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_tensor_matches_naive_route(seed):
    # G from the recurrent algorithm vs (full naive L) - conj(T) T
    rng = np.random.default_rng([31, seed])
    circuit = random_circuit(4, 8, rng)
    params = random_parameters(8, rng)
    tensor = compute_geometric_tensor_main(circuit, params, OpCounter())
    full = naive_full_li_matrix(circuit, params, OpCounter())
    berry = compute_berry_vector(circuit, params, OpCounter())
    oracle = full - np.outer(np.conj(berry), berry)
    np.testing.assert_allclose(tensor.matrix, oracle, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_tensor_matches_finite_differences(seed):
    rng = np.random.default_rng([32, seed])
    circuit = random_circuit(4, 8, rng)
    params = random_parameters(8, rng)
    tensor = compute_geometric_tensor_main(circuit, params, OpCounter())
    oracle = finite_difference_tensor(circuit, params)
    np.testing.assert_allclose(tensor.matrix, oracle, atol=1e-6)


def test_gauge_invariance_under_parameter_dependent_phase():
    rng = np.random.default_rng(33)
    circuit = random_circuit(3, 6, rng, include_controlled=False)
    params = random_parameters(6, rng)
    plain = compute_geometric_tensor_main(circuit, params, OpCounter())
    phased = compute_geometric_tensor_main(phased_variant(circuit, 0.7), params, OpCounter())
    assert np.max(np.abs(plain.matrix - phased.matrix)) <= 1e-9
    assert np.max(np.abs(plain.li - phased.li)) >= 1e-3
    assert np.max(np.abs(plain.berry - phased.berry)) >= 1e-3
    # rate 0 is the plain gate family in phased clothing
    zero = compute_geometric_tensor_main(phased_variant(circuit, 0.0), params, OpCounter())
    np.testing.assert_allclose(zero.matrix, plain.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_tensor_is_hermitian_by_construction():
    rng = np.random.default_rng(34)
    circuit = random_circuit(4, 10, rng)
    params = random_parameters(10, rng)
    matrix = compute_geometric_tensor_main(circuit, params, OpCounter()).matrix
    assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12


def test_tensor_hermitian_with_both_triangles_computed_independently():
    # debug route: the naive strategy evaluates all P^2 entries separately
    rng = np.random.default_rng(35)
    circuit = random_circuit(3, 6, rng)
    params = random_parameters(6, rng)
    full = naive_full_li_matrix(circuit, params, OpCounter())
    berry = compute_berry_vector(circuit, params, OpCounter())
    tensor = full - np.outer(np.conj(berry), berry)
    assert np.max(np.abs(tensor - tensor.conj().T)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_real_part_positive_semidefinite(seed):
    rng = np.random.default_rng([36, seed])
    circuit = random_circuit(4, 8, rng)
    params = random_parameters(8, rng)
    metric = compute_geometric_tensor_main(circuit, params, OpCounter()).fubini_study_metric
    assert np.min(np.linalg.eigvalsh(metric)) >= -1e-8


def test_berry_entries_purely_imaginary_for_rotation_circuits():
    rng = np.random.default_rng(37)
    circuit = random_circuit(3, 9, rng, include_controlled=False)
    params = random_parameters(9, rng)
    berry = compute_berry_vector(circuit, params, OpCounter())
    assert np.max(np.abs(berry.real)) <= 1e-10


def test_berry_vector_consistent_with_main_algorithm():
    rng = np.random.default_rng(38)
    circuit = random_circuit(3, 7, rng)
    params = random_parameters(7, rng)
    standalone = compute_berry_vector(circuit, params, OpCounter())
    main = compute_geometric_tensor_main(circuit, params, OpCounter())
    np.testing.assert_allclose(standalone, main.berry, atol=1e-12)


def test_berry_vector_linear_gate_cost():
    counter = OpCounter()
    circuit = random_circuit(3, 20, seed_or_rng=39)
    compute_berry_vector(circuit, random_parameters(20, 40), counter)
    assert counter.gate_applications <= 2 * 20 + 2
    assert counter.inner_products == 20


@settings(max_examples=40, deadline=None)
@given(blocked_cases(2, 4, 10))
def test_tensor_properties_on_random_circuits(case):
    circuit, params, block = case
    count = circuit.num_parameters
    counter = OpCounter()
    main = compute_geometric_tensor_main(circuit, params, counter)
    assert counter.as_tuple() == main_algorithm_cost(count)
    berry = compute_berry_vector(circuit, params, OpCounter())
    counter = OpCounter()
    with track_allocations() as tally:
        blocked = compute_geometric_tensor_blocked(circuit, params, counter, block)
    assert counter.as_tuple() == blocked_tensor_cost(count, block)
    assert tally.peak_live("workspace") == blocked_tensor_registers(count, block)
    counter = OpCounter()
    with track_allocations() as tally:
        costate = compute_geometric_tensor_costate(circuit, params, counter)
    assert counter.as_tuple() == costate_tensor_cost(count, circuit.num_qubits)
    assert tally.peak_live("workspace") == 2**circuit.num_qubits + 2
    overlaps = {"main": main.li, "blocked": blocked.li, "costate": costate.li}
    tensors = {"main": main.matrix, "blocked": blocked.matrix, "costate": costate.matrix}
    for alg in BaselineId:
        counter = OpCounter()
        li = compute_li_tensor(alg, circuit, params, counter)
        assert (counter.gate_applications, counter.clones) == cost_model(alg, count)[:2]
        overlaps[alg] = li
        tensors[alg] = tensor_matrix(li, berry)
    # every route mirrors the upper triangles of L and G and keeps only the
    # real part of their diagonals, so both are Hermitian bit for bit
    for matrix in (*overlaps.values(), *tensors.values()):
        assert np.array_equal(matrix, matrix.conj().T)
    for tensor in (main, blocked, costate):
        assert np.min(np.linalg.eigvalsh(tensor.fubini_study_metric)) >= -1e-10
    for tensor in (blocked, costate):
        np.testing.assert_allclose(tensor.berry, main.berry, rtol=0, atol=1e-10)
        np.testing.assert_allclose(tensor.li, main.li, rtol=0, atol=1e-10)
    oracle = finite_difference_tensor(circuit, params)
    for route in ("main", "blocked", "costate", BaselineId.ALG6, BaselineId.ALG8):
        np.testing.assert_allclose(tensors[route], main.matrix, rtol=0, atol=1e-10)
        np.testing.assert_allclose(tensors[route], oracle, rtol=0, atol=1e-6)


@pytest.mark.parametrize("route", [3, 128, "costate"])
def test_deep_tensor_is_hermitian_bit_for_bit(route):
    # 128 gates on 4 qubits, the shape of the narrow benchmark workload; the
    # two triangles of conj(T) T^T (or of J^dag J), formed separately, differ
    # in the last bit
    circuit = random_circuit(4, 128, seed_or_rng=np.random.default_rng([1, 0]))
    params = random_parameters(128, np.random.default_rng([1, 2]))
    if route == "costate":
        other = compute_geometric_tensor_costate(circuit, params, OpCounter())
    else:
        other = compute_geometric_tensor_blocked(circuit, params, OpCounter(), route)
    for tensor in (compute_geometric_tensor_main(circuit, params, OpCounter()), other):
        assert np.array_equal(tensor.matrix, tensor.matrix.conj().T)
        assert np.array_equal(tensor.li, tensor.li.conj().T)


@settings(max_examples=40, deadline=None)
@given(blocked_cases(2, 4, 10, kinds=("rotation", "phased")), st.floats(-1.0, 1.0))
def test_tensor_gauge_invariant_under_phased_variant(case, phase_rate):
    circuit, params, block = case
    for route in (compute_geometric_tensor_main, compute_geometric_tensor_costate,
                  lambda *args: compute_geometric_tensor_blocked(*args, block)):
        plain = route(circuit, params, OpCounter())
        phased = route(phased_variant(circuit, phase_rate), params, OpCounter())
        np.testing.assert_allclose(phased.matrix, plain.matrix, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Diagonal values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_shortcut_equivalence(seed):
    # the a-priori diagonal, scale^2 for a rotation and scale^2 * p1 for a
    # controlled one (p1 read from the state before the gate), equals the
    # L_jj that main and the blocked route read with an inner product
    rng = np.random.default_rng([41, seed])
    circuit = random_circuit(3, 8, rng)  # mixes plain and controlled rotations
    bound = circuit.bind(random_parameters(8, rng))
    expected = []
    for j, gate in enumerate(circuit.gates):
        p1 = 1.0
        if isinstance(gate, ControlledPauliRotation):
            amplitudes = bound.prepare(OpCounter(), upto=j).amplitudes
            p1 = np.sum(np.abs(amplitudes.reshape(-1, 2, 1 << gate.control)[:, 1]) ** 2)
        expected.append(gate.scale**2 * p1)
    for tensor in (compute_geometric_tensor_main(circuit, bound, OpCounter()),
                   compute_geometric_tensor_blocked(circuit, bound, OpCounter(), 3),
                   compute_geometric_tensor_costate(circuit, bound, OpCounter())):
        np.testing.assert_allclose(tensor.li.diagonal(), expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Cost and register accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_parameters", [1, 2, 3, 8, 17])
def test_primitive_counts_match_recorded_formulas(num_parameters):
    # main's counts depend on P alone, whatever the gate kinds
    rng = np.random.default_rng([46, num_parameters])
    mixed = random_circuit(3, num_parameters, rng)
    params = random_parameters(num_parameters, rng)
    rotations = random_circuit(3, num_parameters, rng, include_controlled=False)
    for circuit in (mixed, rotations, phased_variant(rotations, 0.3)):
        counter = OpCounter()
        compute_geometric_tensor_main(circuit, params, counter)
        assert counter.as_tuple() == main_algorithm_cost(num_parameters)


@pytest.mark.parametrize("num_parameters", [3, 17])
def test_exactly_five_workspace_registers(num_parameters):
    rng = np.random.default_rng([47, num_parameters])
    circuit = random_circuit(3, num_parameters, rng)
    params = random_parameters(num_parameters, rng)
    bound = circuit.bind(params)
    with track_allocations() as tally:
        compute_geometric_tensor_main(circuit, bound, OpCounter())
    assert tally.peak_live("workspace") == 5
    assert tally.total_allocated("workspace") == 5
    assert tally.total_allocated() == 6  # the circuit input is the only extra
    # main applies each gate's cached factor D, so it builds no per-theta dU
    assert not {"derivatives", "derivative_adjoints"} & set(vars(bound))


@pytest.mark.parametrize("route, registers", [("main", 6), ("blocked", 5), ("costate", 6)])
def test_budget_bounds_peak_register_bytes(route, registers):
    # every budget from zero to past the need, in half registers: a run
    # completes or is refused, and its live bytes never pass the budget;
    # it completes from its registers (the input included) of 64 bytes on
    circuit = random_circuit(2, 6, 71)
    params = random_parameters(6, 72)
    run = {"main": lambda: compute_geometric_tensor_main(circuit, params, OpCounter()),
           "blocked": lambda: compute_geometric_tensor_blocked(circuit, params, OpCounter(), 2),
           "costate": lambda: compute_geometric_tensor_costate(circuit, params, OpCounter())}
    completed = []
    for budget in range(0, 64 * (registers + 2), 32):
        with track_allocations(budget_bytes=budget) as tally:
            try:
                run[route]()
                completed.append(budget)
            except ResourceLimitError:
                pass
        assert tally.peak_bytes <= budget
        assert tally.live_bytes == 0
    assert min(completed) == 64 * registers


@pytest.mark.parametrize("num_parameters", [1, 2, 3, 8, 17])
def test_stored_route_counts_registers_and_builds(num_parameters):
    # B = P: psi and all P derivative states, no work register
    rng = np.random.default_rng([52, num_parameters])
    circuit = random_circuit(3, num_parameters, rng)
    bound = circuit.bind(random_parameters(num_parameters, rng))
    counter = OpCounter()
    with track_allocations() as tally:
        stored = compute_geometric_tensor_blocked(circuit, bound, counter, num_parameters)
    assert counter.as_tuple() == blocked_tensor_cost(num_parameters, num_parameters)
    assert tally.peak_live("workspace") == num_parameters + 1
    assert tally.total_allocated("workspace") == num_parameters + 1
    # the pass takes D_i from the gate, so a binding builds only its unitaries
    assert "unitaries" in vars(bound)
    assert not {"adjoints", "derivatives", "derivative_adjoints"} & set(vars(bound))
    main = compute_geometric_tensor_main(circuit, bound, OpCounter())
    np.testing.assert_allclose(stored.matrix, main.matrix, rtol=0, atol=1e-12)


def test_stored_tensor_cost_closed_form():
    # B = P: (P^2 + 3P)/2 gates, P + 1 clones, (P^2 + 3P)/2 inner products
    assert blocked_tensor_cost(1, 1) == (2, 2, 2)
    assert blocked_tensor_cost(128, 128) == (8384, 129, 8384)
    # alg8's forward pass is B = P's, so their gates and clones agree
    for p in (1, 2, 7, 100):
        assert blocked_tensor_cost(p, p)[:2] == cost_model(BaselineId.ALG8, p)[:2]


@pytest.mark.parametrize("num_parameters, block", [(1, 1), (7, 1), (7, 3), (7, 6), (7, 7),
                                                    (7, 9), (12, 4), (17, 3)])
def test_blocked_route_holds_its_registers_and_builds(num_parameters, block):
    # psi, min(B, P) live derivative states and, when B < P, one work
    # register, allocated once for all blocks, against a 5-register main
    rng = np.random.default_rng([54, num_parameters])
    circuit = random_circuit(3, num_parameters, rng)
    bound = circuit.bind(random_parameters(num_parameters, rng))
    counter = OpCounter()
    with track_allocations() as tally:
        blocked = compute_geometric_tensor_blocked(circuit, bound, counter, block)
    registers = min(block, num_parameters) + (2 if block < num_parameters else 1)
    assert blocked_tensor_registers(num_parameters, block) == registers
    assert tally.peak_live("workspace") == registers
    assert tally.total_allocated("workspace") == registers
    assert tally.total_allocated() == registers + 1  # and the circuit input
    assert counter.as_tuple() == blocked_tensor_cost(num_parameters, block)
    # the pass takes D_i from the gate, so a binding builds only its unitaries
    assert "unitaries" in vars(bound)
    assert not {"adjoints", "derivatives", "derivative_adjoints"} & set(vars(bound))
    main = compute_geometric_tensor_main(circuit, bound, OpCounter())
    np.testing.assert_allclose(blocked.matrix, main.matrix, rtol=0, atol=1e-12)


def test_blocked_tensor_cost_closed_form():
    # (gates, clones, inner products) at P = 24 against main's 876 / 325 / 324
    assert blocked_tensor_cost(24, 3) == (576, 116, 324)
    assert blocked_tensor_cost(24, 4) == (504, 90, 324)
    assert blocked_tensor_cost(128, 3)[:2] == (16427, 2838)
    assert blocked_tensor_registers(24, 3) == 5
    # B >= P is the B = P route
    for p in (1, 2, 3, 7, 24, 100):
        expected = ((p * p + 3 * p) // 2, p + 1, (p * p + 3 * p) // 2)
        for block in (p, p + 1, 2 * p):
            assert blocked_tensor_cost(p, block) == expected
    with pytest.raises(ValueError):
        blocked_tensor_cost(5, 0)
    with pytest.raises(ValueError):
        compute_geometric_tensor_blocked(random_circuit(2, 5, 55), random_parameters(5, 56),
                                         OpCounter(), 0)


# on N = 1..4 qubits, both sides of each boundary: P = 2^N (B = 3), 2^N + 1
# and 2^(N+1) (B = P), 2^(N+1) + 1 (co-state); and the two workloads' shapes
ROUTE_CASES = sorted({
    *((n, 2**n, 3) for n in range(1, 5)),
    *((n, p, p) for n in range(1, 5) for p in (2**n + 1, 2 ** (n + 1))),
    *((n, 2 ** (n + 1) + 1, "costate") for n in range(1, 5)),
    (4, 128, "costate"), (18, 24, 3),
}, key=str)


@pytest.mark.parametrize("num_qubits, num_parameters, route", ROUTE_CASES)
def test_route_rule_picks_the_block(num_qubits, num_parameters, route):
    # the entry's counts and registers are exactly those of the route its
    # rule picks: co-state where P > 2^(N+1); else B = P where P > 2^N, else
    # B = 3, main's five registers
    circuit = random_circuit(num_qubits, num_parameters, 57)
    params = random_parameters(num_parameters, 58)
    if route == "costate":
        cost = costate_tensor_cost(num_parameters, num_qubits)
        registers = 2**num_qubits + 2
    else:
        cost = blocked_tensor_cost(num_parameters, route)
        registers = blocked_tensor_registers(num_parameters, route)
    counter = OpCounter()
    with track_allocations() as tally:
        compute_geometric_tensor(circuit, params, counter)
    assert counter.as_tuple() == cost
    assert tally.peak_live("workspace") == registers


@pytest.mark.parametrize("num_qubits, num_parameters, fits", [
    (1, 1, False), (1, 3, True), (3, 8, False), (3, 9, True),
    (4, 16, False), (4, 17, True), (4, 128, True), (18, 24, False),
])
def test_route_rule_compares_registers_with_the_tensor(num_qubits, num_parameters, fits):
    # (P + 1) * 2^N amplitudes of B = P's registers against the P^2 entries
    # of G: for positive integers the comparison is P > 2^N, the rule's form
    assert fits == ((num_parameters + 1) * 2**num_qubits <= num_parameters**2)
    assert fits == (num_parameters > 2**num_qubits)


# ---------------------------------------------------------------------------
# Overlap tensor and serialization
# ---------------------------------------------------------------------------


def test_li_tensor_diagonal_real_nonnegative():
    rng = np.random.default_rng(49)
    circuit = random_circuit(3, 8, rng)
    params = random_parameters(8, rng)
    li = compute_geometric_tensor_main(circuit, params, OpCounter()).li
    diag = np.diag(li)
    assert np.max(np.abs(diag.imag)) <= 1e-10
    assert np.min(diag.real) >= -1e-10


def test_tensor_csv_output(tmp_path):
    tensor = compute_geometric_tensor_main(rx_circuit(), [0.4], OpCounter())
    path = tmp_path / "g.csv"
    write_tensor_csv(tensor, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    assert lines[1] == "0,0,0.25,0"

    # two-digit indices, signed zeros, a subnormal and values .17g must round-trip
    rng = np.random.default_rng(51)
    size = 12
    matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    special = [-0.0, 0.0, 5e-324, 1e-300, 1 / 3, -2.5e17]
    matrix.real[10, :6] = special
    matrix.imag[11, 6:] = special
    matrix[0, 11] = complex(special[2], special[0])
    write_tensor_csv(matrix, path)
    reference = "i,j,re,im\n" + "".join(
        f"{i},{j},{matrix[i, j].real:.17g},{matrix[i, j].imag:.17g}\n"
        for i in range(size) for j in range(size))
    assert path.read_bytes() == reference.encode()
    lines = path.read_text().splitlines()
    assert lines[1 + 11] == "0,11,4.9406564584124654e-324,-0"
    assert [line.split(",")[2] for line in lines[1 + 120:1 + 126]] == [
        "-0", "0", "4.9406564584124654e-324", "1e-300", "0.33333333333333331", "-2.5e+17"]
    with pytest.raises(ValueError, match="square"):
        write_tensor_csv(matrix[:, :5], path)


def test_tensor_csv_reuses_only_bitwise_conjugate_mirrors(tmp_path):
    # a Hermitian G, whose lower entries reuse their mirrors' strings, with
    # entries where that would go wrong unless the bits decide: signed zeros
    # (-0.0 == 0.0), a conjugate pair of NaN imaginary parts (no sign in
    # "nan"), and lower entries one ulp off their mirror's conjugate
    rng = np.random.default_rng(58)
    size = 9
    upper = np.triu(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    matrix = upper + np.triu(upper, 1).conj().T
    np.fill_diagonal(matrix, matrix.diagonal().real)
    pairs = {(0, 1): complex(0.5, 0.0),                 # mirror (0.5, -0.0)
             (0, 2): complex(-0.0, -0.0),               # mirror (-0.0, 0.0)
             (0, 3): complex(np.nan, np.copysign(np.nan, -1.0))}
    for (i, j), value in pairs.items():
        matrix[i, j], matrix[j, i] = value, value.conjugate()
    matrix[4, 0] = complex(1.0, 0.0)                    # mirror also (1.0, 0.0)
    matrix[0, 4] = complex(1.0, 0.0)
    matrix[5, 4] = complex(np.nextafter(matrix[4, 5].real, np.inf), -matrix[4, 5].imag)
    matrix[6, 5] = complex(matrix[5, 6].real, np.nextafter(-matrix[5, 6].imag, np.inf))
    path = tmp_path / "g.csv"
    write_tensor_csv(matrix, path)
    reference = "i,j,re,im\n" + "".join(
        f"{i},{j},{matrix[i, j].real:.17g},{matrix[i, j].imag:.17g}\n"
        for i in range(size) for j in range(size))
    assert path.read_bytes() == reference.encode()
    lines = path.read_text().splitlines()
    assert lines[1 + size] == "1,0,0.5,-0"
    assert lines[1 + 2 * size] == "2,0,-0,0"
    assert lines[1 + 3 * size] == "3,0,nan,nan"
    assert lines[1 + 4 * size] == "4,0,1,0"
    # the same bytes from a view whose memory is the transpose's
    write_tensor_csv(np.ascontiguousarray(matrix.T).T, path)
    assert path.read_bytes() == reference.encode()


def test_tensor_binary_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    circuit = random_circuit(3, 5, rng)
    tensor = compute_geometric_tensor_main(circuit, random_parameters(5, rng), OpCounter())
    path = tmp_path / "g.bin"
    write_tensor_binary(tensor, path)
    recovered = read_tensor_binary(path)
    np.testing.assert_array_equal(recovered, tensor.matrix)
    with pytest.raises(ValueError):
        read_tensor_binary(__file__)


def test_tensor_binary_truncated_header_is_value_error(tmp_path):
    # a short size field, and a body that ends inside its one 16-byte entry
    path = tmp_path / "short.bin"
    for tail in (b"\x03\x00", (1).to_bytes(8, "little") + bytes(15)):
        path.write_bytes(b"QGTDUMP1" + tail)
        with pytest.raises(ValueError) as error:
            read_tensor_binary(path)
        assert str(error.value).startswith(f"{path}: truncated")
