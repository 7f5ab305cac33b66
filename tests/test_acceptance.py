"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import numpy as np

from qngsim.ansatz import (
    AnsatzCircuit,
    phased_variant,
    random_circuit,
    random_layered_circuit,
    random_parameters,
)
from qngsim.baselines import BaselineId, compute_li_tensor, cost_model
from qngsim.gates import ControlledPauliRotation, PauliRotation, PauliString, PauliSum
from qngsim.metric import (
    blocked_tensor_cost,
    compute_berry_vector,
    compute_geometric_tensor,
    compute_geometric_tensor_main,
    main_algorithm_cost,
)
from qngsim.optimizer import OptimizerConfig, run_optimization
from qngsim.statevector import OpCounter, track_allocations
from qngsim.verify import finite_difference_tensor


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def random_suite(num_cases=20, num_qubits=4, num_parameters=8, base_seed=101):
    for case in range(num_cases):
        rng = np.random.default_rng([base_seed, case])
        circuit = random_circuit(num_qubits, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        yield circuit, params


def test_c1_count_reproduction():
    """Instrumented gates/clones equal the closed forms for P = 1..50."""
    rng = np.random.default_rng(1)
    mismatches = 0
    for num_parameters in range(1, 51):
        circuit = random_circuit(2, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        for alg in BaselineId:
            counter = OpCounter()
            compute_li_tensor(alg, circuit, params, counter)
            model = cost_model(alg, num_parameters)
            if (counter.gate_applications, counter.clones) != (model.gates, model.clones):
                mismatches += 1
    report(1, "count reproduction", mismatches == 0,
           f"7 algorithms x P=1..50, {mismatches} mismatches")


def test_c2_reference_totals():
    """gates+clones at P=100: 681750 (alg3), 20401 (alg6), 5251 (alg8)."""
    expected = {BaselineId.ALG3: 681750, BaselineId.ALG6: 20401, BaselineId.ALG8: 5251}
    rng = np.random.default_rng(2)
    circuit = random_circuit(2, 100, rng)
    params = random_parameters(100, rng)
    measured = {}
    for alg, total in expected.items():
        counter = OpCounter()
        compute_li_tensor(alg, circuit, params, counter)
        measured[alg] = counter.gates_plus_clones
        assert sum(cost_model(alg, 100)[:2]) == total
    passed = all(measured[alg] == total for alg, total in expected.items())
    report(2, "reference totals", passed,
           ", ".join(f"{alg.value}={measured[alg]}" for alg in expected))


def test_c3_oracle_equivalence():
    """All baselines and the main algorithm agree pairwise within 1e-10."""
    worst_li = 0.0
    worst_tensor = 0.0
    for circuit, params in random_suite():
        tensors = [compute_li_tensor(alg, circuit, params, OpCounter())
                   for alg in BaselineId]
        main = compute_geometric_tensor_main(circuit, params, OpCounter())
        tensors.append(main.li)
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                worst_li = max(worst_li, float(np.max(np.abs(tensors[i] - tensors[j]))))
        berry = compute_berry_vector(circuit, params, OpCounter())
        naive_tensor = tensors[0] - np.outer(np.conj(berry), berry)
        worst_tensor = max(worst_tensor,
                           float(np.max(np.abs(main.matrix - naive_tensor))))
    passed = worst_li <= 1e-10 and worst_tensor <= 1e-10
    report(3, "oracle equivalence", passed,
           f"20 circuits, max L dev {worst_li:.2e}, max G dev {worst_tensor:.2e}")


def test_c4_finite_difference_ground_truth():
    """Main-algorithm G matches central differences (h=1e-5) within 1e-6."""
    worst = 0.0
    for circuit, params in random_suite():
        computed = compute_geometric_tensor_main(circuit, params, OpCounter()).matrix
        oracle = finite_difference_tensor(circuit, params, step=1e-5)
        worst = max(worst, float(np.max(np.abs(computed - oracle))))
    report(4, "finite-difference ground truth", worst <= 1e-6,
           f"20 circuits, max entry dev {worst:.2e}")


def test_c5_diagonal_shortcuts():
    """Rotation diagonals are 1/4; controlled ones are 1/4 * p1, with p1 the
    probability that the control of the state before the gate reads 1."""
    controls = {1: 0, 3: 1}
    circuit = AnsatzCircuit(2, (
        PauliRotation(PauliString.single(0, "X")),
        ControlledPauliRotation(controls[1], PauliString.single(1, "Y")),
        PauliRotation(PauliString.single(1, "Z")),
        ControlledPauliRotation(controls[3], PauliString.single(0, "Z")),
    ))
    params = random_parameters(4, 5)
    bound = circuit.bind(params)
    expected = {0: 0.25, 2: 0.25}
    for gate, control in controls.items():
        amplitudes = bound.prepare(OpCounter(), upto=gate).amplitudes
        ones = amplitudes.reshape(-1, 2, 1 << control)[:, 1]  # the control reads 1
        expected[gate] = 0.25 * np.sum(np.abs(ones) ** 2)
    rotation_dev = controlled_dev = 0.0
    # P = 2^N, so the entry takes the blocked route with B = 3
    for tensor, cost in ((compute_geometric_tensor_main, main_algorithm_cost(4)),
                         (compute_geometric_tensor, blocked_tensor_cost(4, 3))):
        counter = OpCounter()
        li = tensor(circuit, bound, counter).li
        assert counter.as_tuple() == cost
        rotation_dev = max(rotation_dev, *(abs(li[i, i] - expected[i]) for i in (0, 2)))
        controlled_dev = max(controlled_dev, *(abs(li[i, i] - expected[i]) for i in (1, 3)))
    passed = rotation_dev <= 1e-12 and controlled_dev <= 1e-12
    report(5, "diagonal shortcuts", passed,
           f"main and blocked L, rotation dev {rotation_dev:.2e}, "
           f"controlled dev {controlled_dev:.2e}")


def test_c6_gauge_invariance():
    """Phase rate 0.7 moves L and T by >= 1e-3 but G by <= 1e-9."""
    rng = np.random.default_rng(6)
    circuit = random_circuit(3, 9, rng, include_controlled=False)
    params = random_parameters(9, rng)
    plain = compute_geometric_tensor_main(circuit, params, OpCounter())
    phased = compute_geometric_tensor_main(phased_variant(circuit, 0.7), params,
                                           OpCounter())
    delta_l = float(np.max(np.abs(plain.li - phased.li)))
    delta_t = float(np.max(np.abs(plain.berry - phased.berry)))
    delta_g = float(np.max(np.abs(plain.matrix - phased.matrix)))
    passed = delta_l >= 1e-3 and delta_t >= 1e-3 and delta_g <= 1e-9
    report(6, "gauge invariance", passed,
           f"dL {delta_l:.2e}, dT {delta_t:.2e}, dG {delta_g:.2e}")


def _fit_exponent(alg, p_values):
    totals = []
    for num_parameters in p_values:
        rng = np.random.default_rng([7, num_parameters])
        circuit = random_circuit(4, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        counter = OpCounter()
        if alg is None:
            compute_geometric_tensor_main(circuit, params, counter)
        else:
            compute_li_tensor(alg, circuit, params, counter)
        totals.append(counter.gates_plus_clones)
    slope = np.polyfit(np.log(p_values), np.log(totals), 1)[0]
    return float(slope)


def test_c7_complexity_scaling():
    """Quadratic main algorithm, cubic alg3, on log-log fits of measured counts."""
    quadratic = _fit_exponent(None, [16, 32, 64, 128, 256])
    cubic = _fit_exponent(BaselineId.ALG3, [16, 32, 64, 128])
    passed = abs(quadratic - 2.0) <= 0.1 and abs(cubic - 3.0) <= 0.1
    report(7, "complexity scaling", passed,
           f"main exponent {quadratic:.3f}, alg3 exponent {cubic:.3f}")


def test_c8_register_economy():
    """Main algorithm peaks at 5 workspaces for any P; alg8 peaks at P+1."""
    peaks = {}
    for num_parameters in (8, 64, 256):
        rng = np.random.default_rng([8, num_parameters])
        circuit = random_circuit(3, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        with track_allocations() as tally:
            compute_geometric_tensor_main(circuit, params, OpCounter())
        peaks[num_parameters] = tally.peak_live("workspace")
    rng = np.random.default_rng(88)
    circuit = random_circuit(3, 12, rng)
    with track_allocations() as tally:
        compute_li_tensor(BaselineId.ALG8, circuit, random_parameters(12, rng),
                          OpCounter())
    alg8_peak = tally.peak_live("workspace")
    passed = all(value == 5 for value in peaks.values()) and alg8_peak == 13
    report(8, "register economy", passed,
           f"main peaks {peaks}, alg8 peak {alg8_peak} at P=12")


def test_c9_end_to_end_natural_gradient():
    """Seeded 3-layer ansatz reaches the exact pair ground energy monotonically."""
    hamiltonian = PauliSum((
        (1.0, PauliString.parse("Z0 Z1")),
        (0.5, PauliString.single(0, "X")),
        (0.5, PauliString.single(1, "X")),
    ))
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dense = np.kron(z, z) + 0.5 * np.kron(np.eye(2), x) + 0.5 * np.kron(x, np.eye(2))
    exact = float(np.linalg.eigvalsh(dense).min())

    circuit = random_layered_circuit(2, 3, np.random.default_rng([0, 0]))
    initial = random_parameters(circuit.num_parameters, np.random.default_rng([0, 1]))
    config = OptimizerConfig(timestep=0.05, regularization=1e-8, max_steps=500,
                             energy_tolerance=1e-12)
    trace = run_optimization(circuit, initial, hamiltonian, config)
    gap = trace.final_energy - exact
    worst_increase = float(np.max(np.diff(trace.energies)))
    passed = (gap <= 1e-6 and trace.records[-1].step <= 500
              and worst_increase <= 1e-9)
    report(9, "end-to-end natural gradient", passed,
           f"gap {gap:.2e} after {trace.records[-1].step} steps, "
           f"worst energy increase {worst_increase:.2e}")
