"""End-to-end consistency checks behind the ``verify`` CLI command.

Every check is one of two kinds, run on seeded inputs and reported by its
worst deviation.  An exact check holds instrumented counts (gate
applications, clones, inner products, axpys and peak workspace registers) to
their closed-form cost models, integer for integer, over sweeps of P.  A
tolerance check holds one array to an independently computed one (a route
against main or the baselines, or against a central-difference oracle)
within a tolerance; ``gauge_invariance`` further requires L and T to move
under a parameter-dependent global phase while G stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ansatz import (
    AnsatzCircuit,
    phased_variant,
    prepare_ansatz_state,
    random_circuit,
    random_parameters,
)
from .baselines import BaselineId, compute_li_tensor, cost_model
from .gates import PauliString, PauliSum
from .metric import (
    blocked_tensor_cost,
    blocked_tensor_registers,
    compute_berry_vector,
    compute_geometric_tensor_blocked,
    compute_geometric_tensor_costate,
    compute_geometric_tensor_main,
    costate_tensor_cost,
    main_algorithm_cost,
)
from .optimizer import energy_expectation, energy_gradient, gradient_cost
from .statevector import OpCounter, track_allocations

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "finite_difference_gradient",
    "finite_difference_tensor",
    "run_checks",
]

DEFAULT_SEED = 2021

# The three reference gates+clones totals for P = 100 runs.
REFERENCE_TOTALS_P100 = {
    BaselineId.ALG3: 681750,
    BaselineId.ALG6: 20401,
    BaselineId.ALG8: 5251,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}  {self.name}: max deviation {self.max_deviation:.3e} "
            f"(tolerance {self.tolerance:.3e})"
        )
        if self.detail:
            line += f" [{self.detail}]"
        return line


def finite_difference_tensor(circuit: AnsatzCircuit, params,
                             step: float = 1e-5) -> np.ndarray:
    """The geometric tensor straight from its definition, by central differences.

    Each ``|d_i psi>`` is ``(|psi(theta + h e_i)> - |psi(theta - h e_i)>)/2h``
    on the raw amplitude vectors (the global phase of the prepared state is
    well-defined, so no phase fixing is needed).
    """
    theta = circuit.bind(params).theta
    count = circuit.num_parameters
    scratch = OpCounter()

    def amplitudes_at(shifted: np.ndarray) -> np.ndarray:
        return prepare_ansatz_state(circuit, shifted, scratch).amplitudes

    psi = amplitudes_at(theta)
    derivs = np.zeros((count, psi.size), dtype=np.complex128)
    for i in range(count):
        shift = np.zeros(count)
        shift[i] = step
        derivs[i] = (amplitudes_at(theta + shift) - amplitudes_at(theta - shift)) / (2 * step)
    overlaps = np.conj(derivs) @ derivs.T
    berry = derivs @ np.conj(psi)  # berry[i] = <psi | d_i psi>
    return overlaps - np.outer(np.conj(berry), berry)


def finite_difference_gradient(circuit: AnsatzCircuit, params,
                               hamiltonian: PauliSum,
                               step: float = 1e-5) -> np.ndarray:
    """The energy gradient by central differences of ``energy_expectation``."""
    theta = circuit.bind(params).theta
    grad = np.zeros(len(theta))
    for i in range(len(theta)):
        shift = np.zeros(len(theta))
        shift[i] = step
        grad[i] = (energy_expectation(circuit, theta + shift, hamiltonian, OpCounter())
                   - energy_expectation(circuit, theta - shift, hamiltonian, OpCounter())
                   ) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _exact(name: str, detail: str, pairs) -> CheckResult:
    """Measured count tuples against predicted ones, field for field."""
    worst = max(abs(m - p) for measured, predicted in pairs
                for m, p in zip(measured, predicted, strict=True))
    return CheckResult(name, worst == 0, float(worst), 0.0, detail)


def _deviations(pairs) -> np.ndarray:
    """The largest |ours - theirs| entry of each pair of arrays."""
    return np.array([np.max(np.abs(ours - theirs)) for ours, theirs in pairs])


def _close(name: str, detail: str, pairs, tolerance: float) -> CheckResult:
    """Our arrays against theirs within ``tolerance``; a NaN entry fails."""
    worst = float(_deviations(pairs).max())
    return CheckResult(name, worst <= tolerance, worst, tolerance, detail)


def _draw(rng: np.random.Generator, num_qubits: int, num_parameters: int,
          include_controlled: bool = True) -> tuple[AnsatzCircuit, np.ndarray]:
    circuit = random_circuit(num_qubits, num_parameters, rng,
                             include_controlled=include_controlled)
    return circuit, random_parameters(num_parameters, rng)


def _random_cases(seed: int, num_cases: int, num_qubits: int, num_parameters: int,
                  include_controlled: bool = True) -> list:
    return [_draw(np.random.default_rng([seed, case]), num_qubits, num_parameters,
                  include_controlled) for case in range(num_cases)]


def _sweep(rng: np.random.Generator, max_parameters: int, num_qubits: int = 2):
    """A circuit and its parameters for each P = 1..max_parameters, drawn
    from ``rng`` one P at a time, so a caller may draw more between them."""
    return (_draw(rng, num_qubits, p) for p in range(1, max_parameters + 1))


def _random_hamiltonian(rng: np.random.Generator, num_qubits: int,
                        num_terms: int) -> PauliSum:
    """``num_terms`` terms with coefficients in [-1, 1); each qubit carries
    I, X, Y or Z, so identity terms occur."""
    terms = []
    for _ in range(num_terms):
        labels = rng.integers(0, 4, size=num_qubits)
        pauli = PauliString(tuple((q, "XYZ"[label - 1])
                                  for q, label in enumerate(labels) if label))
        terms.append((float(rng.uniform(-1.0, 1.0)), pauli))
    return PauliSum(tuple(terms))


def _tallied(run, *args, **kwargs) -> tuple[int, int, int, int]:
    """Gates, clones and inner products of ``run(*args, counter, **kwargs)``,
    and its peak workspace registers."""
    counter = OpCounter()
    with track_allocations() as tally:
        run(*args, counter, **kwargs)
    return counter.as_tuple() + (tally.peak_live("workspace"),)


def _count_pairs(seed: int, max_parameters: int):
    """Every baseline against ``cost_model``, and main against
    ``main_algorithm_cost`` in five workspace registers."""
    for circuit, params in _sweep(np.random.default_rng([seed, 99]), max_parameters):
        num_parameters = circuit.num_parameters
        for alg in BaselineId:
            gates, clones, _, registers = _tallied(compute_li_tensor, alg, circuit, params)
            yield (gates, clones, registers), cost_model(alg, num_parameters)
        yield (_tallied(compute_geometric_tensor_main, circuit, params),
               main_algorithm_cost(num_parameters) + (5,))


def _reference_pairs(quick: bool):
    """The recorded gates+clones totals at P = 100, closed-form and measured."""
    circuit, params = _draw(np.random.default_rng(7), 2, 100)
    for alg, expected in REFERENCE_TOTALS_P100.items():
        predicted = cost_model(alg, 100)
        yield (predicted.gates + predicted.clones,), (expected,)
        if quick and alg is BaselineId.ALG3:
            continue  # the cubic one takes a few seconds; closed form only
        gates, clones, _, _ = _tallied(compute_li_tensor, alg, circuit, params)
        yield (gates + clones,), (expected,)


def _blocked_count_pairs(seed: int, max_parameters: int):
    for circuit, params in _sweep(np.random.default_rng([seed, 97]), max_parameters):
        bound = circuit.bind(params)
        num_parameters = circuit.num_parameters
        for block in range(1, num_parameters + 2):
            yield (_tallied(compute_geometric_tensor_blocked, circuit, bound, block=block),
                   blocked_tensor_cost(num_parameters, block)
                   + (blocked_tensor_registers(num_parameters, block),))


def _costate_count_pairs(seed: int, max_parameters: int):
    rng = np.random.default_rng([seed, 96])
    for num_qubits in range(1, 5):
        for circuit, params in _sweep(rng, max_parameters, num_qubits):
            yield (_tallied(compute_geometric_tensor_costate, circuit, params),
                   costate_tensor_cost(circuit.num_parameters, num_qubits)
                   + (2**num_qubits + 2,))


def _gradient_count_pairs(seed: int, max_parameters: int):
    rng = np.random.default_rng([seed, 98])
    for circuit, params in _sweep(rng, max_parameters):
        for num_terms in range(5):
            counter = OpCounter()
            energy_gradient(circuit, params, _random_hamiltonian(rng, 2, num_terms), counter)
            yield (counter.as_tuple() + (counter.axpys,),
                   gradient_cost(circuit.num_parameters, num_terms))


def _baseline_pairs(cases: list):
    """L of all seven baselines and of main, each against every other."""
    for circuit, params in cases:
        tensors = [compute_li_tensor(alg, circuit, params, OpCounter()) for alg in BaselineId]
        tensors.append(compute_geometric_tensor_main(circuit, params, OpCounter()).li)
        yield from combinations(tensors, 2)


def _against_main(route, cases: list):
    """G, L and T of each tensor ``route(circuit, bound)`` returns against main's."""
    for circuit, params in cases:
        bound = circuit.bind(params)
        main = compute_geometric_tensor_main(circuit, bound, OpCounter())
        for ours in route(circuit, bound):
            yield from ((ours.matrix, main.matrix), (ours.li, main.li),
                        (ours.berry, main.berry))


def _blocked_tensors(circuit: AnsatzCircuit, bound) -> list:
    return [compute_geometric_tensor_blocked(circuit, bound, OpCounter(), block)
            for block in range(1, circuit.num_parameters + 1)]


def _costate_tensor(circuit: AnsatzCircuit, bound) -> list:
    return [compute_geometric_tensor_costate(circuit, bound, OpCounter())]


def _against_oracle(tensor, cases: list):
    """G of ``tensor`` against :func:`finite_difference_tensor`."""
    for circuit, params in cases:
        yield (tensor(circuit, params, OpCounter()).matrix,
               finite_difference_tensor(circuit, params))


def _gradient_pairs(seed: int, cases: list):
    """``energy_gradient`` against :func:`finite_difference_gradient`."""
    for case, (circuit, params) in enumerate(cases):
        hamiltonian = _random_hamiltonian(np.random.default_rng([seed, case, 1]), 4, 4)
        yield (energy_gradient(circuit, params, hamiltonian, OpCounter()),
               finite_difference_gradient(circuit, params, hamiltonian))


def _gauge_invariance(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """A parameter-dependent global phase moves L and T but not G."""
    runs = [(compute_geometric_tensor_main(circuit, params, OpCounter()),
             compute_geometric_tensor_main(phased_variant(circuit, 0.7), params, OpCounter()))
            for circuit, params in _random_cases(seed, 2 if quick else 5, 3, 6,
                                                 include_controlled=False)]
    worst = float(_deviations((plain.matrix, phased.matrix) for plain, phased in runs).max())
    weakest_move = float(_deviations(pair for plain, phased in runs for pair in (
        (plain.li, phased.li), (plain.berry, phased.berry))).min())
    return CheckResult("gauge_invariance", worst <= tolerance and weakest_move >= 1e-3,
                       worst, tolerance,
                       f"L and T moved by >= {weakest_move:.3e} while G stayed put")


def run_checks(seed: int = DEFAULT_SEED, quick: bool = False,
               tolerance_override: float | None = None) -> list[CheckResult]:
    """Run the whole suite; an override tightens/loosens every comparison
    tolerance (the integer count checks are exact either way)."""

    def tol(default: float) -> float:
        return default if tolerance_override is None else tolerance_override

    sweep, baseline_sweep = (10, 10) if quick else (40, 50)
    num_cases, num_qubits, num_parameters = (4, 3, 6) if quick else (20, 4, 8)
    equivalence = _random_cases(seed, num_cases, num_qubits, num_parameters)
    oracle = _random_cases(seed + 1, 3 if quick else 8, 4, 8)
    # P > 2^(N+1): circuits compute_geometric_tensor sends to the co-state route
    narrow = [*_random_cases(seed + 6, 2 if quick else 4, 1, 5),
              *_random_cases(seed + 7, 2 if quick else 4, 2, 12)]
    agreement = equivalence + oracle
    routed = agreement + narrow
    gradient = _random_cases(seed + 5, 2 if quick else 6, 4, 8)
    berry = _random_cases(seed + 4, 2 if quick else 6, 3, 7)
    return [
        _exact("count_exactness", f"all baselines and main, P = 1..{baseline_sweep}",
               _count_pairs(seed, baseline_sweep)),
        _exact("reference_totals", "gates+clones at P=100: 681750 / 20401 / 5251",
               _reference_pairs(quick)),
        _close("baseline_equivalence",
               f"{num_cases} circuits, P={num_parameters}",
               _baseline_pairs(equivalence), tol(1e-10)),
        _close("finite_difference", f"{len(oracle)} circuits, central step 1e-5",
               _against_oracle(compute_geometric_tensor_main, oracle), tol(1e-6)),
        _gauge_invariance(seed + 2, quick, tol(1e-9)),
        _close("berry_consistency", "",
               ((compute_berry_vector(circuit, params, OpCounter()),
                 compute_geometric_tensor_main(circuit, params, OpCounter()).berry)
                for circuit, params in berry), tol(1e-12)),
        _exact("blocked_count_exactness", f"gates, clones, inner products and registers, "
               f"P = 1..{sweep}, B = 1..P + 1", _blocked_count_pairs(seed, sweep)),
        _close("blocked_agreement", f"{len(agreement)} circuits, B = 1..P, G, L and T",
               _against_main(_blocked_tensors, agreement), tol(1e-10)),
        _exact("costate_count_exactness", f"gates, clones, inner products and registers, "
               f"N = 1..4, P = 1..{sweep}", _costate_count_pairs(seed, sweep)),
        _close("costate_agreement", f"{len(routed)} circuits, G, L and T",
               _against_main(_costate_tensor, routed), tol(1e-10)),
        _close("costate_finite_difference", f"{len(routed)} circuits, central step 1e-5",
               _against_oracle(compute_geometric_tensor_costate, routed), tol(1e-6)),
        _exact("gradient_count_exactness", f"P = 1..{sweep}, T = 0..4",
               _gradient_count_pairs(seed, sweep)),
        _close("gradient_finite_difference", f"{len(gradient)} circuits, 4 terms, "
               "central step 1e-5", _gradient_pairs(seed + 5, gradient), tol(1e-6)),
    ]
