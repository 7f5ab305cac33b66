"""End-to-end consistency suites behind the ``verify`` CLI command.

Each check pits independently computed quantities against each other on
seeded inputs and reports the worst deviation: every baseline strategy
against every other and against the main recurrent algorithm, the geometric
tensor against a central-difference evaluation of its definition, gauge
invariance under parameter-dependent global phases, and instrumented
primitive counts against the closed-form cost models (``count_exactness``
holds main to ``main_algorithm_cost(P)`` in five workspace registers, and
every baseline to ``cost_model``).  Two checks cover the energy gradient:
``gradient_count_exactness`` holds its four counts to ``gradient_cost(P, T)``
for P = 1..10 (quick) or 1..40 and T = 0..4, and
``gradient_finite_difference`` holds ``energy_gradient`` to central
differences of ``energy_expectation``.  Two cover the blocked tensor route,
B = P (all derivative states at once) included: ``blocked_count_exactness``
holds its counts to ``blocked_tensor_cost(P, B)`` and its peak to
``blocked_tensor_registers(P, B)`` workspace registers for P = 1..10 (quick)
or 1..40 and every B from 1 to P + 1, and ``blocked_agreement`` holds its
G, L and T for every B from 1 to P to main's on the circuits of the
baseline-equivalence and finite-difference checks.  Three cover the co-state
route: ``costate_count_exactness`` holds its counts to
``costate_tensor_cost(P, N)`` and its peak to 2^N + 2 workspace registers for
N = 1..4 and P = 1..10 (quick) or 1..40; ``costate_agreement`` holds its G, L
and T to main's, and ``costate_finite_difference`` its G to central
differences, on the circuits of the baseline-equivalence and
finite-difference checks and on circuits ``compute_geometric_tensor`` sends
to it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Individual checks
# ---------------------------------------------------------------------------


def _random_cases(seed: int, num_cases: int, num_qubits: int, num_parameters: int,
                  include_controlled: bool = True):
    for case in range(num_cases):
        rng = np.random.default_rng([seed, case])
        circuit = random_circuit(num_qubits, num_parameters, rng,
                                 include_controlled=include_controlled)
        params = random_parameters(num_parameters, rng)
        yield circuit, params


def check_baseline_equivalence(seed: int, quick: bool,
                               tolerance: float) -> CheckResult:
    """All seven baselines and the main algorithm agree on L entrywise."""
    num_cases = 4 if quick else 20
    num_qubits, num_parameters = (3, 6) if quick else (4, 8)
    worst = 0.0
    for circuit, params in _random_cases(seed, num_cases, num_qubits, num_parameters):
        tensors = [
            compute_li_tensor(alg, circuit, params, OpCounter())
            for alg in BaselineId
        ]
        tensors.append(compute_geometric_tensor_main(circuit, params, OpCounter()).li)
        for i, left in enumerate(tensors):
            for right in tensors[i + 1:]:
                worst = max(worst, float(np.max(np.abs(left - right))))
    return CheckResult("baseline_equivalence", worst <= tolerance, worst, tolerance,
                       f"{num_cases} circuits, P={num_parameters}")


def check_finite_difference(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """Main-algorithm G against the central-difference oracle."""
    num_cases = 3 if quick else 8
    worst = 0.0
    for circuit, params in _random_cases(seed + 1, num_cases, 4, 8):
        computed = compute_geometric_tensor_main(circuit, params, OpCounter()).matrix
        oracle = finite_difference_tensor(circuit, params)
        worst = max(worst, float(np.max(np.abs(computed - oracle))))
    return CheckResult("finite_difference", worst <= tolerance, worst, tolerance,
                       f"{num_cases} circuits, central step 1e-5")


def check_gauge_invariance(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """A parameter-dependent global phase moves L and T but not G."""
    num_cases = 2 if quick else 5
    phase_rate = 0.7
    worst_g = 0.0
    weakest_move = np.inf
    for circuit, params in _random_cases(seed + 2, num_cases, 3, 6,
                                         include_controlled=False):
        plain = compute_geometric_tensor_main(circuit, params, OpCounter())
        phased = compute_geometric_tensor_main(phased_variant(circuit, phase_rate),
                                               params, OpCounter())
        worst_g = max(worst_g, float(np.max(np.abs(plain.matrix - phased.matrix))))
        moved_l = float(np.max(np.abs(plain.li - phased.li)))
        moved_t = float(np.max(np.abs(plain.berry - phased.berry)))
        weakest_move = min(weakest_move, moved_l, moved_t)
    moved = weakest_move >= 1e-3
    detail = f"L and T moved by >= {weakest_move:.3e} while G stayed put"
    return CheckResult("gauge_invariance", worst_g <= tolerance and moved,
                       worst_g, tolerance, detail)


def check_count_exactness(seed: int, quick: bool) -> CheckResult:
    """Instrumented counts equal the cost models, integer for integer: every
    baseline's gates and clones, and main's gates, clones and inner products
    in five workspace registers."""
    max_parameters = 10 if quick else 50
    rng = np.random.default_rng([seed, 99])
    worst = 0
    for num_parameters in range(1, max_parameters + 1):
        circuit = random_circuit(2, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        for alg in BaselineId:
            counter = OpCounter()
            compute_li_tensor(alg, circuit, params, counter)
            predicted = cost_model(alg, num_parameters)
            worst = max(worst, abs(counter.gate_applications - predicted.gates),
                        abs(counter.clones - predicted.clones))
        counter = OpCounter()
        with track_allocations() as tally:
            compute_geometric_tensor_main(circuit, params, counter)
        measured = counter.as_tuple() + (tally.peak_live("workspace"),)
        predicted = main_algorithm_cost(num_parameters) + (5,)
        worst = max(worst, *(abs(m - p) for m, p in zip(measured, predicted)))
    return CheckResult("count_exactness", worst == 0, float(worst), 0.0,
                       f"all baselines and main, P = 1..{max_parameters}")


def check_reference_totals(quick: bool) -> CheckResult:
    """Three recorded gates+clones totals at P = 100, measured and closed-form."""
    worst = 0
    rng = np.random.default_rng(7)
    circuit = random_circuit(2, 100, rng)
    params = random_parameters(100, rng)
    for alg, expected in REFERENCE_TOTALS_P100.items():
        predicted = cost_model(alg, 100)
        worst = max(worst, abs(predicted.gates + predicted.clones - expected))
        if quick and alg is BaselineId.ALG3:
            continue  # the cubic one takes a few seconds; closed form only
        counter = OpCounter()
        compute_li_tensor(alg, circuit, params, counter)
        worst = max(worst, abs(counter.gates_plus_clones - expected))
    return CheckResult("reference_totals", worst == 0, float(worst), 0.0,
                       "gates+clones at P=100: 681750 / 20401 / 5251")


def check_berry_consistency(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """The standalone O(P) Berry-vector pass matches the main algorithm's T."""
    num_cases = 2 if quick else 6
    worst = 0.0
    for circuit, params in _random_cases(seed + 4, num_cases, 3, 7):
        standalone = compute_berry_vector(circuit, params, OpCounter())
        main = compute_geometric_tensor_main(circuit, params, OpCounter())
        worst = max(worst, float(np.max(np.abs(standalone - main.berry))))
    return CheckResult("berry_consistency", worst <= tolerance, worst, tolerance)


def check_blocked_count_exactness(seed: int, quick: bool) -> CheckResult:
    """The blocked route's counts equal ``blocked_tensor_cost`` and its peak
    is ``blocked_tensor_registers`` workspace registers, integer for integer,
    for every block from 1 to P + 1."""
    max_parameters = 10 if quick else 40
    rng = np.random.default_rng([seed, 97])
    worst = 0
    for num_parameters in range(1, max_parameters + 1):
        circuit = random_circuit(2, num_parameters, rng)
        bound = circuit.bind(random_parameters(num_parameters, rng))
        for block in range(1, num_parameters + 2):
            counter = OpCounter()
            with track_allocations() as tally:
                compute_geometric_tensor_blocked(circuit, bound, counter, block)
            measured = counter.as_tuple() + (tally.peak_live("workspace"),)
            predicted = (blocked_tensor_cost(num_parameters, block)
                         + (blocked_tensor_registers(num_parameters, block),))
            worst = max(worst, *(abs(m - p) for m, p in zip(measured, predicted)))
    return CheckResult("blocked_count_exactness", worst == 0, float(worst), 0.0,
                       f"gates, clones, inner products and registers, P = 1..{max_parameters}, "
                       f"B = 1..P + 1")


def check_blocked_agreement(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """The blocked route's G, L and T for every block from 1 to P against
    main's, on the circuits of :func:`check_baseline_equivalence` and
    :func:`check_finite_difference`."""
    num_cases, num_qubits, num_parameters = (4, 3, 6) if quick else (20, 4, 8)
    cases = [*_random_cases(seed, num_cases, num_qubits, num_parameters),
             *_random_cases(seed + 1, 3 if quick else 8, 4, 8)]
    worst = 0.0
    for circuit, params in cases:
        bound = circuit.bind(params)
        main = compute_geometric_tensor_main(circuit, bound, OpCounter())
        for block in range(1, circuit.num_parameters + 1):
            blocked = compute_geometric_tensor_blocked(circuit, bound, OpCounter(), block)
            for ours, theirs in ((blocked.matrix, main.matrix), (blocked.li, main.li),
                                 (blocked.berry, main.berry)):
                worst = max(worst, float(np.max(np.abs(ours - theirs))))
    return CheckResult("blocked_agreement", worst <= tolerance, worst, tolerance,
                       f"{len(cases)} circuits, B = 1..P, G, L and T")


def check_costate_count_exactness(seed: int, quick: bool) -> CheckResult:
    """The co-state route's counts equal ``costate_tensor_cost`` and its peak
    is 2^N + 2 workspace registers, integer for integer, for N = 1..4."""
    max_parameters = 10 if quick else 40
    rng = np.random.default_rng([seed, 96])
    worst = 0
    for num_qubits in range(1, 5):
        for num_parameters in range(1, max_parameters + 1):
            circuit = random_circuit(num_qubits, num_parameters, rng)
            params = random_parameters(num_parameters, rng)
            counter = OpCounter()
            with track_allocations() as tally:
                compute_geometric_tensor_costate(circuit, params, counter)
            measured = counter.as_tuple() + (tally.peak_live("workspace"),)
            predicted = (costate_tensor_cost(num_parameters, num_qubits)
                         + (2**num_qubits + 2,))
            worst = max(worst, *(abs(m - p) for m, p in zip(measured, predicted)))
    return CheckResult("costate_count_exactness", worst == 0, float(worst), 0.0,
                       f"gates, clones, inner products and registers, N = 1..4, "
                       f"P = 1..{max_parameters}")


def _costate_cases(seed: int, quick: bool) -> list:
    """The circuits of :func:`check_baseline_equivalence` and
    :func:`check_finite_difference`, and circuits with P > 2^(N+1), which
    ``compute_geometric_tensor`` sends to the co-state route."""
    num_cases, num_qubits, num_parameters = (4, 3, 6) if quick else (20, 4, 8)
    return [*_random_cases(seed, num_cases, num_qubits, num_parameters),
            *_random_cases(seed + 1, 3 if quick else 8, 4, 8),
            *_random_cases(seed + 6, 2 if quick else 4, 1, 5),
            *_random_cases(seed + 7, 2 if quick else 4, 2, 12)]


def check_costate_agreement(seed: int, quick: bool, tolerance: float) -> CheckResult:
    """The co-state route's G, L and T against main's."""
    cases = _costate_cases(seed, quick)
    worst = 0.0
    for circuit, params in cases:
        bound = circuit.bind(params)
        main = compute_geometric_tensor_main(circuit, bound, OpCounter())
        costate = compute_geometric_tensor_costate(circuit, bound, OpCounter())
        for ours, theirs in ((costate.matrix, main.matrix), (costate.li, main.li),
                             (costate.berry, main.berry)):
            worst = max(worst, float(np.max(np.abs(ours - theirs))))
    return CheckResult("costate_agreement", worst <= tolerance, worst, tolerance,
                       f"{len(cases)} circuits, G, L and T")


def check_costate_finite_difference(seed: int, quick: bool,
                                    tolerance: float) -> CheckResult:
    """The co-state route's G against the central-difference oracle."""
    cases = _costate_cases(seed, quick)
    worst = 0.0
    for circuit, params in cases:
        computed = compute_geometric_tensor_costate(circuit, params, OpCounter()).matrix
        oracle = finite_difference_tensor(circuit, params)
        worst = max(worst, float(np.max(np.abs(computed - oracle))))
    return CheckResult("costate_finite_difference", worst <= tolerance, worst, tolerance,
                       f"{len(cases)} circuits, central step 1e-5")


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


def check_gradient_count_exactness(seed: int, quick: bool) -> CheckResult:
    """Instrumented gradient counts equal ``gradient_cost``, integer for integer."""
    max_parameters = 10 if quick else 40
    rng = np.random.default_rng([seed, 98])
    worst = 0
    for num_parameters in range(1, max_parameters + 1):
        circuit = random_circuit(2, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        for num_terms in range(5):
            counter = OpCounter()
            energy_gradient(circuit, params, _random_hamiltonian(rng, 2, num_terms), counter)
            measured = counter.as_tuple() + (counter.axpys,)
            predicted = gradient_cost(num_parameters, num_terms)
            worst = max(worst, *(abs(m - p) for m, p in zip(measured, predicted)))
    return CheckResult("gradient_count_exactness", worst == 0, float(worst), 0.0,
                       f"P = 1..{max_parameters}, T = 0..4")


def check_gradient_finite_difference(seed: int, quick: bool,
                                     tolerance: float) -> CheckResult:
    """``energy_gradient`` against central differences of ``energy_expectation``."""
    num_cases = 2 if quick else 6
    worst = 0.0
    for case, (circuit, params) in enumerate(_random_cases(seed + 5, num_cases, 4, 8)):
        hamiltonian = _random_hamiltonian(np.random.default_rng([seed + 5, case, 1]), 4, 4)
        grad = energy_gradient(circuit, params, hamiltonian, OpCounter())
        oracle = finite_difference_gradient(circuit, params, hamiltonian)
        worst = max(worst, float(np.max(np.abs(grad - oracle))))
    return CheckResult("gradient_finite_difference", worst <= tolerance, worst, tolerance,
                       f"{num_cases} circuits, 4 terms, central step 1e-5")


def run_checks(seed: int = DEFAULT_SEED, quick: bool = False,
               tolerance_override: float | None = None) -> list[CheckResult]:
    """Run the whole suite; an override tightens/loosens every comparison
    tolerance (the integer count checks are exact either way)."""

    def tol(default: float) -> float:
        return default if tolerance_override is None else tolerance_override

    return [
        check_count_exactness(seed, quick),
        check_reference_totals(quick),
        check_baseline_equivalence(seed, quick, tol(1e-10)),
        check_finite_difference(seed, quick, tol(1e-6)),
        check_gauge_invariance(seed, quick, tol(1e-9)),
        check_berry_consistency(seed, quick, tol(1e-12)),
        check_blocked_count_exactness(seed, quick),
        check_blocked_agreement(seed, quick, tol(1e-10)),
        check_costate_count_exactness(seed, quick),
        check_costate_agreement(seed, quick, tol(1e-10)),
        check_costate_finite_difference(seed, quick, tol(1e-6)),
        check_gradient_count_exactness(seed, quick),
        check_gradient_finite_difference(seed, quick, tol(1e-6)),
    ]
