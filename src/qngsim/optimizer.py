"""Natural-gradient minimization of Pauli-sum Hamiltonians.

Plain gradient descent updates ``theta -= dt * grad(E)``; natural-gradient
descent instead solves ``(g + lam*I) dtheta = -dt * grad(E)`` with
``g = Re(G)`` the Fubini-Study metric from the metric module, then applies
``dtheta``.  The Tikhonov shift ``lam`` keeps the solve well-posed when the
metric is singular or near-singular.

Energies are ``Re<psi|H|psi>`` evaluated term by term; gradients use a
reverse sweep: with ``|b> = sigma_t |psi>`` rolled backward through the gate
adjoints, each component is ``2 * c_t * Re<b| dU_i |psi_{i-1}>``, giving O(P)
gate applications per Hamiltonian term instead of the O(P^2) that
parameter-wise finite differences would cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

from .ansatz import AnsatzCircuit, prepare_ansatz_state
from .errors import ParseError, SingularMetricError
from .gates import PauliString
from .metric import compute_geometric_tensor
from .statevector import (
    OpCounter,
    Statevector,
    apply_operator,
    clone_into,
    inner_product,
)

__all__ = [
    "NATURAL_GRADIENT",
    "OptimizationTrace",
    "OptimizerConfig",
    "PLAIN_GRADIENT",
    "PauliSumHamiltonian",
    "StepRecord",
    "energy_expectation",
    "energy_gradient",
    "parse_hamiltonian_file",
    "parse_hamiltonian_text",
    "run_optimization",
]

NATURAL_GRADIENT = "natural_gradient"
PLAIN_GRADIENT = "plain_gradient"


@dataclass(frozen=True, eq=False)
class PauliSumHamiltonian:
    """A real-weighted sum of Pauli strings; Hermitian by construction."""

    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(coeff), pauli) for coeff, pauli in self.terms)
        object.__setattr__(self, "terms", terms)

    @cached_property
    def _term_operators(self):
        return tuple((coeff, pauli.operator()) for coeff, pauli in self.terms)

    @property
    def max_qubit(self) -> int:
        """Largest qubit index any term touches; -1 for a constant sum."""
        qubits = [q for _, pauli in self.terms for q in pauli.qubits]
        return max(qubits) if qubits else -1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{coeff:g} {pauli}" for coeff, pauli in self.terms)


def parse_hamiltonian_text(text: str, source: str = "<string>") -> PauliSumHamiltonian:
    """One term per line: ``coeff pauli-word`` (e.g. ``0.5 X0 X1``).

    A line with just a coefficient is an identity term; blank lines and
    ``#`` comments are skipped.
    """
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: expected a coefficient, got {tokens[0]!r}")
        try:
            pauli = PauliString.parse(" ".join(tokens[1:]))
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}")
        terms.append((coeff, pauli))
    return PauliSumHamiltonian(tuple(terms))


def parse_hamiltonian_file(path) -> PauliSumHamiltonian:
    path = Path(path)
    return parse_hamiltonian_text(path.read_text(), source=str(path))


# ---------------------------------------------------------------------------
# Energy and gradient
# ---------------------------------------------------------------------------


def energy_expectation(circuit: AnsatzCircuit, params,
                       hamiltonian: PauliSumHamiltonian,
                       counter: OpCounter) -> float:
    """``Re <psi|H|psi>`` evaluated term by term on the prepared state."""
    psi = prepare_ansatz_state(circuit, params, counter)
    work = Statevector.zeros(circuit.num_qubits)
    return _expectation_of_state(psi, hamiltonian, counter, work)


def _expectation_of_state(psi: Statevector, hamiltonian: PauliSumHamiltonian,
                          counter: OpCounter, work: Statevector) -> float:
    total = 0.0 + 0.0j
    for coeff, op in hamiltonian._term_operators:
        clone_into(psi, work, counter)
        apply_operator(work, op, counter)
        total += coeff * inner_product(psi, work, counter)
    return float(total.real)


def energy_gradient(circuit: AnsatzCircuit, params,
                    hamiltonian: PauliSumHamiltonian,
                    counter: OpCounter) -> np.ndarray:
    """All P components of the energy gradient in O(P) gates per term."""
    bound = circuit.bind(params)
    count = circuit.num_parameters
    adjoints, derivatives = bound.adjoints, bound.derivatives

    psi = bound.prepare(counter)
    back = Statevector.zeros(circuit.num_qubits)
    roll = Statevector.zeros(circuit.num_qubits)
    work = Statevector.zeros(circuit.num_qubits)
    grad = np.zeros(count, dtype=np.float64)
    for coeff, op in hamiltonian._term_operators:
        clone_into(psi, back, counter)
        apply_operator(back, op, counter)  # back = sigma_t |psi>
        clone_into(psi, roll, counter)
        for i in range(count - 1, -1, -1):
            apply_operator(roll, adjoints[i], counter)  # roll = |psi_{i-1}>
            clone_into(roll, work, counter)
            apply_operator(work, derivatives[i], counter)
            grad[i] += 2.0 * coeff * inner_product(back, work, counter).real
            if i > 0:
                apply_operator(back, adjoints[i], counter)
    return grad


# ---------------------------------------------------------------------------
# Update loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the update loop of ``run_optimization``."""

    timestep: float
    regularization: float = 1e-8
    max_steps: int = 500
    energy_tolerance: float = 1e-10
    mode: str = NATURAL_GRADIENT

    def __post_init__(self) -> None:
        if self.timestep <= 0:
            raise ValueError(f"timestep must be positive, got {self.timestep}")
        if self.regularization < 0:
            raise ValueError(
                f"regularization must be non-negative, got {self.regularization}"
            )
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.energy_tolerance <= 0:
            raise ValueError(
                f"energy_tolerance must be positive, got {self.energy_tolerance}"
            )
        if self.mode not in (NATURAL_GRADIENT, PLAIN_GRADIENT):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class StepRecord:
    """State of the loop at one parameter vector, before stepping away from it."""

    step: int
    energy: float
    gradient_norm: float
    parameters: np.ndarray


@dataclass
class OptimizationTrace:
    records: list[StepRecord] = field(default_factory=list)

    @property
    def energies(self) -> np.ndarray:
        return np.array([record.energy for record in self.records])

    @property
    def final_energy(self) -> float:
        return self.records[-1].energy

    @property
    def final_parameters(self) -> np.ndarray:
        return self.records[-1].parameters

    def write_csv(self, path) -> None:
        lines = ["step,energy,grad_norm"]
        for record in self.records:
            lines.append(
                f"{record.step},{record.energy:.17g},{record.gradient_norm:.17g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def _solve_metric_system(metric: np.ndarray, rhs: np.ndarray,
                         regularization: float) -> np.ndarray:
    """Solve ``(metric + regularization*I) x = rhs`` by a dense symmetric solve.

    One iterative-refinement pass keeps the residual near machine level.
    Raises SingularMetricError when the shifted system is still singular,
    which with ``regularization == 0`` means the metric itself is.
    """
    shifted = metric + regularization * np.eye(len(rhs))
    try:
        solution = scipy.linalg.solve(shifted, rhs, assume_a="sym")
        residual = rhs - shifted @ solution
        if np.max(np.abs(residual)) > 0.0:
            solution = solution + scipy.linalg.solve(shifted, residual, assume_a="sym")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularMetricError(
            "metric solve failed on a singular system; rerun with a positive "
            "regularization (lambda > 0)"
        ) from exc
    if not np.all(np.isfinite(solution)):
        raise SingularMetricError(
            "metric solve produced non-finite values; rerun with a positive "
            "regularization (lambda > 0)"
        )
    return solution


def run_optimization(circuit: AnsatzCircuit, initial_params,
                     hamiltonian: PauliSumHamiltonian,
                     config: OptimizerConfig) -> OptimizationTrace:
    """Iterate updates until ``max_steps`` or the energy change drops below
    ``energy_tolerance``; every evaluated point is recorded in the trace."""
    counter = OpCounter()
    theta = circuit.bind(initial_params).theta
    trace = OptimizationTrace()
    energy = energy_expectation(circuit, theta, hamiltonian, counter)
    grad = energy_gradient(circuit, theta, hamiltonian, counter)
    trace.records.append(StepRecord(0, energy, float(np.linalg.norm(grad)), theta.copy()))
    for step in range(1, config.max_steps + 1):
        delta = -config.timestep * grad
        if config.mode == NATURAL_GRADIENT:
            metric = compute_geometric_tensor(circuit, theta, counter).fubini_study_metric
            delta = _solve_metric_system(metric, delta, config.regularization)
        theta = theta + delta
        new_energy = energy_expectation(circuit, theta, hamiltonian, counter)
        grad = energy_gradient(circuit, theta, hamiltonian, counter)
        trace.records.append(
            StepRecord(step, new_energy, float(np.linalg.norm(grad)), theta.copy())
        )
        if abs(new_energy - energy) < config.energy_tolerance:
            break
        energy = new_energy
    return trace
