"""Natural-gradient minimization of Pauli-sum Hamiltonians.

Plain gradient descent updates ``theta -= dt * grad(E)``; natural-gradient
descent instead solves ``(g + lam*I) dtheta = -dt * grad(E)`` with
``g = Re(G)`` the Fubini-Study metric from the metric module, then applies
``dtheta``.  The Tikhonov shift ``lam`` keeps the solve well-posed when the
metric is singular or near-singular.

The energy and its gradient come from one pass (the reverse mode of Jones
and Gacon, arXiv:2009.02823): prepare ``|psi>``, sum the Hamiltonian into one
register, ``|lambda> = sum_t c_t sigma_t |psi>`` (a clone, a Pauli string and
an axpy per term), and read the energy ``Re<psi|lambda>``.  One reverse
sweep then rolls ``|psi>`` and ``|lambda>`` back through the gate adjoints;
each component is ``2 * Re<lambda_i| D_i |psi_i>`` with the gate's cached
factor ``D_i`` (``dU_i |psi_{i-1}> = D_i |psi_i>``).  That is O(P + T)
primitives in three registers, counted exactly by :func:`gradient_cost`,
against the O(P^2) of parameter-wise finite differences.
``run_optimization`` binds each point once: the energy, the gradient and the
tensor all take their gate operators from that one binding.  Its tensor is
:func:`~qngsim.metric.compute_geometric_tensor`, whose docstring states the
rule that picks the route, as ``qngsim tensor`` does by default.  Every
route builds only unitaries and adjoints at a point, and the co-state route
rolls back through the same adjoints the gradient sweep uses.

The whole loop needs numpy only: the natural-gradient solve,
:func:`_solve_metric_system`, is numpy's LAPACK LU solve, so an optimizer
run loads no scipy module unless its gates do (an rx or ry on six or more
qubits is a BLAS plane rotation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ansatz import AnsatzCircuit, BoundCircuit, prepare_ansatz_state
from .errors import SingularMetricError, StepOverflowError
from .gates import PauliSum
from .metric import compute_geometric_tensor
from .parsing import parse_hamiltonian_file, parse_hamiltonian_text  # re-exported
from .statevector import (
    OpCounter,
    Statevector,
    apply_operator,
    axpy,
    clone_into,
    inner_product,
)

__all__ = [
    "NATURAL_GRADIENT",
    "OptimizationTrace",
    "OptimizerConfig",
    "PLAIN_GRADIENT",
    "StepRecord",
    "energy_expectation",
    "energy_gradient",
    "gradient_cost",
    "parse_hamiltonian_file",
    "parse_hamiltonian_text",
    "run_optimization",
]

NATURAL_GRADIENT = "natural_gradient"
PLAIN_GRADIENT = "plain_gradient"


# ---------------------------------------------------------------------------
# Energy and gradient
# ---------------------------------------------------------------------------


def gradient_cost(num_parameters: int, num_terms: int) -> tuple[int, int, int, int]:
    """Exact (gates, clones, inner products, axpys) of one
    :func:`energy_gradient` call on P gates and T Hamiltonian terms.

    P gates prepare psi; each term costs a clone, its Pauli string and an
    axpy into lambda; the energy is one inner product; the sweep costs P
    clones, P inner products and 3P - 2 gates (P derivative factors, P - 1
    adjoints each on psi and on lambda).
    """
    if num_parameters < 1:
        raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")
    if num_terms < 0:
        raise ValueError(f"num_terms must be >= 0, got {num_terms}")
    return (4 * num_parameters + num_terms - 2, num_parameters + num_terms,
            num_parameters + 1, num_terms)


def _apply_hamiltonian(psi: Statevector, hamiltonian: PauliSum,
                       counter: OpCounter) -> tuple[float, Statevector, Statevector]:
    """``(Re<psi|lambda>, lambda, work)`` with ``|lambda> = H|psi>``, summed
    term by term through the scratch register ``work``."""
    lam = Statevector.zeros(psi.num_qubits)
    work = Statevector.zeros(psi.num_qubits)
    for coeff, op in hamiltonian.term_operators:
        clone_into(psi, work, counter)
        apply_operator(work, op, counter)
        axpy(coeff, work, lam, counter)
    return inner_product(psi, lam, counter).real, lam, work


def energy_expectation(circuit: AnsatzCircuit, params,
                       hamiltonian: PauliSum,
                       counter: OpCounter) -> float:
    """``Re <psi|H|psi>`` on the prepared state."""
    psi = prepare_ansatz_state(circuit, params, counter)
    return _apply_hamiltonian(psi, hamiltonian, counter)[0]


def _energy_and_gradient(bound: BoundCircuit, hamiltonian: PauliSum,
                         counter: OpCounter) -> tuple[float, np.ndarray]:
    """The energy and all P gradient components from one preparation and one
    reverse sweep over three registers; costs :func:`gradient_cost`."""
    gates, adjoints = bound.circuit.gates, bound.adjoints
    psi = prepare_ansatz_state(bound.circuit, bound, counter)
    energy, lam, work = _apply_hamiltonian(psi, hamiltonian, counter)
    grad = np.zeros(len(gates), dtype=np.float64)
    for i in range(len(gates) - 1, -1, -1):
        clone_into(psi, work, counter)  # psi = |psi_i>, so dU_i|psi_{i-1}> = D_i|psi_i>
        apply_operator(work, gates[i].derivative_factor, counter)
        grad[i] = 2.0 * inner_product(lam, work, counter).real
        if i > 0:
            apply_operator(psi, adjoints[i], counter)
            apply_operator(lam, adjoints[i], counter)
    return energy, grad


def energy_gradient(circuit: AnsatzCircuit, params,
                    hamiltonian: PauliSum,
                    counter: OpCounter) -> np.ndarray:
    """All P components of the energy gradient in O(P + T) primitives."""
    return _energy_and_gradient(circuit.bind(params), hamiltonian, counter)[1]


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
        for name in ("timestep", "regularization", "energy_tolerance"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    """Solve ``(metric + regularization*I) x = rhs`` by a dense LU solve
    (``np.linalg.solve``, LAPACK ``gesv``).

    One iterative-refinement pass keeps the residual near machine level.

    Raises:
        StepOverflowError: the step does not fit in a float: ``rhs``
            (``-dt * grad(E)``) is not finite, or the solve is finite for
            ``rhs`` scaled to a largest entry of 1 but not for ``rhs``
            itself.  Either way a smaller timestep helps, not the shift.
        SingularMetricError: the shifted system is still singular, which
            with ``regularization == 0`` means the metric itself is.
    """
    if not np.all(np.isfinite(rhs)):
        raise StepOverflowError(
            "the step -dt * grad(E) is not finite; lower the timestep (--dt)"
        )
    shifted = metric + regularization * np.eye(len(rhs))
    try:
        solution = np.linalg.solve(shifted, rhs)
        residual = rhs - shifted @ solution
        if np.max(np.abs(residual)) > 0.0:
            solution = solution + np.linalg.solve(shifted, residual)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(
            "metric solve failed on a singular system; rerun with a positive "
            "regularization (lambda > 0)"
        ) from exc
    if not np.all(np.isfinite(solution)):
        scale = np.max(np.abs(rhs))
        if scale > 0.0 and np.all(np.isfinite(np.linalg.solve(shifted, rhs / scale))):
            raise StepOverflowError(
                "the natural-gradient step (metric + lambda*I)^-1 (-dt * grad(E)) "
                "is not finite; lower the timestep (--dt)"
            )
        raise SingularMetricError(
            "metric solve produced non-finite values; rerun with a positive "
            "regularization (lambda > 0)"
        )
    return solution


def run_optimization(circuit: AnsatzCircuit, initial_params,
                     hamiltonian: PauliSum,
                     config: OptimizerConfig) -> OptimizationTrace:
    """Iterate updates until ``max_steps`` or the energy change drops below
    ``energy_tolerance``; every evaluated point is recorded in the trace.

    Raises:
        StepOverflowError: a step leaves the finite floats, in ``-dt * grad``,
            in the natural-gradient solve or in ``theta + delta``.
    """
    counter = OpCounter()
    bound = circuit.bind(initial_params)
    theta = bound.theta
    trace = OptimizationTrace()
    energy, grad = _energy_and_gradient(bound, hamiltonian, counter)
    trace.records.append(StepRecord(0, energy, float(np.linalg.norm(grad)), theta.copy()))
    for step in range(1, config.max_steps + 1):
        with np.errstate(over="ignore"):
            delta = -config.timestep * grad
        if config.mode == NATURAL_GRADIENT:
            metric = compute_geometric_tensor(circuit, bound, counter).fubini_study_metric
            delta = _solve_metric_system(metric, delta, config.regularization)
        with np.errstate(over="ignore"):
            theta = theta + delta
        if not np.all(np.isfinite(theta)):
            raise StepOverflowError(
                f"step {step} takes the parameters past the largest float; "
                f"lower the timestep (--dt)"
            )
        bound = circuit.bind(theta)
        theta = bound.theta
        new_energy, grad = _energy_and_gradient(bound, hamiltonian, counter)
        trace.records.append(
            StepRecord(step, new_energy, float(np.linalg.norm(grad)), theta.copy())
        )
        if abs(new_energy - energy) < config.energy_tolerance:
            break
        energy = new_energy
    return trace
