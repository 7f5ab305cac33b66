"""Natural-gradient minimization of Pauli-sum Hamiltonians.

Plain gradient descent updates ``theta -= dt * grad(E)``; natural-gradient
descent instead solves ``(g + lam*I) dtheta = -dt * grad(E)`` with
``g = Re(G)`` the Fubini-Study metric from the metric module, then applies
``dtheta``.  The Tikhonov shift ``lam`` keeps the solve well-posed when the
metric is singular or near-singular.

The energy and its gradient come from one pass: prepare ``|psi>``, sum the
Hamiltonian into one register, ``|lambda> = sum_t c_t sigma_t |psi>`` (a
clone, a Pauli string and an axpy per term), read the energy
``Re<psi|lambda>``, and take the gradient as ``2 Re`` of
:func:`~qngsim.metric.reverse_sweep` with ``lambda`` as its one read.  That
is O(P + T) primitives in three registers, counted exactly by
:func:`gradient_cost`, against the O(P^2) of parameter-wise finite
differences.
``run_optimization`` binds each point once, so the energy, the gradient and
the tensor (:func:`~qngsim.metric.compute_geometric_tensor`, which picks its
route as ``qngsim tensor`` does by default) share its gate operators.

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
from .errors import CoefficientOverflowError, SingularMetricError, StepOverflowError
from .gates import PauliSum
from .metric import compute_geometric_tensor, reverse_sweep
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
    axpy into lambda; the energy is one inner product; the reverse sweep
    rolls psi and lambda.
    """
    if num_parameters < 1:
        raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")
    if num_terms < 0:
        raise ValueError(f"num_terms must be >= 0, got {num_terms}")
    return (4 * num_parameters + num_terms - 2, num_parameters + num_terms,
            num_parameters + 1, num_terms)


def _apply_hamiltonian(psi: Statevector, hamiltonian: PauliSum,
                       counter: OpCounter) -> tuple[float, Statevector]:
    """``(Re<psi|lambda>, lambda)`` with ``|lambda> = H|psi>``, summed term
    by term through a scratch register."""
    lam = Statevector.zeros(psi.num_qubits)
    work = Statevector.zeros(psi.num_qubits)
    for coeff, op in hamiltonian.term_operators:
        clone_into(psi, work, counter)
        apply_operator(work, op, counter)
        axpy(coeff, work, lam, counter)
    return inner_product(psi, lam, counter).real, lam


def energy_expectation(circuit: AnsatzCircuit, params,
                       hamiltonian: PauliSum,
                       counter: OpCounter) -> float:
    """``Re <psi|H|psi>`` on the prepared state."""
    psi = prepare_ansatz_state(circuit, params, counter)
    return _apply_hamiltonian(psi, hamiltonian, counter)[0]


def _energy_and_gradient(bound: BoundCircuit, hamiltonian: PauliSum,
                         counter: OpCounter, where: str = "") -> tuple[float, np.ndarray]:
    """The energy and all P gradient components from one preparation and one
    :func:`~qngsim.metric.reverse_sweep` over three registers; costs
    :func:`gradient_cost`.

    Raises:
        CoefficientOverflowError: the energy or the gradient's norm is not a
            finite float; ``where`` (e.g. ``" at step 3"``) names the point.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        psi = prepare_ansatz_state(bound.circuit, bound, counter)
        energy, lam = _apply_hamiltonian(psi, hamiltonian, counter)
        grad = 2.0 * reverse_sweep(bound, psi, [lam], counter)[0].real
        finite = np.isfinite(energy) and np.isfinite(np.linalg.norm(grad))
    if not finite:
        raise CoefficientOverflowError(f"the energy or its gradient{where} overflows a "
                                       "float: a coefficient is too large")
    return energy, grad


def energy_gradient(circuit: AnsatzCircuit, params,
                    hamiltonian: PauliSum,
                    counter: OpCounter) -> np.ndarray:
    """All P components of the energy gradient in O(P + T) primitives.

    Raises:
        CoefficientOverflowError: the energy or the gradient overflows a float.
    """
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
        CoefficientOverflowError: the metric itself is not finite.
        StepOverflowError: the step does not fit in a float: ``rhs``
            (``-dt * grad(E)``) is not finite, or the solve is finite for
            ``rhs`` scaled to a largest entry of 1 but not for ``rhs``
            itself.  Either way a smaller timestep helps, not the shift.
        SingularMetricError: the shifted system is still singular, which
            with ``regularization == 0`` means the metric itself is.
    """
    if not np.all(np.isfinite(metric)):
        raise CoefficientOverflowError("the metric overflows a float: a gate "
                                       "coefficient is too large")
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
        CoefficientOverflowError: a point's energy, gradient or metric
            overflows a float.
        StepOverflowError: a step leaves the finite floats, in ``-dt * grad``,
            in the natural-gradient solve or in ``theta + delta``.
    """
    counter = OpCounter()
    bound = circuit.bind(initial_params)
    trace = OptimizationTrace()
    for step in range(config.max_steps + 1):
        energy, grad = _energy_and_gradient(bound, hamiltonian, counter, f" at step {step}")
        trace.records.append(StepRecord(step, energy, float(np.linalg.norm(grad)),
                                        bound.theta.copy()))
        if step == config.max_steps or (
                step and abs(energy - trace.records[-2].energy) < config.energy_tolerance):
            break
        with np.errstate(over="ignore", invalid="ignore"):  # checked here and in the solve
            delta = -config.timestep * grad
            if config.mode == NATURAL_GRADIENT:
                metric = compute_geometric_tensor(circuit, bound, counter).fubini_study_metric
                delta = _solve_metric_system(metric, delta, config.regularization)
            theta = bound.theta + delta
        if not np.all(np.isfinite(theta)):
            raise StepOverflowError(f"step {step + 1} takes the parameters past the "
                                    "largest float; lower the timestep (--dt)")
        bound = circuit.bind(theta)
    return trace
