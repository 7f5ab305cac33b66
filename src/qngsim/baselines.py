"""Reference evaluations of the derivative-overlap tensor, from naive to tuned.

Seven baseline strategies compute the same derivative-overlap tensor
``L_ij = <d_i psi, d_j psi>`` as the main recurrent algorithm in the metric
module: each fills the entries with i <= j of a P x P array and mirrors them
into the lower triangle.  They exist for two reasons: mutual oracle
equivalence (every strategy must agree to near machine precision) and
cost-model verification (every strategy's instrumented gate/clone counts must
match the closed forms in :func:`cost_model` exactly, integer for integer).

The progression: alg2 rebuilds both derivative states from scratch for every
(i, j) pair, including the redundant lower triangle; alg3 keeps only i <= j
and cancels the gates above j analytically; alg4 rolls the pre-gate suffix
state forward across j iterations; alg5 additionally rolls the infix
backward across i (which is why its i loop descends); alg6 also rolls the
prefix, reaching O(P^2) with four registers; alg7 instead materializes all P
derivative states and defers the inner products, trading O(P) registers for
fewer gates; alg8 is alg7 with a rolling suffix, and is the L half of the
metric module's blocked route with B = P
(:func:`~qngsim.metric.blocked_overlaps`).

Loop bounds, clone points and application order follow the reference control
flow line by line, so instrumented counts are auditable against
:func:`cost_model`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .ansatz import AnsatzCircuit, input_state
from .errors import ResourceLimitError
from .metric import blocked_overlaps, mirror_upper, overlap_matrix
from .statevector import (
    OpCounter,
    Statevector,
    apply_operator,
    clone_into,
    inner_product,
)

__all__ = [
    "BaselineId",
    "CostModel",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "compute_li_tensor",
    "cost_model",
    "naive_full_li_matrix",
]

DEFAULT_MEMORY_BUDGET_BYTES = 4 * 2**30

_BYTES_PER_AMPLITUDE = 16  # complex128


class BaselineId(Enum):
    ALG2 = "alg2"
    ALG3 = "alg3"
    ALG4 = "alg4"
    ALG5 = "alg5"
    ALG6 = "alg6"
    ALG7 = "alg7"
    ALG8 = "alg8"

    @classmethod
    def parse(cls, name: str) -> "BaselineId":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown algorithm {name!r} (expected one of {valid})")


class CostModel(NamedTuple):
    gates: int
    clones: int
    registers: int


def cost_model(alg: BaselineId, num_parameters: int) -> CostModel:
    """Exact closed-form gate/clone/register counts for a P-parameter run.

    The fractional coefficients always cancel: every value is a non-negative
    integer for every integer P >= 1.
    """
    p = num_parameters
    if p < 1:
        raise ValueError(f"num_parameters must be >= 1, got {p}")
    if alg is BaselineId.ALG2:
        return CostModel(2 * p**3, 2 * p * p, 2)
    if alg is BaselineId.ALG3:
        return CostModel((2 * p**3 + 3 * p * p + p) // 3, (p * p + p) // 2, 1)
    if alg is BaselineId.ALG4:
        return CostModel((2 * p**3 + 3 * p * p + 13 * p) // 6,
                         (p * p + 3 * p + 2) // 2, 3)
    if alg is BaselineId.ALG5:
        return CostModel((p**3 + 6 * p * p + 11 * p) // 6,
                         (p * p + 3 * p + 2) // 2, 3)
    if alg is BaselineId.ALG6:
        return CostModel((3 * p * p + 3 * p) // 2, (p * p + 5 * p + 2) // 2, 4)
    if alg is BaselineId.ALG7:
        return CostModel(p * p + p, p, p)
    if alg is BaselineId.ALG8:
        return CostModel((p * p + 3 * p) // 2, p + 1, p + 1)
    raise ValueError(f"unknown baseline {alg!r}")


def compute_li_tensor(alg: BaselineId, circuit: AnsatzCircuit, params,
                      counter: OpCounter,
                      memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES) -> np.ndarray:
    """Run one baseline strategy for the P x P Hermitian ``L``; the counter
    ends up matching :func:`cost_model`.

    Raises:
        ResourceLimitError: for alg7/alg8 when their P (or P + 1) registers,
            ``cost_model(alg, P).registers``, would exceed
            ``memory_budget_bytes``.
    """
    if alg in (BaselineId.ALG7, BaselineId.ALG8):
        registers = cost_model(alg, circuit.num_parameters).registers
        needed = registers * (1 << circuit.num_qubits) * _BYTES_PER_AMPLITUDE
        if needed > memory_budget_bytes:
            raise ResourceLimitError(
                f"{registers} registers of {circuit.num_qubits} qubits need {needed} "
                f"bytes, over the {memory_budget_bytes}-byte budget"
            )
    return _RUNNERS[alg](circuit, circuit.bind(params), counter)


# ---------------------------------------------------------------------------
# Individual strategies
# ---------------------------------------------------------------------------


def naive_full_li_matrix(circuit: AnsatzCircuit, params,
                         counter: OpCounter) -> np.ndarray:
    """The alg2 run, returning the full P x P matrix it computes.

    Both triangles are evaluated independently, so unlike every other route
    its lower triangle is not mirrored from the upper one; that makes it the
    debug route for checking Hermiticity.
    """
    bound = circuit.bind(params)
    count = circuit.num_parameters
    unitaries, derivatives = bound.unitaries, bound.derivatives
    start = input_state(circuit)
    phi_a = Statevector.zeros(circuit.num_qubits)
    phi_b = Statevector.zeros(circuit.num_qubits)
    full = np.zeros((count, count), dtype=np.complex128)
    for i in range(count):
        for j in range(count):
            clone_into(start, phi_a, counter)
            clone_into(start, phi_b, counter)
            for k in range(i):
                apply_operator(phi_a, unitaries[k], counter)
            apply_operator(phi_a, derivatives[i], counter)
            for k in range(i + 1, count):
                apply_operator(phi_a, unitaries[k], counter)
            for k in range(j):
                apply_operator(phi_b, unitaries[k], counter)
            apply_operator(phi_b, derivatives[j], counter)
            for k in range(j + 1, count):
                apply_operator(phi_b, unitaries[k], counter)
            full[i, j] = inner_product(phi_a, phi_b, counter)
    return full


def _run_alg2(circuit, bound, counter):
    return mirror_upper(naive_full_li_matrix(circuit, bound, counter))


def _run_alg3(circuit, bound, counter):
    # Upper triangle only; gates above j cancel analytically, so each element
    # is one forward sweep to the derivative of gate j and one adjoint sweep
    # back down through the derivative of gate i.
    count = circuit.num_parameters
    unitaries, adjoints = bound.unitaries, bound.adjoints
    derivatives, derivative_adjoints = bound.derivatives, bound.derivative_adjoints
    start = input_state(circuit)
    phi = Statevector.zeros(circuit.num_qubits)
    li = np.zeros((count, count), dtype=np.complex128)
    for j in range(count):
        for i in range(j + 1):
            clone_into(start, phi, counter)
            for k in range(j):
                apply_operator(phi, unitaries[k], counter)
            apply_operator(phi, derivatives[j], counter)
            for k in range(j, i, -1):
                apply_operator(phi, adjoints[k], counter)
            apply_operator(phi, derivative_adjoints[i], counter)
            for k in range(i - 1, -1, -1):
                apply_operator(phi, adjoints[k], counter)
            li[i, j] = inner_product(start, phi, counter)
    return mirror_upper(li)


def _run_alg4(circuit, bound, counter):
    # As alg3, but the pre-gate-j state rolls forward one gate per j iteration
    # instead of being rebuilt from scratch.
    count = circuit.num_parameters
    unitaries, adjoints = bound.unitaries, bound.adjoints
    derivatives, derivative_adjoints = bound.derivatives, bound.derivative_adjoints
    start = input_state(circuit)
    psi = Statevector.zeros(circuit.num_qubits)
    phi = Statevector.zeros(circuit.num_qubits)
    lam = Statevector.zeros(circuit.num_qubits)
    li = np.zeros((count, count), dtype=np.complex128)
    clone_into(start, psi, counter)
    for j in range(count):
        clone_into(psi, phi, counter)
        apply_operator(phi, derivatives[j], counter)
        for i in range(j + 1):
            clone_into(phi, lam, counter)
            for k in range(j, i, -1):
                apply_operator(lam, adjoints[k], counter)
            apply_operator(lam, derivative_adjoints[i], counter)
            for k in range(i - 1, -1, -1):
                apply_operator(lam, adjoints[k], counter)
            li[i, j] = inner_product(start, lam, counter)
        apply_operator(psi, unitaries[j], counter)
    return mirror_upper(li)


def _run_alg5(circuit, bound, counter):
    # Rolling suffix and rolling infix: the i loop descends so the infix state
    # extends by a single adjoint per iteration.  The final i = 0 roll would
    # be overwritten immediately and is skipped.
    count = circuit.num_parameters
    unitaries, adjoints = bound.unitaries, bound.adjoints
    derivatives, derivative_adjoints = bound.derivatives, bound.derivative_adjoints
    start = input_state(circuit)
    psi = Statevector.zeros(circuit.num_qubits)
    phi = Statevector.zeros(circuit.num_qubits)
    lam = Statevector.zeros(circuit.num_qubits)
    li = np.zeros((count, count), dtype=np.complex128)
    clone_into(start, psi, counter)
    for j in range(count):
        clone_into(psi, phi, counter)
        apply_operator(phi, derivatives[j], counter)
        for i in range(j, -1, -1):
            clone_into(phi, lam, counter)
            apply_operator(lam, derivative_adjoints[i], counter)
            for k in range(i - 1, -1, -1):
                apply_operator(lam, adjoints[k], counter)
            li[i, j] = inner_product(start, lam, counter)
            if i > 0:
                apply_operator(phi, adjoints[i], counter)
        apply_operator(psi, unitaries[j], counter)
    return mirror_upper(li)


def _run_alg6(circuit, bound, counter):
    # Rolling suffix, infix and prefix; every state in an (i, j) iteration
    # comes from the previous iteration in O(1) gates, for O(P^2) total.
    # Dead rolls at i = 0 are skipped, as in alg5.
    count = circuit.num_parameters
    unitaries, adjoints = bound.unitaries, bound.adjoints
    derivatives, derivative_adjoints = bound.derivatives, bound.derivative_adjoints
    start = input_state(circuit)
    psi = Statevector.zeros(circuit.num_qubits)
    phi = Statevector.zeros(circuit.num_qubits)
    lam = Statevector.zeros(circuit.num_qubits)
    mu = Statevector.zeros(circuit.num_qubits)
    li = np.zeros((count, count), dtype=np.complex128)
    clone_into(start, psi, counter)
    for j in range(count):
        clone_into(psi, mu, counter)
        clone_into(psi, phi, counter)
        apply_operator(phi, derivatives[j], counter)
        for i in range(j, -1, -1):
            clone_into(phi, lam, counter)
            apply_operator(lam, derivative_adjoints[i], counter)
            li[i, j] = inner_product(mu, lam, counter)
            if i > 0:
                apply_operator(phi, adjoints[i], counter)
                apply_operator(mu, adjoints[i - 1], counter)
        apply_operator(psi, unitaries[j], counter)
    return mirror_upper(li)


def _run_alg7(circuit, bound, counter):
    # Materialize every derivative state independently, then take all inner
    # products at the end.  The derivative image is produced as the gate
    # unitary followed by its generator factor: two counted applications,
    # which is what cost_model charges this strategy per state.
    count = circuit.num_parameters
    unitaries = bound.unitaries
    start = input_state(circuit)
    states = [Statevector.zeros(circuit.num_qubits) for _ in range(count)]
    for i in range(count):
        clone_into(start, states[i], counter)
        for k in range(i):
            apply_operator(states[i], unitaries[k], counter)
        apply_operator(states[i], unitaries[i], counter)
        apply_operator(states[i], circuit.gates[i].derivative_factor, counter)
        for k in range(i + 1, count):
            apply_operator(states[i], unitaries[k], counter)
    return overlap_matrix(states, counter)


def _run_alg8(circuit, bound, counter):
    # As alg7, but the shared pre-derivative suffix rolls forward in a single
    # extra register, roughly halving the gate count: the forward pass of the
    # blocked route with B = P, which applies D_i to psi_i, without T.
    return blocked_overlaps(bound, circuit.num_parameters, counter)


_RUNNERS = {
    BaselineId.ALG2: _run_alg2,
    BaselineId.ALG3: _run_alg3,
    BaselineId.ALG4: _run_alg4,
    BaselineId.ALG5: _run_alg5,
    BaselineId.ALG6: _run_alg6,
    BaselineId.ALG7: _run_alg7,
    BaselineId.ALG8: _run_alg8,
}
