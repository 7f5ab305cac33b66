"""Ordered parameterized circuits acting on a fixed basis input state.

A circuit is a sequence of P gates, each owning exactly one parameter; gate k
is bound index-for-index to entry k of the parameter vector.  Gates are
applied first-to-last, so the prepared state is ``U_P ... U_1 |in>``.
Parameters are radians for rotation gates and are never wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .gates import ControlledPauliRotation, ParameterizedGate, PauliRotation, PauliString
from .statevector import (
    MatrixGateOperator,
    OpCounter,
    Statevector,
    apply_operator,
    make_basis_state,
)

__all__ = [
    "AnsatzCircuit",
    "BoundCircuit",
    "as_rng",
    "input_state",
    "phased_variant",
    "prepare_ansatz_state",
    "random_circuit",
    "random_layered_circuit",
    "random_parameters",
]

_ROTATION_AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class AnsatzCircuit:
    """P parameterized gates on ``num_qubits`` qubits, fed ``|input_basis>``."""

    num_qubits: int
    gates: tuple[ParameterizedGate, ...]
    input_basis: int = 0

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if not gates:
            raise ValueError("a circuit needs at least one gate")
        if not 0 <= self.input_basis < (1 << self.num_qubits):
            raise ValueError(
                f"input basis index {self.input_basis} out of range for "
                f"{self.num_qubits} qubits"
            )
        for position, gate in enumerate(gates):
            for qubit in gate.qubit_indices:
                if qubit >= self.num_qubits:
                    raise ValueError(
                        f"gate {position} acts on qubit {qubit}, but the circuit "
                        f"has only {self.num_qubits} qubits"
                    )
        object.__setattr__(self, "gates", gates)

    @property
    def num_parameters(self) -> int:
        return len(self.gates)

    def bind(self, params) -> "BoundCircuit":
        """Fix the parameters: a length-P vector of finite reals, or a
        :class:`BoundCircuit` of this circuit, which is returned unchanged so
        its operators are shared.

        Raises:
            ValueError: on a wrong shape, a NaN or infinite entry, or a
                binding of another circuit.
        """
        if isinstance(params, BoundCircuit):
            if params.circuit is not self:
                raise ValueError("the bound parameters belong to another circuit")
            return params
        theta = np.array(params, dtype=np.float64)
        if theta.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got shape {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            bad = int(np.flatnonzero(~np.isfinite(theta))[0])
            raise ValueError(f"parameter {bad} is {theta[bad]}; parameters must be finite")
        theta.setflags(write=False)
        return BoundCircuit(self, theta)


class BoundCircuit:
    """A circuit at one parameter point, made by :meth:`AnsatzCircuit.bind`.

    Owns every gate operator at ``theta``: each tuple is built on first use
    and at most once per binding.
    """

    def __init__(self, circuit: AnsatzCircuit, theta: np.ndarray) -> None:
        self.circuit = circuit
        self.theta = theta

    @cached_property
    def unitaries(self) -> tuple[MatrixGateOperator, ...]:
        return tuple(gate.unitary(t) for gate, t in zip(self.circuit.gates, self.theta))

    @cached_property
    def adjoints(self) -> tuple[MatrixGateOperator, ...]:
        return tuple(op.adjoint() for op in self.unitaries)

    @cached_property
    def derivatives(self) -> tuple[MatrixGateOperator, ...]:
        return tuple(gate.derivative(t) for gate, t in zip(self.circuit.gates, self.theta))

    @cached_property
    def derivative_adjoints(self) -> tuple[MatrixGateOperator, ...]:
        return tuple(op.adjoint() for op in self.derivatives)

    def prepare(self, counter: OpCounter, upto: int | None = None) -> Statevector:
        """The state after the first ``upto`` gates (default all P); ``upto=0``
        gives ``|in>``.  Exactly ``upto`` gate applications."""
        count = self.circuit.num_parameters
        if upto is None:
            upto = count
        elif not 0 <= upto <= count:
            raise ValueError(f"upto must be in [0, {count}], got {upto}")
        state = input_state(self.circuit, kind="state")
        for op in self.unitaries[:upto]:
            apply_operator(state, op, counter)
        return state


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or a ready Generator (PCG64 via default_rng)."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def input_state(circuit: AnsatzCircuit, kind: str = "input") -> Statevector:
    return make_basis_state(circuit.num_qubits, circuit.input_basis, kind=kind)


def prepare_ansatz_state(circuit: AnsatzCircuit, params,
                         counter: OpCounter) -> Statevector:
    """``U_P(theta_P) ... U_1(theta_1)|in>``; exactly P gate applications."""
    return circuit.bind(params).prepare(counter)


# ---------------------------------------------------------------------------
# Seeded test circuits
# ---------------------------------------------------------------------------


def random_circuit(num_qubits: int, num_parameters: int,
                   seed_or_rng: int | np.random.Generator,
                   include_controlled: bool = True) -> AnsatzCircuit:
    """A seeded layered circuit with exactly ``num_parameters`` gates.

    Layers repeat the pattern "one rotation per qubit (axis drawn uniformly
    from X/Y/Z), then controlled-Z rotations around a ring", truncated once
    the requested gate count is reached.  With ``include_controlled=False``
    (or a single qubit) only the rotation sublayers are emitted, which keeps
    every gate eligible for the phased variant used in gauge tests.
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if num_parameters < 1:
        raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")
    rng = as_rng(seed_or_rng)
    gates: list[ParameterizedGate] = []
    use_ring = include_controlled and num_qubits >= 2
    while len(gates) < num_parameters:
        for qubit in range(num_qubits):
            axis = _ROTATION_AXES[int(rng.integers(0, 3))]
            gates.append(PauliRotation(PauliString.single(qubit, axis)))
            if len(gates) == num_parameters:
                break
        if use_ring and len(gates) < num_parameters:
            for qubit in range(num_qubits):
                target = (qubit + 1) % num_qubits
                gates.append(ControlledPauliRotation(qubit, PauliString.single(target, "Z")))
                if len(gates) == num_parameters:
                    break
    return AnsatzCircuit(num_qubits, tuple(gates))


def random_layered_circuit(num_qubits: int, layers: int,
                           seed_or_rng: int | np.random.Generator,
                           include_controlled: bool = True) -> AnsatzCircuit:
    """``layers`` full layers of the :func:`random_circuit` pattern."""
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    per_layer = num_qubits * 2 if (include_controlled and num_qubits >= 2) else num_qubits
    return random_circuit(num_qubits, layers * per_layer, seed_or_rng,
                          include_controlled=include_controlled)


def random_parameters(num_parameters: int,
                      seed_or_rng: int | np.random.Generator) -> np.ndarray:
    """Uniform draws from [0, 2*pi), one per parameter."""
    rng = as_rng(seed_or_rng)
    return rng.uniform(0.0, 2.0 * np.pi, size=num_parameters)


def phased_variant(circuit: AnsatzCircuit, phase_rate: float) -> AnsatzCircuit:
    """Give every rotation the phase rate ``phase_rate``.

    Each gate picks up a parameter-dependent global phase
    ``exp(i * phase_rate * theta_k)``; only Pauli rotations can be converted.
    """
    for position, gate in enumerate(circuit.gates):
        if not isinstance(gate, PauliRotation):
            raise ValueError(
                f"gate {position} ({type(gate).__name__}) has no phased variant"
            )
    return AnsatzCircuit(circuit.num_qubits,
                         tuple(replace(gate, phase_rate=phase_rate) for gate in circuit.gates),
                         circuit.input_basis)
