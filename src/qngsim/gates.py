"""Parameterized gate families and their parameter-derivative operators.

The rotation convention is fixed once, here: a Pauli rotation with scale ``s``
is ``U(theta) = exp(i * s * theta * sigma)`` with default ``s = 1/2``, so e.g.
``RX(pi)`` acts as ``i X``.  Every gate kind is
``U(theta) = exp(i * theta * A)`` for a theta-independent Hermitian ``A`` (for
a phased rotation, ``A`` includes the identity term of its global phase), so
``dU/dtheta = i * A * U(theta)`` holds exactly, also when ``A`` is a sum of
non-commuting Pauli strings.

Derivative operators are represented structurally (small matrix on the
support, optionally behind a control projector), never as full-register
matrices, so applying one costs the same O(2^N) as a unitary gate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy.linalg import expm

from .errors import UnsupportedGateError
from .statevector import (
    MatrixGateOperator,
    PauliStringOperator,
    Statevector,
    controlled_matrix_operator,
)

__all__ = [
    "ControlledPauliRotation",
    "GateGenerator",
    "GeneratedGate",
    "GeneratorTerm",
    "ParameterizedGate",
    "PauliRotation",
    "PauliString",
    "PhasedPauliRotation",
]

PAULI_LABELS = ("X", "Y", "Z")

_PAULI_2X2 = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# Dense matrices are only ever built on a gate's local support; generated
# gates are capped at 3 support qubits so the exponential stays at most 8x8.
GENERATOR_SUPPORT_LIMIT = 3
_DENSE_SUPPORT_LIMIT = 6


@dataclass(frozen=True)
class PauliString:
    """A product of X/Y/Z factors on distinct qubits; Hermitian and self-inverse.

    The empty string is the identity (useful as a Hamiltonian term); gate axes
    require at least one factor.
    """

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        factors = tuple((int(q), str(label).upper()) for q, label in self.factors)
        for qubit, label in factors:
            if qubit < 0:
                raise ValueError(f"qubit index must be non-negative, got {qubit}")
            if label not in PAULI_LABELS:
                raise ValueError(f"unknown Pauli label {label!r}")
        qubits = [q for q, _ in factors]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in Pauli string: {qubits}")
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @classmethod
    def single(cls, qubit: int, label: str) -> "PauliString":
        return cls(((qubit, label),))

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse tokens like ``"X0 Y2"`` (label immediately followed by qubit)."""
        factors = []
        for token in text.split():
            label, digits = token[:1].upper(), token[1:]
            if label not in PAULI_LABELS or not digits.isdigit():
                raise ValueError(f"cannot parse Pauli factor {token!r}")
            factors.append((int(digits), label))
        return cls(tuple(factors))

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    @property
    def is_identity(self) -> bool:
        return not self.factors

    def dense_matrix(self) -> np.ndarray:
        """Dense matrix on the string's own support (ascending qubit = matrix bit).

        Restricted to small supports; full-register application goes through
        :meth:`operator`, which never builds a matrix.
        """
        if len(self.factors) > _DENSE_SUPPORT_LIMIT:
            raise UnsupportedGateError(
                f"dense Pauli matrix restricted to {_DENSE_SUPPORT_LIMIT} qubits, "
                f"string spans {len(self.factors)}"
            )
        if not self.factors:
            return np.eye(1, dtype=np.complex128)
        mats = [_PAULI_2X2[label] for _, label in reversed(self.factors)]
        return reduce(np.kron, mats)

    def operator(self) -> PauliStringOperator:
        return PauliStringOperator(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "I"
        return " ".join(f"{label}{qubit}" for qubit, label in self.factors)


def _embedded_pauli_matrix(pauli: PauliString, support: tuple[int, ...]) -> np.ndarray:
    """Matrix of ``pauli`` on the given support qubits, identity elsewhere."""
    labels = dict(pauli.factors)
    mats = [_PAULI_2X2[labels.get(q, "I")] for q in reversed(support)]
    return reduce(np.kron, mats)


def _rotation_matrix(sigma: np.ndarray, angle: float) -> np.ndarray:
    # exp(i*angle*sigma) for self-inverse sigma
    dim = sigma.shape[0]
    return np.cos(angle) * np.eye(dim, dtype=np.complex128) + 1j * np.sin(angle) * sigma


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorTerm:
    """One ``rate * sigma`` term; the gate's exponent is ``i * theta`` times
    the sum of its terms."""

    rate: float
    pauli: PauliString

    def __post_init__(self) -> None:
        if self.pauli.is_identity:
            raise ValueError("generator terms must act on at least one qubit")
        if not np.isfinite(self.rate):
            raise ValueError(f"generator rate must be finite, got {self.rate}")


@dataclass(frozen=True, eq=False)
class GateGenerator:
    """Nonempty sum of Pauli-string terms generating a unitary via exp(i * sum)."""

    terms: tuple[GeneratorTerm, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a gate generator needs at least one term")
        object.__setattr__(self, "terms", terms)

    @property
    def support(self) -> tuple[int, ...]:
        qubits: set[int] = set()
        for term in self.terms:
            qubits.update(term.pauli.qubits)
        return tuple(sorted(qubits))


# ---------------------------------------------------------------------------
# Gate kinds
# ---------------------------------------------------------------------------


class ParameterizedGate(ABC):
    """A gate family U(theta) owning a single real parameter."""

    @property
    @abstractmethod
    def qubit_indices(self) -> tuple[int, ...]:
        """All qubits the gate touches (targets and controls)."""

    @abstractmethod
    def unitary(self, theta: float) -> MatrixGateOperator:
        """The applicable operator realizing U(theta)."""

    @abstractmethod
    def derivative(self, theta: float) -> MatrixGateOperator:
        """The (generally non-unitary) operator dU/dtheta at theta."""

    @abstractmethod
    def derivative_factor(self, theta: float) -> MatrixGateOperator:
        """Operator D with dU/dtheta = D . U(theta), applied after the unitary."""

    def a_priori_diagonal(self, theta: float,
                          pre_state: Statevector | None = None) -> float | None:
        """``<phi|phi>`` for ``|phi> = dU/dtheta |pre_state>`` when known cheaply.

        Returns None when the value must be computed explicitly (either the
        gate kind has no shortcut, or it needs ``pre_state`` and none was
        given).
        """
        return None


@dataclass(frozen=True)
class PauliRotation(ParameterizedGate):
    """``exp(i * scale * theta * axis)``; the workhorse rotation gate."""

    axis: PauliString
    scale: float = 0.5

    def __post_init__(self) -> None:
        if self.axis.is_identity:
            raise ValueError("rotation axis must act on at least one qubit")

    @cached_property
    def _sigma(self) -> np.ndarray:
        return self.axis.dense_matrix()

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.axis.qubits

    def unitary(self, theta: float) -> MatrixGateOperator:
        return MatrixGateOperator(self.axis.qubits,
                                  _rotation_matrix(self._sigma, self.scale * theta))

    def derivative(self, theta: float) -> MatrixGateOperator:
        rot = _rotation_matrix(self._sigma, self.scale * theta)
        return MatrixGateOperator(self.axis.qubits, 1j * self.scale * self._sigma @ rot)

    def derivative_factor(self, theta: float) -> MatrixGateOperator:
        return MatrixGateOperator(self.axis.qubits, 1j * self.scale * self._sigma)

    def a_priori_diagonal(self, theta: float,
                          pre_state: Statevector | None = None) -> float:
        # (d/dtheta of the exponent coefficient)^2; state-independent.
        return self.scale * self.scale


@dataclass(frozen=True)
class ControlledPauliRotation(ParameterizedGate):
    """A Pauli rotation applied on the control qubit's ``|1>`` subspace.

    The parameter derivative is the ``|1><1|`` projector on the control
    tensored with the rotation derivative, so it annihilates any component
    with the control in ``|0>``.
    """

    control: int
    axis: PauliString
    scale: float = 0.5

    def __post_init__(self) -> None:
        if self.axis.is_identity:
            raise ValueError("rotation axis must act on at least one qubit")
        if self.control < 0:
            raise ValueError(f"control qubit must be non-negative, got {self.control}")
        if self.control in self.axis.qubits:
            raise ValueError(
                f"control qubit {self.control} overlaps the rotation axis {self.axis}"
            )

    @cached_property
    def _sigma(self) -> np.ndarray:
        return self.axis.dense_matrix()

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.axis.qubits + (self.control,)

    def unitary(self, theta: float) -> MatrixGateOperator:
        rot = _rotation_matrix(self._sigma, self.scale * theta)
        return controlled_matrix_operator(self.axis.qubits, rot, (self.control,))

    def derivative(self, theta: float) -> MatrixGateOperator:
        rot = _rotation_matrix(self._sigma, self.scale * theta)
        return controlled_matrix_operator(
            self.axis.qubits, 1j * self.scale * self._sigma @ rot, (self.control,),
            zero_uncontrolled=True,
        )

    def derivative_factor(self, theta: float) -> MatrixGateOperator:
        return controlled_matrix_operator(
            self.axis.qubits, 1j * self.scale * self._sigma, (self.control,),
            zero_uncontrolled=True,
        )

    def a_priori_diagonal(self, theta: float,
                          pre_state: Statevector | None = None) -> float | None:
        if pre_state is None:
            return None
        return self.scale * self.scale * pre_state.probability_of_one(self.control)


@dataclass(frozen=True)
class PhasedPauliRotation(ParameterizedGate):
    """``exp(i * phase_rate * theta) * exp(i * scale * theta * axis)``.

    The parameter-dependent global phase shifts the Berry-connection and
    derivative-overlap terms individually while leaving the geometric tensor
    unchanged; this kind exists to exercise exactly that.  It never takes the
    a-priori diagonal shortcut.
    """

    axis: PauliString
    phase_rate: float
    scale: float = 0.5

    def __post_init__(self) -> None:
        if self.axis.is_identity:
            raise ValueError("rotation axis must act on at least one qubit")
        if not np.isfinite(self.phase_rate):
            raise ValueError(f"phase rate must be finite, got {self.phase_rate}")

    @cached_property
    def _sigma(self) -> np.ndarray:
        return self.axis.dense_matrix()

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.axis.qubits

    def unitary(self, theta: float) -> MatrixGateOperator:
        rot = _rotation_matrix(self._sigma, self.scale * theta)
        return MatrixGateOperator(self.axis.qubits,
                                  np.exp(1j * self.phase_rate * theta) * rot)

    def derivative(self, theta: float) -> MatrixGateOperator:
        # product rule: (i*phase_rate*I + i*scale*sigma) . U(theta)
        return MatrixGateOperator(
            self.axis.qubits,
            self.derivative_factor(theta).matrix @ self.unitary(theta).matrix,
        )

    def derivative_factor(self, theta: float) -> MatrixGateOperator:
        dim = self._sigma.shape[0]
        factor = 1j * self.phase_rate * np.eye(dim) + 1j * self.scale * self._sigma
        return MatrixGateOperator(self.axis.qubits, factor)


@dataclass(frozen=True, eq=False)
class GeneratedGate(ParameterizedGate):
    """``exp(i * theta * A)`` with ``A = sum_j rate_j sigma_j``, a small
    multi-term generator.

    The support is capped at GENERATOR_SUPPORT_LIMIT qubits so the local
    exponential stays a small dense computation; larger generators are
    rejected loudly rather than silently slow.  ``A`` is built once per gate;
    the derivative ``i * A * U(theta)`` is exact also when the terms do not
    commute.
    """

    generator: GateGenerator

    def __post_init__(self) -> None:
        support = self.generator.support
        if len(support) > GENERATOR_SUPPORT_LIMIT:
            raise UnsupportedGateError(
                f"generated gate spans {len(support)} qubits; "
                f"the small-matrix limit is {GENERATOR_SUPPORT_LIMIT}"
            )

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.generator.support

    @cached_property
    def _generator_matrix(self) -> np.ndarray:
        support = self.generator.support
        return sum(term.rate * _embedded_pauli_matrix(term.pauli, support)
                   for term in self.generator.terms)

    def unitary(self, theta: float) -> MatrixGateOperator:
        return MatrixGateOperator(self.generator.support,
                                  expm(1j * theta * self._generator_matrix))

    def derivative(self, theta: float) -> MatrixGateOperator:
        return MatrixGateOperator(self.generator.support, 1j * self._generator_matrix
                                  @ expm(1j * theta * self._generator_matrix))

    def derivative_factor(self, theta: float) -> MatrixGateOperator:
        return MatrixGateOperator(self.generator.support, 1j * self._generator_matrix)
