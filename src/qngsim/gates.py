"""Parameterized gates, each defined by its generator.

Every gate is ``U(theta) = exp(i * theta * A)`` for a theta-independent
Hermitian generator ``A``, so its parameter derivative is
``dU/dtheta = D . U(theta)`` with the theta-free factor ``D = i * A``, exact
also when ``A`` is a sum of non-commuting Pauli strings.  There are three
kinds:

* :class:`PauliRotation`: ``A = phase_rate * I + scale * sigma`` for a Pauli
  string ``sigma``.  The convention is fixed once, here: default
  ``scale = 1/2`` and ``phase_rate = 0``, so e.g. ``RX(pi)`` acts as ``i X``;
  a non-zero rate adds the global phase ``exp(i * phase_rate * theta)``.
* :class:`ControlledPauliRotation`: ``A = |1><1|_control (x) scale * sigma``.
* :class:`GeneratedGate`: ``A`` is any small :class:`PauliSum`.

``D`` is built once per gate (:attr:`ParameterizedGate.derivative_factor`),
so its kernel is cached with it for every later binding.

A rotation is affine in theta-free matrices, ``U(theta) = M0 + a Mc + b Ms``
with ``Mc = I`` and ``Ms = i sigma`` on its block and ``M0`` the control-0
identity of a controlled rotation (absent otherwise): ``a = cos(s theta)``
and ``b = sin(s theta)``, both times ``exp(i phase_rate theta)`` for a
phased rotation.  ``D`` is the same sum with ``M0`` and ``Mc`` at 0 and
``Ms`` at ``s`` (``Mc`` at ``i phase_rate`` when phased), and ``U^dagger``
the sum at ``conj(a)`` and ``-conj(b)``.  These matrices form the gate's
:class:`~qngsim.statevector.OperatorBasis`, shared by every gate of the
same axis, control and phase kind.  Per register size the basis caches a
kernel *plan*: the kernel family, its layout and each matrix expanded
through it.  So ``unitary(theta)`` costs a cosine and a sine, and its
kernel one product of the cached expansions with the coefficients.
``dU = D . U`` is in the same span, as ``(i sigma)^2 = -I``, so
``derivative(theta)`` binds the basis too.  A :class:`GeneratedGate` takes
its basis from the spectrum of ``A``, once per gate: ``A = sum_k w_k P_k``
with rank-1 projectors ``P_k`` (numpy's ``eigh``), so ``U(theta)`` is the
basis at ``exp(i theta w_k)`` and ``dU`` at ``i w_k exp(i theta w_k)``.
Every gate kind is thus a binding of cached plans, and no gate needs scipy.

Derivative operators are represented structurally (small matrix on the
support, optionally behind a control projector), never as full-register
matrices, so applying one costs the same O(2^N) as a unitary gate.
"""

from __future__ import annotations

import cmath
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import UnsupportedGateError
from .statevector import MatrixGateOperator, OperatorBasis, PauliStringOperator

__all__ = [
    "ControlledPauliRotation",
    "GeneratedGate",
    "ParameterizedGate",
    "PauliRotation",
    "PauliString",
    "PauliSum",
]

PAULI_LABELS = ("X", "Y", "Z")

_PAULI_2X2 = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# Dense matrices are only ever built on a gate's local support; generated
# gates are capped at 3 support qubits so the eigendecomposition stays at most 8x8.
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
            if label not in PAULI_LABELS or not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"cannot parse Pauli factor {token!r}")
            factors.append((int(digits), label))
        return cls(tuple(factors))

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    @property
    def is_identity(self) -> bool:
        return not self.factors

    def dense_matrix(self, support: tuple[int, ...] | None = None) -> np.ndarray:
        """Dense matrix on ``support`` (default: the string's own qubits),
        identity on the support qubits it leaves alone; ascending qubit =
        matrix bit.

        Restricted to small supports; full-register application goes through
        :meth:`operator`, which never builds a matrix.
        """
        support = self.qubits if support is None else support
        if len(support) > _DENSE_SUPPORT_LIMIT:
            raise UnsupportedGateError(
                f"dense Pauli matrix restricted to {_DENSE_SUPPORT_LIMIT} qubits, "
                f"string spans {len(support)}"
            )
        if not support:
            return np.eye(1, dtype=np.complex128)
        labels = dict(self.factors)
        return reduce(np.kron, [_PAULI_2X2[labels.get(q, "I")] for q in reversed(support)])

    def operator(self) -> PauliStringOperator:
        return PauliStringOperator(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "I"
        return " ".join(f"{label}{qubit}" for qubit, label in self.factors)


@dataclass(frozen=True, eq=False)
class PauliSum:
    """``sum_j w_j sigma_j`` with real weights whose absolute sum, a bound on
    its norm, is a finite float; Hermitian by construction: a Hamiltonian,
    or the generator of a :class:`GeneratedGate`."""

    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(weight), pauli) for weight, pauli in self.terms)
        for weight, pauli in terms:
            if not np.isfinite(weight):
                raise ValueError(f"the weight of {pauli} must be finite, got {weight}")
        if not np.isfinite(sum(abs(weight) for weight, _ in terms)):
            raise ValueError("the absolute sum of the weights overflows a float")
        object.__setattr__(self, "terms", terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({q for _, pauli in self.terms for q in pauli.qubits}))

    @property
    def max_qubit(self) -> int:
        """Largest qubit index any term touches; -1 for a constant sum."""
        return max(self.support, default=-1)

    @cached_property
    def term_operators(self) -> tuple[tuple[float, PauliStringOperator], ...]:
        return tuple((weight, pauli.operator()) for weight, pauli in self.terms)


@lru_cache(maxsize=64)
def _rotation_terms(labels: tuple[str, ...], controlled: bool) -> np.ndarray:
    """``(I, i*sigma)`` for the Pauli word ``labels`` on its own support, or
    with a control (the top matrix bit) ``(M0, I, i*sigma)``: ``M0`` the
    control-0 identity, the other two on the control-1 block."""
    sigma = PauliString(tuple(enumerate(labels))).dense_matrix()
    dim = len(sigma)
    if not controlled:
        return np.stack((np.eye(dim), 1j * sigma))
    terms = np.zeros((3, 2 * dim, 2 * dim), dtype=np.complex128)
    terms[0, :dim, :dim] = terms[1, dim:, dim:] = np.eye(dim)
    terms[2, dim:, dim:] = 1j * sigma
    return terms


@lru_cache(maxsize=4096)
def _rotation_basis(axis: PauliString, control: int | None, real: bool) -> OperatorBasis:
    """The theta-free basis of a rotation about ``axis``, with an optional
    control; gates of the same axis, control and phase kind share it, and
    so its kernel plans."""
    labels = tuple(label for _, label in axis.factors)
    if control is None:
        return OperatorBasis(axis.qubits, _rotation_terms(labels, False), real=real,
                             adjoint_signs=(1, -1))
    return OperatorBasis(axis.qubits + (control,), _rotation_terms(labels, True),
                         adjoint_signs=(1, 1, -1))


# ---------------------------------------------------------------------------
# Gate kinds
# ---------------------------------------------------------------------------


class ParameterizedGate(ABC):
    """A gate family U(theta) = exp(i * theta * A) owning a single real
    parameter."""

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

    @property
    @abstractmethod
    def derivative_factor(self) -> MatrixGateOperator:
        """``D = i * A``, so dU/dtheta = D . U(theta); built once per gate."""


@dataclass(frozen=True)
class PauliRotation(ParameterizedGate):
    """``exp(i * phase_rate * theta) * exp(i * scale * theta * axis)``; the
    workhorse rotation gate.

    A non-zero ``phase_rate`` adds a parameter-dependent global phase, which
    shifts the Berry-connection and derivative-overlap terms individually while
    leaving the geometric tensor unchanged; it exists to exercise exactly that.
    """

    axis: PauliString
    scale: float = 0.5
    phase_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.axis.is_identity:
            raise ValueError("rotation axis must act on at least one qubit")
        if not np.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")
        if not np.isfinite(self.phase_rate):
            raise ValueError(f"phase rate must be finite, got {self.phase_rate}")

    @cached_property
    def _basis(self) -> OperatorBasis:
        return _rotation_basis(self.axis, None, not self.phase_rate)

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.axis.qubits

    def unitary(self, theta: float) -> MatrixGateOperator:
        angle = self.scale * theta
        weights = (math.cos(angle), math.sin(angle))
        if self.phase_rate:
            phase = cmath.exp(1j * self.phase_rate * theta)
            weights = (phase * weights[0], phase * weights[1])
        return self._basis.bind(weights)

    def derivative(self, theta: float) -> MatrixGateOperator:
        # D U = (d I + s i sigma)(a I + b i sigma), and (i sigma)^2 = -I
        angle, s = self.scale * theta, self.scale
        a, b, d = math.cos(angle), math.sin(angle), 0.0
        if self.phase_rate:
            phase, d = cmath.exp(1j * self.phase_rate * theta), 1j * self.phase_rate
            a, b = phase * a, phase * b
        return self._basis.bind((d * a - s * b, d * b + s * a))

    @cached_property
    def derivative_factor(self) -> MatrixGateOperator:
        return self._basis.bind((1j * self.phase_rate if self.phase_rate else 0.0, self.scale))


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
        if not np.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")
        if self.control < 0:
            raise ValueError(f"control qubit must be non-negative, got {self.control}")
        if self.control in self.axis.qubits:
            raise ValueError(
                f"control qubit {self.control} overlaps the rotation axis {self.axis}"
            )

    @cached_property
    def _basis(self) -> OperatorBasis:
        return _rotation_basis(self.axis, self.control, True)

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.axis.qubits + (self.control,)

    def unitary(self, theta: float) -> MatrixGateOperator:
        angle = self.scale * theta
        return self._basis.bind((1.0, math.cos(angle), math.sin(angle)))

    def derivative(self, theta: float) -> MatrixGateOperator:
        angle = self.scale * theta
        return self._basis.bind((0.0, -self.scale * math.sin(angle),
                                 self.scale * math.cos(angle)))

    @cached_property
    def derivative_factor(self) -> MatrixGateOperator:
        return self._basis.bind((0.0, 0.0, self.scale))


@dataclass(frozen=True, eq=False)
class GeneratedGate(ParameterizedGate):
    """``exp(i * theta * A)`` for a small :class:`PauliSum` ``A``.

    ``A`` needs at least one term and no identity term, and its support is
    capped at GENERATOR_SUPPORT_LIMIT qubits so its eigendecomposition stays
    a small dense computation; larger generators are rejected loudly rather
    than silently slow.

    ``A`` is Hermitian (its weights are real), so ``A = sum_k w_k P_k`` with
    real eigenvalues ``w_k`` and rank-1 projectors ``P_k = v_k v_k^dagger``.
    The projectors are the gate's theta-free basis, built once per gate with
    its kernel plans: ``U(theta)`` binds it at ``exp(i theta w_k)`` and
    ``dU/dtheta`` at ``i w_k exp(i theta w_k)``; each ``P_k`` is Hermitian, so
    an adjoint rebinds it at the conjugate coefficients.  A diagonal ``A``
    has diagonal projectors, and so the diagonal kernel family.
    """

    generator: PauliSum

    def __post_init__(self) -> None:
        if not self.generator.terms:
            raise ValueError("a generated gate needs at least one term")
        if any(pauli.is_identity for _, pauli in self.generator.terms):
            raise ValueError("generator terms must act on at least one qubit")
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
        return sum(weight * pauli.dense_matrix(support)
                   for weight, pauli in self.generator.terms)

    @cached_property
    def _spectrum(self) -> tuple[tuple[float, ...], OperatorBasis]:
        """The eigenvalues ``w_k`` of ``A`` and the basis of its projectors."""
        values, vectors = np.linalg.eigh(self._generator_matrix)
        projectors = vectors.T[:, :, None] * vectors.T.conj()[:, None, :]
        return tuple(values.tolist()), OperatorBasis(
            self.generator.support, projectors, real=False, adjoint_signs=(1,) * len(values))

    @property
    def _basis(self) -> OperatorBasis:
        return self._spectrum[1]

    def unitary(self, theta: float) -> MatrixGateOperator:
        values, basis = self._spectrum
        return basis.bind(tuple(cmath.exp(1j * theta * w) for w in values))

    def derivative(self, theta: float) -> MatrixGateOperator:
        values, basis = self._spectrum
        return basis.bind(tuple(1j * w * cmath.exp(1j * theta * w) for w in values))

    @cached_property
    def derivative_factor(self) -> MatrixGateOperator:
        return MatrixGateOperator(self.generator.support, 1j * self._generator_matrix)
