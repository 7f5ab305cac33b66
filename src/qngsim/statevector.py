"""Dense complex statevector storage and the three counted simulation primitives.

Everything higher in the stack is built from exactly three operations on
statevectors: clone a state, apply an operator to a state in place, and take
an inner product between two states.  Each primitive increments an
:class:`OpCounter`, which is what the cost-model verification measures.

Conventions fixed here and used everywhere:

* amplitudes are ``complex128``; qubit 0 is the least-significant bit of the
  basis index (little-endian),
* a :class:`Statevector` never normalizes itself.  Images of derivative
  operators are legitimately non-unit vectors and are stored as-is,
* operators carry small matrices on a few target qubits (or bit-mask actions
  for Pauli strings); no code path ever forms a full ``2^N x 2^N`` matrix.

Inner products reduce with a single fixed BLAS call, so repeated runs on the
same machine are bit-identical.  A Statevector must not be mutated from two
threads at once, but may be handed between threads while no primitive is in
flight.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "AllocationTally",
    "MatrixGateOperator",
    "OpCounter",
    "PauliStringOperator",
    "Statevector",
    "apply_operator",
    "clone_into",
    "controlled_matrix_operator",
    "inner_product",
    "make_basis_state",
    "track_allocations",
]


# ---------------------------------------------------------------------------
# Allocation tracking
# ---------------------------------------------------------------------------

_TALLIES: ContextVar[tuple["AllocationTally", ...]] = ContextVar(
    "qngsim_allocation_tallies", default=()
)


class AllocationTally:
    """Records Statevector allocations seen inside a :func:`track_allocations` block.

    Registers are tagged by ``kind`` ("workspace" for algorithm scratch
    registers, "input" for the fixed circuit input, "state" otherwise), so a
    test can assert e.g. that an algorithm's peak number of simultaneously
    live workspaces is a constant.
    """

    def __init__(self) -> None:
        self.total: dict[str, int] = {}
        self._live: dict[str, int] = {}
        self._peak: dict[str, int] = {}
        self._live_all = 0
        self.peak_total = 0
        self.total_allocations = 0

    def _on_alloc(self, kind: str) -> None:
        self.total[kind] = self.total.get(kind, 0) + 1
        self._live[kind] = self._live.get(kind, 0) + 1
        self._peak[kind] = max(self._peak.get(kind, 0), self._live[kind])
        self.total_allocations += 1
        self._live_all += 1
        self.peak_total = max(self.peak_total, self._live_all)

    def _on_free(self, kind: str) -> None:
        self._live[kind] = self._live.get(kind, 0) - 1
        self._live_all -= 1

    def peak_live(self, kind: str | None = None) -> int:
        """Peak number of simultaneously live statevectors (optionally by kind)."""
        if kind is None:
            return self.peak_total
        return self._peak.get(kind, 0)

    def total_allocated(self, kind: str | None = None) -> int:
        if kind is None:
            return self.total_allocations
        return self.total.get(kind, 0)


def _notify_free(tallies: tuple[AllocationTally, ...], kind: str) -> None:
    for tally in tallies:
        tally._on_free(kind)


@contextmanager
def track_allocations() -> Iterator[AllocationTally]:
    """Context manager counting every Statevector allocated inside the block."""
    tally = AllocationTally()
    token = _TALLIES.set(_TALLIES.get() + (tally,))
    try:
        yield tally
    finally:
        _TALLIES.reset(token)


# ---------------------------------------------------------------------------
# Operation counter
# ---------------------------------------------------------------------------


class OpCounter:
    """Tally of gate applications, state clones and inner products.

    Counts are monotone while a computation runs; call :meth:`reset` only
    between computations.  Gate applications include both unitary and
    derivative-operator applications.
    """

    __slots__ = ("gate_applications", "clones", "inner_products")

    def __init__(self) -> None:
        self.gate_applications = 0
        self.clones = 0
        self.inner_products = 0

    def reset(self) -> None:
        self.gate_applications = 0
        self.clones = 0
        self.inner_products = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.gate_applications, self.clones, self.inner_products)

    @property
    def gates_plus_clones(self) -> int:
        return self.gate_applications + self.clones

    def __repr__(self) -> str:
        return (
            f"OpCounter(gate_applications={self.gate_applications}, "
            f"clones={self.clones}, inner_products={self.inner_products})"
        )


# ---------------------------------------------------------------------------
# Statevector
# ---------------------------------------------------------------------------


class Statevector:
    """A dense register of ``2**num_qubits`` complex128 amplitudes."""

    __slots__ = ("num_qubits", "amplitudes", "kind", "__weakref__")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None,
                 kind: str = "state") -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        dim = 1 << num_qubits
        if amplitudes is None:
            amplitudes = np.zeros(dim, dtype=np.complex128)
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (dim,):
                raise ValueError(
                    f"expected {dim} amplitudes for {num_qubits} qubits, "
                    f"got shape {amplitudes.shape}"
                )
            amplitudes = np.ascontiguousarray(amplitudes)
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes
        self.kind = kind
        tallies = _TALLIES.get()
        if tallies:
            for tally in tallies:
                tally._on_alloc(kind)
            weakref.finalize(self, _notify_free, tallies, kind)

    @classmethod
    def zeros(cls, num_qubits: int, kind: str = "workspace") -> "Statevector":
        """A fresh all-zero register, tagged as algorithm workspace by default."""
        return cls(num_qubits, kind=kind)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability_of_one(self, qubit: int) -> float:
        """Probability that ``qubit`` reads 1, from the current amplitudes."""
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {self.num_qubits} qubits")
        view = self.amplitudes.reshape(-1, 2, 1 << qubit)
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    def copy(self, kind: str = "state") -> "Statevector":
        """An uncounted copy; library algorithms use :func:`clone_into` instead."""
        return Statevector(self.num_qubits, self.amplitudes.copy(), kind=kind)

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self.num_qubits}, kind={self.kind!r})"


def make_basis_state(num_qubits: int, basis_index: int, kind: str = "state") -> Statevector:
    """The computational basis state ``|basis_index>`` on ``num_qubits`` qubits.

    Raises:
        ValueError: if ``basis_index`` is not in ``[0, 2**num_qubits)``.
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(
            f"basis_index {basis_index} out of range for {num_qubits} qubits"
        )
    state = Statevector(num_qubits, kind=kind)
    state.amplitudes[basis_index] = 1.0
    return state


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def clone_into(src: Statevector, dst: Statevector, counter: OpCounter) -> None:
    """Copy ``src`` amplitudes into ``dst`` exactly; counts one clone."""
    if src.num_qubits != dst.num_qubits:
        raise ValueError(
            f"cannot clone a {src.num_qubits}-qubit state into a "
            f"{dst.num_qubits}-qubit register"
        )
    np.copyto(dst.amplitudes, src.amplitudes)
    counter.clones += 1


def inner_product(bra: Statevector, ket: Statevector, counter: OpCounter) -> complex:
    """``<bra|ket>`` with the bra conjugated; counts one inner product.

    Reduction order is a single fixed BLAS dot, so the result is bit-identical
    across repeated runs in the same environment.
    """
    if bra.num_qubits != ket.num_qubits:
        raise ValueError(
            f"inner product between {bra.num_qubits}- and {ket.num_qubits}-qubit states"
        )
    counter.inner_products += 1
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


@runtime_checkable
class GateOperator(Protocol):
    """Anything apply_operator can act with: a target list plus an in-place action."""

    qubit_indices: tuple[int, ...]
    _max_qubit: int

    def _apply_inplace(self, amplitudes: np.ndarray, num_qubits: int) -> None: ...

    def adjoint(self) -> "GateOperator": ...


def apply_operator(state: Statevector, op: GateOperator, counter: OpCounter) -> None:
    """Transform ``state`` in place by ``op``; counts one gate application.

    Works for non-unitary operators (derivative gates); the result is then in
    general not a unit vector and is left unnormalized.
    """
    if op._max_qubit >= state.num_qubits:
        raise ValueError(
            f"operator acts on qubit {op._max_qubit}, but the state has only "
            f"{state.num_qubits} qubits"
        )
    op._apply_inplace(state.amplitudes, state.num_qubits)
    counter.gate_applications += 1


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


# Matrix gates on registers at or below this many amplitudes are applied with
# plain Python complex arithmetic; numpy call overhead dominates work there.
_PYTHON_PATH_LIMIT = 64


def _index_groups(num_qubits: int, targets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All amplitude-index groups a k-qubit matrix mixes, one group per
    assignment of the non-target bits; entry r of a group has target bit j
    equal to bit j of r."""
    k = len(targets)
    rest = [q for q in range(num_qubits) if q not in targets]
    groups = []
    for pattern in range(1 << len(rest)):
        base = 0
        for bit, qubit in enumerate(rest):
            if (pattern >> bit) & 1:
                base |= 1 << qubit
        group = []
        for row in range(1 << k):
            index = base
            for j, qubit in enumerate(targets):
                if (row >> j) & 1:
                    index |= 1 << qubit
            group.append(index)
        groups.append(tuple(group))
    return tuple(groups)


def _apply_matrix_vectorized(amplitudes: np.ndarray, num_qubits: int,
                             targets: tuple[int, ...], matrix: np.ndarray) -> None:
    k = len(targets)
    if k == 1:
        q = targets[0]
        view = amplitudes.reshape(-1, 2, 1 << q)
        a0 = view[:, 0].copy()
        a1 = view[:, 1]  # safe: each assignment below materializes its rhs first
        view[:, 0] = matrix[0, 0] * a0 + matrix[0, 1] * a1
        view[:, 1] = matrix[1, 0] * a0 + matrix[1, 1] * a1
        return
    dim = 1 << k
    tensor = amplitudes.reshape((2,) * num_qubits)
    # axis of qubit q in the reshaped tensor is (num_qubits - 1 - q)
    front = tuple(num_qubits - 1 - q for q in reversed(targets))
    moved = np.moveaxis(tensor, front, range(k))
    work = np.ascontiguousarray(moved).reshape(dim, -1)
    result = (matrix @ work).reshape((2,) * num_qubits)
    np.copyto(moved, result)  # writes through the view into the original layout


@dataclass(frozen=True, eq=False)
class MatrixGateOperator:
    """A dense matrix on a few target qubits, controls already folded in.

    ``matrix`` has shape ``(2**k, 2**k)`` where ``k = len(targets)``; bit ``j``
    of the matrix index addresses ``targets[j]``.  The matrix need not be
    unitary (derivative operators are not).
    """

    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        targets = tuple(int(q) for q in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"target qubits must be distinct, got {targets}")
        if any(q < 0 for q in targets):
            raise ValueError(f"target qubits must be non-negative, got {targets}")
        dim = 1 << len(targets)
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(targets)} targets"
            )
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_max_qubit", max(targets))
        object.__setattr__(self, "_rows", tuple(tuple(row) for row in matrix.tolist()))
        object.__setattr__(self, "_group_cache", {})

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.targets

    def adjoint(self) -> "MatrixGateOperator":
        return MatrixGateOperator(self.targets, self.matrix.conj().T)

    def _apply_inplace(self, amplitudes: np.ndarray, num_qubits: int) -> None:
        if amplitudes.size > _PYTHON_PATH_LIMIT:
            _apply_matrix_vectorized(amplitudes, num_qubits, self.targets, self.matrix)
            return
        groups = self._group_cache.get(num_qubits)
        if groups is None:
            groups = _index_groups(num_qubits, self.targets)
            self._group_cache[num_qubits] = groups
        values = amplitudes.tolist()
        rows = self._rows
        if len(self.targets) == 1:
            (m00, m01), (m10, m11) = rows
            for i0, i1 in groups:
                a0 = values[i0]
                a1 = values[i1]
                values[i0] = m00 * a0 + m01 * a1
                values[i1] = m10 * a0 + m11 * a1
        elif len(self.targets) == 2:
            r0, r1, r2, r3 = rows
            for i0, i1, i2, i3 in groups:
                a0 = values[i0]
                a1 = values[i1]
                a2 = values[i2]
                a3 = values[i3]
                values[i0] = r0[0] * a0 + r0[1] * a1 + r0[2] * a2 + r0[3] * a3
                values[i1] = r1[0] * a0 + r1[1] * a1 + r1[2] * a2 + r1[3] * a3
                values[i2] = r2[0] * a0 + r2[1] * a1 + r2[2] * a2 + r2[3] * a3
                values[i3] = r3[0] * a0 + r3[1] * a1 + r3[2] * a2 + r3[3] * a3
        else:
            for group in groups:
                sub = [values[index] for index in group]
                for r, row in enumerate(rows):
                    acc = 0j
                    for coeff, amp in zip(row, sub):
                        acc += coeff * amp
                    values[group[r]] = acc
        amplitudes[:] = values


def controlled_matrix_operator(targets: tuple[int, ...], matrix: np.ndarray,
                               controls: tuple[int, ...],
                               zero_uncontrolled: bool = False) -> MatrixGateOperator:
    """Fold control qubits into a target matrix.

    With ``zero_uncontrolled=False`` the control-0 block is the identity
    (ordinary controlled gate); with ``True`` it is zero, i.e. the operator is
    the projector onto all controls being 1 followed by ``matrix`` (the form a
    controlled gate's parameter derivative takes).
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    for _ in controls:
        dim = matrix.shape[0]
        folded = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        if not zero_uncontrolled:
            folded[:dim, :dim] = np.eye(dim)
        folded[dim:, dim:] = matrix
        matrix = folded
    return MatrixGateOperator(tuple(targets) + tuple(controls), matrix)


class PauliStringOperator:
    """Tensor product of single-qubit X/Y/Z factors, applied via bit masks.

    This never builds a matrix, so strings spanning many qubits (Hamiltonian
    terms) stay O(2^N) to apply.  Hermitian, hence self-adjoint.
    """

    __slots__ = ("qubit_indices", "_max_qubit", "_x_mask", "_sign_mask", "_phase")

    def __init__(self, factors: tuple[tuple[int, str], ...]) -> None:
        x_mask = 0
        sign_mask = 0
        num_y = 0
        qubits = []
        for qubit, label in factors:
            qubit = int(qubit)
            if qubit < 0:
                raise ValueError(f"qubit index must be non-negative, got {qubit}")
            if label == "X":
                x_mask |= 1 << qubit
            elif label == "Y":
                x_mask |= 1 << qubit
                sign_mask |= 1 << qubit
                num_y += 1
            elif label == "Z":
                sign_mask |= 1 << qubit
            else:
                raise ValueError(f"unknown Pauli label {label!r}")
            qubits.append(qubit)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"Pauli factors act on duplicate qubits: {qubits}")
        self.qubit_indices = tuple(sorted(qubits))
        self._max_qubit = max(qubits) if qubits else -1
        self._x_mask = x_mask
        self._sign_mask = sign_mask
        self._phase = 1j ** (num_y % 4)

    def adjoint(self) -> "PauliStringOperator":
        return self

    def _apply_inplace(self, amplitudes: np.ndarray, num_qubits: int) -> None:
        if self._x_mask == 0 and self._sign_mask == 0:
            return  # identity string
        idx = np.arange(amplitudes.size, dtype=np.int64)
        src = idx ^ self._x_mask if self._x_mask else idx
        out = amplitudes[src] if self._x_mask else amplitudes.copy()
        if self._sign_mask:
            bits = src & self._sign_mask
            bits ^= bits >> 32
            bits ^= bits >> 16
            bits ^= bits >> 8
            bits ^= bits >> 4
            bits ^= bits >> 2
            bits ^= bits >> 1
            out *= 1.0 - 2.0 * (bits & 1)
        if self._phase != 1:
            out *= self._phase
        amplitudes[:] = out
