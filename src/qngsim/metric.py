"""Recurrent evaluation of the quantum geometric tensor in O(P^2) gates.

For an ansatz state ``|psi(theta)> = U_P ... U_1 |in>`` the tensor is

    G_ij = <d_i psi, d_j psi> - <d_i psi, psi><psi, d_j psi>
         = L_ij - conj(T_i) T_j

with the derivative-overlap tensor ``L`` and the Berry vector
``T_i = <psi, d_i psi>``.  Gates beyond max(i, j) cancel between bra and ket,
so every L and T entry reduces to an inner product between two states that each differ from the previous iteration's states by a single gate
(or adjoint).  :func:`compute_geometric_tensor` exploits that with five fixed
workspace registers, rolling a suffix state forward over j, and rolling an
infix state and a prefix state backward over i inside each j iteration.  The
total cost is O(P^2) gate/clone operations and O(1) registers, against O(P^3)
for evaluating each matrix element from scratch (see the baselines module).

Diagonal entries ``L_jj = <phi|phi>`` with ``|phi> = dU_j |psi_{j-1}>`` admit
an a-priori shortcut for rotation-like gates (scale^2 for a plain Pauli
rotation, scale^2 times the control-1 probability for a controlled one); the
``use_diagonal_shortcut`` flag turns that on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import AnsatzCircuit, input_state
from .statevector import (
    OpCounter,
    Statevector,
    apply_operator,
    clone_into,
    inner_product,
)

__all__ = [
    "BerryVector",
    "GeometricTensor",
    "LiTensor",
    "TENSOR_MAGIC",
    "compute_berry_vector",
    "compute_geometric_tensor",
    "main_algorithm_cost",
    "read_tensor_binary",
    "write_tensor_binary",
    "write_tensor_csv",
]


@dataclass(frozen=True)
class BerryVector:
    """The length-P vector ``T_i = <psi, d_i psi>``."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", np.asarray(self.entries, dtype=np.complex128)
        )

    def __len__(self) -> int:
        return len(self.entries)


class LiTensor:
    """Packed upper triangle of the derivative-overlap tensor ``L``.

    Only entries with ``i <= j`` are stored; the full matrix follows from
    ``L_ij = conj(L_ji)``, so the reconstruction is Hermitian by construction.
    Indices are 0-based.
    """

    def __init__(self, num_parameters: int) -> None:
        if num_parameters < 1:
            raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")
        self.num_parameters = num_parameters
        self.packed = np.zeros(num_parameters * (num_parameters + 1) // 2,
                               dtype=np.complex128)

    def _offset(self, i: int, j: int) -> int:
        # row-major packing of the upper triangle
        return i * self.num_parameters - (i * (i - 1)) // 2 + (j - i)

    def set(self, i: int, j: int, value: complex) -> None:
        if not 0 <= i <= j < self.num_parameters:
            raise IndexError(f"need 0 <= i <= j < {self.num_parameters}, got {(i, j)}")
        self.packed[self._offset(i, j)] = value

    def get(self, i: int, j: int) -> complex:
        if i > j:
            return complex(np.conj(self.packed[self._offset(j, i)]))
        return complex(self.packed[self._offset(i, j)])

    def to_matrix(self) -> np.ndarray:
        """The full Hermitian P x P matrix."""
        size = self.num_parameters
        matrix = np.zeros((size, size), dtype=np.complex128)
        pos = 0
        for i in range(size):
            count = size - i
            matrix[i, i:] = self.packed[pos:pos + count]
            pos += count
        lower = np.tril_indices(size, k=-1)
        matrix[lower] = np.conj(matrix.T[lower])
        return matrix

    def max_abs_difference(self, other: "LiTensor") -> float:
        if other.num_parameters != self.num_parameters:
            raise ValueError("cannot compare tensors of different sizes")
        return float(np.max(np.abs(self.packed - other.packed)))


@dataclass(frozen=True)
class GeometricTensor:
    """The P x P tensor ``G`` together with its constituents ``L`` and ``T``."""

    matrix: np.ndarray
    berry: BerryVector
    li: LiTensor

    @property
    def fubini_study_metric(self) -> np.ndarray:
        """Re(G): the real symmetric metric used by natural-gradient descent."""
        return self.matrix.real.copy()


def main_algorithm_cost(num_parameters: int) -> tuple[int, int, int]:
    """Recorded primitive counts of :func:`compute_geometric_tensor`.

    Returns (gate applications, clones, inner products) for a P-parameter
    circuit with the diagonal shortcut off; with the shortcut on, the inner
    product count drops by one per shortcut-eligible gate, the other counts
    are unchanged.  These closed forms were read off instrumented runs once
    and are asserted stable by the test suite; total gates + clones is
    ``2P^2 + 2P + 1``.
    """
    p = num_parameters
    gates = (3 * p * p + p) // 2
    clones = (p * p + 3 * p + 2) // 2
    inner_products = (p * p + 3 * p) // 2
    return gates, clones, inner_products


def compute_geometric_tensor(circuit: AnsatzCircuit, params, counter: OpCounter,
                             use_diagonal_shortcut: bool = True,
                             final_state: Statevector | None = None) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` with 5 fixed registers.

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals.
        counter: receives the exact primitive tally.
        use_diagonal_shortcut: take a-priori values for eligible diagonal
            entries instead of computing ``<phi|phi>``.
        final_state: optional pre-allocated register to use as the rolling
            suffix state; on return it holds the full ansatz state.

    The five registers are: the rolling suffix state (the state before the
    current gate j), the derivative seed being rolled backward through the
    infix, the rolling prefix state, a scratch register for the prefix
    derivative image, and one register permanently holding ``U_1|in>`` for the
    Berry-vector inner products.
    """
    bound = circuit.bind(params)
    theta = bound.theta
    count = circuit.num_parameters
    unitaries, adjoints, derivatives = bound.unitaries, bound.adjoints, bound.derivatives

    start = input_state(circuit)
    chi = Statevector.zeros(circuit.num_qubits)   # U_1|in>, permanently
    psi = final_state if final_state is not None else Statevector.zeros(circuit.num_qubits)
    phi = Statevector.zeros(circuit.num_qubits)   # rolling derivative seed
    lam = Statevector.zeros(circuit.num_qubits)   # rolling prefix state
    mu = Statevector.zeros(circuit.num_qubits)    # prefix derivative image

    berry = np.zeros(count, dtype=np.complex128)
    li = LiTensor(count)

    def diagonal(j: int, pre_state: Statevector) -> complex:
        if use_diagonal_shortcut:
            value = circuit.gates[j].a_priori_diagonal(theta[j], pre_state)
            if value is not None:
                return complex(value)
        return inner_product(phi, phi, counter)

    # First parameter handled separately: it seeds the permanent U_1|in>
    # register and the rolling suffix state.
    clone_into(start, chi, counter)
    apply_operator(chi, unitaries[0], counter)
    clone_into(chi, psi, counter)
    clone_into(start, phi, counter)
    apply_operator(phi, derivatives[0], counter)
    berry[0] = inner_product(chi, phi, counter)
    li.set(0, 0, diagonal(0, start))

    for j in range(1, count):
        # psi currently holds the state before gate j
        clone_into(psi, lam, counter)
        clone_into(psi, phi, counter)
        apply_operator(phi, derivatives[j], counter)
        li.set(j, j, diagonal(j, psi))
        for i in range(j - 1, -1, -1):
            apply_operator(phi, adjoints[i + 1], counter)   # roll the infix back
            apply_operator(lam, adjoints[i], counter)       # roll the prefix back
            clone_into(lam, mu, counter)
            apply_operator(mu, derivatives[i], counter)
            li.set(i, j, inner_product(mu, phi, counter))
        berry[j] = inner_product(chi, phi, counter)
        apply_operator(psi, unitaries[j], counter)          # roll the suffix forward

    matrix = li.to_matrix() - np.outer(np.conj(berry), berry)
    return GeometricTensor(matrix=matrix, berry=BerryVector(berry.copy()), li=li)


def compute_berry_vector(circuit: AnsatzCircuit, params,
                         counter: OpCounter) -> BerryVector:
    """Standalone ``T_i = <psi_i| dU_i |psi_{i-1}>`` in O(P) gate applications."""
    bound = circuit.bind(params)
    psi = Statevector.zeros(circuit.num_qubits)
    work = Statevector.zeros(circuit.num_qubits)
    start = input_state(circuit)
    clone_into(start, psi, counter)
    berry = np.zeros(circuit.num_parameters, dtype=np.complex128)
    for i, (unitary, derivative) in enumerate(zip(bound.unitaries, bound.derivatives)):
        clone_into(psi, work, counter)
        apply_operator(work, derivative, counter)
        apply_operator(psi, unitary, counter)
        berry[i] = inner_product(psi, work, counter)
    return BerryVector(berry)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"QGTDUMP1"


def _as_matrix(tensor) -> np.ndarray:
    matrix = tensor.matrix if isinstance(tensor, GeometricTensor) else np.asarray(tensor)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def write_tensor_csv(tensor, path) -> None:
    """Write one ``i,j,re,im`` row per entry (0-based indices, row-major)."""
    matrix = _as_matrix(tensor)
    lines = ["i,j,re,im"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            value = matrix[i, j]
            lines.append(f"{i},{j},{value.real:.17g},{value.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_tensor_binary(tensor, path) -> None:
    """Packed dump: 8-byte magic, little-endian uint64 P, then P*P row-major
    little-endian complex doubles."""
    matrix = _as_matrix(tensor)
    with open(path, "wb") as handle:
        handle.write(TENSOR_MAGIC)
        handle.write(struct.pack("<Q", matrix.shape[0]))
        handle.write(np.ascontiguousarray(matrix, dtype="<c16").tobytes())


def read_tensor_binary(path) -> np.ndarray:
    with open(path, "rb") as handle:
        magic = handle.read(len(TENSOR_MAGIC))
        if magic != TENSOR_MAGIC:
            raise ValueError(f"{path}: not a tensor dump (bad magic {magic!r})")
        header = handle.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header ({len(header)} of 8 size bytes)")
        (size,) = struct.unpack("<Q", header)
        data = np.frombuffer(handle.read(), dtype="<c16")
    if data.size != size * size:
        raise ValueError(f"{path}: expected {size * size} entries, found {data.size}")
    return data.reshape(size, size).astype(np.complex128)
