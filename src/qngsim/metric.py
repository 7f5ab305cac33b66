"""Recurrent evaluation of the quantum geometric tensor in O(P^2) gates.

For an ansatz state ``|psi(theta)> = U_P ... U_1 |in>`` the tensor is

    G_ij = <d_i psi, d_j psi> - <d_i psi, psi><psi, d_j psi>
         = L_ij - conj(T_i) T_j

with the derivative-overlap tensor ``L`` and the Berry vector
``T_i = <psi, d_i psi>``.  Gates beyond max(i, j) cancel between bra and ket,
so every L and T entry reduces to an inner product between two states that
each differ from the previous iteration's states by a single gate (or
adjoint).  :func:`compute_geometric_tensor` exploits that with five fixed
workspace registers, rolling a suffix state forward over j, and rolling an
infix state and a prefix state backward over i inside each j iteration.  The
total cost is O(P^2) gate/clone operations and O(1) registers, against O(P^3)
for evaluating each matrix element from scratch (see the baselines module).
Every algorithm returns L as a P x P array whose lower triangle
:func:`mirror_upper` fills with the conjugate of the upper one.

Diagonal entries ``L_jj = <phi|phi>`` with ``|phi> = dU_j |psi_{j-1}>`` admit
an a-priori shortcut for rotation-like gates (scale^2 for a plain Pauli
rotation, scale^2 times the control-1 probability for a controlled one).  It
is taken by default; ``use_diagonal_shortcut=False`` evaluates every diagonal
entry explicitly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat

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
    "GeometricTensor",
    "TENSOR_MAGIC",
    "compute_berry_vector",
    "compute_geometric_tensor",
    "main_algorithm_cost",
    "mirror_upper",
    "read_tensor_binary",
    "tensor_matrix",
    "write_tensor_binary",
    "write_tensor_csv",
]


def mirror_upper(li: np.ndarray) -> np.ndarray:
    """Complete ``li`` in place from its upper triangle, ``L_ij = conj(L_ji)``
    for i > j, and drop the rounding left in the imaginary part of its real
    diagonal ``L_ii = <d_i psi, d_i psi>``, so ``L`` is exactly Hermitian;
    returns ``li``."""
    lower = np.tril_indices(len(li), k=-1)
    li[lower] = np.conj(li.T[lower])
    np.fill_diagonal(li, li.diagonal().real)
    return li


def tensor_matrix(li: np.ndarray, berry: np.ndarray) -> np.ndarray:
    """``G = L - conj(T) T^T`` with the rounding in the imaginary part of its
    real diagonal ``G_ii = L_ii - |T_i|^2`` dropped."""
    matrix = li - np.outer(np.conj(berry), berry)
    np.fill_diagonal(matrix, matrix.diagonal().real)
    return matrix


@dataclass(frozen=True)
class GeometricTensor:
    """The P x P tensor ``G`` with its constituents: the P x P Hermitian ``L``
    (``li``) and the length-P Berry vector ``T`` (``berry``)."""

    matrix: np.ndarray
    berry: np.ndarray
    li: np.ndarray

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
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose operators are then reused.
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
    li = np.zeros((count, count), dtype=np.complex128)

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
    li[0, 0] = diagonal(0, start)

    for j in range(1, count):
        # psi currently holds the state before gate j
        clone_into(psi, lam, counter)
        clone_into(psi, phi, counter)
        apply_operator(phi, derivatives[j], counter)
        li[j, j] = diagonal(j, psi)
        for i in range(j - 1, -1, -1):
            apply_operator(phi, adjoints[i + 1], counter)   # roll the infix back
            apply_operator(lam, adjoints[i], counter)       # roll the prefix back
            clone_into(lam, mu, counter)
            apply_operator(mu, derivatives[i], counter)
            li[i, j] = inner_product(mu, phi, counter)
        berry[j] = inner_product(chi, phi, counter)
        apply_operator(psi, unitaries[j], counter)          # roll the suffix forward

    mirror_upper(li)
    return GeometricTensor(matrix=tensor_matrix(li, berry), berry=berry, li=li)


def compute_berry_vector(circuit: AnsatzCircuit, params,
                         counter: OpCounter) -> np.ndarray:
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
    return berry


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
    """Write one ``i,j,re,im`` line per entry (0-based indices, row-major),
    formatting each row of G with one ``%`` call."""
    matrix = _as_matrix(tensor)
    size = len(matrix)
    row_format = "%d,%d,%.17g,%.17g\n" * size
    with open(path, "w") as handle:
        handle.write("i,j,re,im\n")
        for i, row in enumerate(matrix):
            entries = zip(repeat(i), range(size), row.real.tolist(), row.imag.tolist())
            handle.write(row_format % tuple(chain.from_iterable(entries)))


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
