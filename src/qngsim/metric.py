"""The quantum geometric tensor in O(P^2) gates, by two routes.

For an ansatz state ``|psi(theta)> = U_P ... U_1 |in>`` the tensor is

    G_ij = <d_i psi, d_j psi> - <d_i psi, psi><psi, d_j psi>
         = L_ij - conj(T_i) T_j

with the derivative-overlap tensor ``L`` and the Berry vector
``T_i = <psi, d_i psi>``.  Two routes evaluate it, trading registers for
gates as the paper's abstract describes:

* main, :func:`compute_geometric_tensor`: the paper's recurrence in five
  fixed registers.  Gates beyond max(i, j) cancel between bra and ket, so
  every L and T entry is an inner product between two states that each
  differ from the previous iteration's states by one gate (or adjoint); a
  suffix state rolls forward over j, an infix and a prefix state roll
  backward over i.  It costs :func:`main_algorithm_cost`, (3P^2 + P)/2
  gates and (P^2 + 3P + 2)/2 clones.
* stored, :func:`compute_geometric_tensor_stored`: all P derivative states
  ``|d_i psi> = U_P ... U_{i+1} D_i |psi_i>`` kept at once in P + 1
  registers (``dU_i = D_i U_i`` with the theta-free factor ``D_i``), then
  ``L_ij = <d_i psi|d_j psi>`` and ``T_i = <psi|d_i psi>``.  It costs
  :func:`stored_tensor_cost`, (P^2 + 3P)/2 gates, P + 1 clones and
  (P^2 + 3P)/2 inner products, and builds only the P unitaries of a binding.

:func:`stored_route_fits` is the rule that picks between them for
``qngsim tensor`` (``--algorithm auto``, the default) and for the optimizer:
the stored route when its registers take no more memory than G itself,
``(P + 1) * 2^N <= P^2``, and main otherwise.  The two routes round
differently, so their G differ in the last bits (about 1e-16): wherever the
rule picks the stored route, the default ``tensor`` prints the stored
route's counts and its CSV moves in those bits.  Both routes are O(P^2),
against O(P^3) for evaluating each matrix element from scratch (see the
baselines module).  Every route returns L as a P x P array whose lower
triangle :func:`mirror_upper` fills with the conjugate of the upper one.

Diagonal entries ``L_jj = <phi|phi>`` with ``|phi> = dU_j |psi_{j-1}>`` admit
an a-priori shortcut for rotation-like gates (scale^2 for a plain Pauli
rotation, scale^2 times the control-1 probability for a controlled one).
Main takes it by default; ``use_diagonal_shortcut=False`` (``tensor
--no-diag-shortcut``) evaluates every diagonal entry explicitly.  The stored
route has no shortcut and ignores the flag.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .ansatz import AnsatzCircuit, BoundCircuit, input_state
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
    "compute_geometric_tensor_stored",
    "derivative_states",
    "main_algorithm_cost",
    "mirror_upper",
    "overlap_matrix",
    "read_tensor_binary",
    "stored_route_fits",
    "stored_tensor_cost",
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
                             use_diagonal_shortcut: bool = True) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` with 5 fixed registers.

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose operators are then reused.
        counter: receives the exact primitive tally.
        use_diagonal_shortcut: take a-priori values for eligible diagonal
            entries instead of computing ``<phi|phi>``.

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
    psi = Statevector.zeros(circuit.num_qubits)   # rolling suffix state
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


def stored_tensor_cost(num_parameters: int) -> tuple[int, int, int]:
    """Exact (gate applications, clones, inner products) of
    :func:`compute_geometric_tensor_stored` on P gates.

    P gates roll psi forward, P apply the derivative factors and
    P(P - 1)/2 roll the derivative states to the end; one clone seeds psi and
    P copy it out; P(P + 1)/2 inner products read L's upper triangle and P
    read T.
    """
    p = num_parameters
    gates = (p * p + 3 * p) // 2
    return gates, p + 1, gates


def stored_route_fits(circuit: AnsatzCircuit) -> bool:
    """The route rule: True when the stored route's P + 1 registers take no
    more memory than the P x P tensor itself, ``(P + 1) * 2^N <= P^2``."""
    p = circuit.num_parameters
    return (p + 1) * 2**circuit.num_qubits <= p * p


def derivative_states(bound: BoundCircuit,
                      counter: OpCounter) -> tuple[Statevector, list[Statevector]]:
    """``|psi>`` and the P derivative states ``|d_i psi>`` in P + 1 registers.

    psi rolls forward through the unitaries; after gate i a clone of
    ``|psi_i>`` takes the gate's theta-free factor, ``dU_i|psi_{i-1}> =
    D_i|psi_i>``, and rolls to the end through the later unitaries.  Costs
    (P^2 + 3P)/2 gates and P + 1 clones.
    """
    circuit = bound.circuit
    unitaries = bound.unitaries
    psi = Statevector.zeros(circuit.num_qubits)
    clone_into(input_state(circuit), psi, counter)
    states = []
    for i, gate in enumerate(circuit.gates):
        apply_operator(psi, unitaries[i], counter)
        state = Statevector.zeros(circuit.num_qubits)
        clone_into(psi, state, counter)
        apply_operator(state, gate.derivative_factor, counter)
        for later in unitaries[i + 1:]:
            apply_operator(state, later, counter)
        states.append(state)
    return psi, states


def overlap_matrix(states: list[Statevector], counter: OpCounter) -> np.ndarray:
    """``L_ij = <s_i|s_j>`` from P(P + 1)/2 inner products for i <= j,
    completed by :func:`mirror_upper`."""
    count = len(states)
    li = np.zeros((count, count), dtype=np.complex128)
    for i in range(count):
        for j in range(i, count):
            li[i, j] = inner_product(states[i], states[j], counter)
    return mirror_upper(li)


def compute_geometric_tensor_stored(circuit: AnsatzCircuit, params,
                                    counter: OpCounter) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` from the P stored
    derivative states of :func:`derivative_states`, in P + 1 registers.

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose unitaries are then reused.
        counter: receives the exact :func:`stored_tensor_cost`.
    """
    psi, states = derivative_states(circuit.bind(params), counter)
    li = overlap_matrix(states, counter)
    berry = np.array([inner_product(psi, state, counter) for state in states],
                     dtype=np.complex128)
    return GeometricTensor(matrix=tensor_matrix(li, berry), berry=berry, li=li)


def compute_berry_vector(circuit: AnsatzCircuit, params,
                         counter: OpCounter) -> np.ndarray:
    """Standalone ``T_i = <psi_i| D_i |psi_i>`` with each gate's cached factor
    ``D_i``: 2P gates, P + 1 clones and P inner products."""
    bound = circuit.bind(params)
    psi = Statevector.zeros(circuit.num_qubits)
    work = Statevector.zeros(circuit.num_qubits)
    clone_into(input_state(circuit), psi, counter)
    berry = np.zeros(circuit.num_parameters, dtype=np.complex128)
    for i, (gate, unitary) in enumerate(zip(circuit.gates, bound.unitaries)):
        apply_operator(psi, unitary, counter)
        clone_into(psi, work, counter)
        apply_operator(work, gate.derivative_factor, counter)
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
