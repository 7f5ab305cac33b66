"""The quantum geometric tensor in O(P^2) gates, by three routes.

For an ansatz state ``|psi(theta)> = U_P ... U_1 |in>`` the tensor is

    G_ij = <d_i psi, d_j psi> - <d_i psi, psi><psi, d_j psi>
         = L_ij - conj(T_i) T_j

with the derivative-overlap tensor ``L`` and the Berry vector
``T_i = <psi, d_i psi>``.  Three routes evaluate it, trading registers for
gates as the paper's abstract describes:

* main, :func:`compute_geometric_tensor_main`: the paper's recurrence in five
  fixed registers.  Gates beyond max(i, j) cancel between bra and ket, so
  every L and T entry is an inner product between two states that each
  differ from the previous iteration's states by one gate (or adjoint); a
  suffix state rolls forward over j, an infix and a prefix state roll
  backward over i.  It costs :func:`main_algorithm_cost`, (3P^2 + P)/2
  gates and (P^2 + 3P + 2)/2 clones.
* blocked, :func:`compute_geometric_tensor_blocked`: the derivative states
  ``|d_i psi> = U_P ... U_{i+1} D_i |psi_i>`` kept B at a time, in
  min(B, P) + 2 registers (P + 1 when B >= P); see :func:`blocked_overlaps`.
  It costs :func:`blocked_tensor_cost`, 576 gates and 116 clones at P = 24,
  B = 3 against main's 876 and 325, and builds only the P unitaries of a
  binding.
  With B = P it keeps every derivative state at once, in P + 1 registers,
  for (P^2 + 3P)/2 gates and P + 1 clones.
* co-state, :func:`compute_geometric_tensor_costate`: the state Jacobian
  ``J_mk = <m|d_k psi>`` read by one :func:`reverse_sweep` against the 2^N
  co-states, then ``L = J^dag J``.  It costs :func:`costate_tensor_cost`,
  O(2^N P) primitives in 2^N + 2 registers: 2415 gates, 129 clones and 2176
  inner products at N = 4, P = 128 against B = P's 8384 / 129 / 8384.

:func:`compute_geometric_tensor` is the one entry: it picks a route by the
rule its docstring states, for ``qngsim tensor`` (``--algorithm auto``, the
default) and for the optimizer.  The routes round differently, so their G
differ in the last bits (about 1e-16): the default ``tensor`` prints the
chosen route's counts and its CSV differs from main's in those bits.  Every
route is O(P^2) for a fixed register width, against O(P^3) for evaluating
each matrix element from scratch (see the baselines module).  Every route
returns L as a P x P array whose lower triangle :func:`mirror_upper` fills
with the conjugate of the upper one, and :func:`tensor_matrix` completes G
the same way, so L and G are exactly Hermitian.

Every route takes each derivative state from ``|psi_j> = U_j ... U_1 |in>``
and the gate's cached theta-free factor ``D_j``, as
``dU_j |psi_{j-1}> = D_j |psi_j>``, so none builds a per-theta dU, and
each reads every entry it needs of L (or J) and T with one counted inner
product.
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
    make_basis_state,
)

__all__ = [
    "GeometricTensor",
    "TENSOR_MAGIC",
    "blocked_overlaps",
    "blocked_tensor_cost",
    "blocked_tensor_registers",
    "compute_berry_vector",
    "compute_geometric_tensor",
    "compute_geometric_tensor_blocked",
    "compute_geometric_tensor_costate",
    "compute_geometric_tensor_main",
    "costate_tensor_cost",
    "main_algorithm_cost",
    "mirror_upper",
    "overlap_matrix",
    "read_tensor_binary",
    "reverse_sweep",
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
    """``G = L - conj(T) T^T``, completed from its upper triangle by
    :func:`mirror_upper`, so it is exactly Hermitian with a real diagonal."""
    return mirror_upper(li - np.outer(np.conj(berry), berry))


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


def _at_least_one(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


def main_algorithm_cost(num_parameters: int) -> tuple[int, int, int]:
    """Recorded primitive counts of :func:`compute_geometric_tensor_main`.

    Returns (gate applications, clones, inner products) for any P-parameter
    circuit, whatever its gate kinds.  These closed forms were read off
    instrumented runs once and are held exact by ``qngsim verify`` and the
    test suite; total gates + clones is ``2P^2 + 2P + 1``.
    """
    _at_least_one(num_parameters=num_parameters)
    p = num_parameters
    gates = (3 * p * p + p) // 2
    clones = (p * p + 3 * p + 2) // 2
    inner_products = (p * p + 3 * p) // 2
    return gates, clones, inner_products


def compute_geometric_tensor_main(circuit: AnsatzCircuit, params,
                                  counter: OpCounter) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` by the paper's
    recurrence, in 5 fixed registers.

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose operators are then reused.
        counter: receives the exact tally, :func:`main_algorithm_cost`.

    The five registers are: the rolling suffix state ``|psi_j>`` (the state
    after the current gate j), the derivative seed ``D_j|psi_j>`` being rolled
    backward through the infix, the rolling prefix state ``|psi_i>``, a
    scratch register for the prefix derivative image ``D_i|psi_i>``, and one
    register permanently holding ``U_1|in>`` for the Berry-vector inner
    products.  Each ``D`` is the gate's cached theta-free factor, so a
    binding builds only its unitaries and their adjoints.
    """
    bound = circuit.bind(params)
    count = circuit.num_parameters
    unitaries, adjoints = bound.unitaries, bound.adjoints
    factors = tuple(gate.derivative_factor for gate in circuit.gates)

    start = input_state(circuit)
    chi = Statevector.zeros(circuit.num_qubits)   # U_1|in>, permanently
    psi = Statevector.zeros(circuit.num_qubits)   # rolling suffix state
    phi = Statevector.zeros(circuit.num_qubits)   # rolling derivative seed
    lam = Statevector.zeros(circuit.num_qubits)   # rolling prefix state
    mu = Statevector.zeros(circuit.num_qubits)    # prefix derivative image

    berry = np.zeros(count, dtype=np.complex128)
    li = np.zeros((count, count), dtype=np.complex128)

    clone_into(start, psi, counter)
    for j in range(count):
        apply_operator(psi, unitaries[j], counter)          # psi = |psi_j>
        clone_into(psi, lam if j else chi, counter)         # chi keeps U_1|in>
        clone_into(psi, phi, counter)
        apply_operator(phi, factors[j], counter)            # dU_j|psi_{j-1}> = D_j|psi_j>
        li[j, j] = inner_product(phi, phi, counter)
        for i in range(j - 1, -1, -1):
            apply_operator(phi, adjoints[i + 1], counter)   # roll the infix back
            apply_operator(lam, adjoints[i + 1], counter)   # roll the prefix back to |psi_i>
            clone_into(lam, mu, counter)
            apply_operator(mu, factors[i], counter)
            li[i, j] = inner_product(mu, phi, counter)
        berry[j] = inner_product(chi, phi, counter)

    mirror_upper(li)
    return GeometricTensor(matrix=tensor_matrix(li, berry), berry=berry, li=li)


def blocked_tensor_cost(num_parameters: int, block: int) -> tuple[int, int, int]:
    """Exact (gate applications, clones, inner products) of
    :func:`compute_geometric_tensor_blocked` on P gates in blocks of B.

    With n = ceil(P/B) blocks ending at e_1..e_n and tail = sum(P - e_m):
    each block rolls psi through all P gates from one clone of the input
    (nP gates, n clones); a gate's derivative state costs a clone and its
    factor D in its own block and again, in the work register, in each
    earlier block (P + tail of each); and the live states roll to the end
    (P(P - 1)/2 gates).  The inner products are L's upper triangle and T.
    """
    _at_least_one(num_parameters=num_parameters, block=block)
    p, b = num_parameters, block
    ends = [min(end, p) for end in range(b, p + b, b)]
    tail = sum(p - end for end in ends)
    gates = len(ends) * p + p + tail + p * (p - 1) // 2
    return gates, len(ends) + p + tail, p * (p + 1) // 2 + p


def blocked_tensor_registers(num_parameters: int, block: int) -> int:
    """Peak workspace registers of :func:`compute_geometric_tensor_blocked`:
    psi, min(B, P) derivative states and, when B < P, one work register."""
    _at_least_one(num_parameters=num_parameters, block=block)
    return num_parameters + 1 if block >= num_parameters else block + 2


def blocked_overlaps(bound: BoundCircuit, block: int, counter: OpCounter,
                     berry: np.ndarray | None = None) -> np.ndarray:
    """L from the derivative states ``|d_k psi>`` taken B = ``block`` at a
    time, and T into ``berry`` when one is given.

    For each block [a, b) psi is cloned from the input and rolls through all
    P unitaries; the block's live states take each unitary after their own
    gate.  At gate i of the block a clone of ``|psi_i>`` takes the gate's
    theta-free factor, ``dU_i|psi_{i-1}> = D_i|psi_i>``, and stays live; at a
    later gate j the clone goes to one work register instead and
    ``L_kj = <d_k psi_j|work>`` is read for the block's k.  At the end of the
    block the live states are ``|d_k psi>``: the block's square of L is read
    from them by :func:`overlap_matrix`, then ``T_k = <psi|d_k psi>``.  Costs
    :func:`blocked_tensor_cost` (without the P inner products of T when
    ``berry`` is None) in :func:`blocked_tensor_registers`.
    """
    circuit = bound.circuit
    count, width = circuit.num_parameters, circuit.num_qubits
    _at_least_one(block=block)
    start = input_state(circuit)
    psi = Statevector.zeros(width)
    states = [Statevector.zeros(width) for _ in range(min(block, count))]
    work = Statevector.zeros(width) if block < count else None
    gates = tuple(zip(circuit.gates, bound.unitaries))
    li = np.zeros((count, count), dtype=np.complex128)
    for first in range(0, count, block):
        stop = min(first + block, count)
        live: list[Statevector] = []
        clone_into(start, psi, counter)
        for j, (gate, unitary) in enumerate(gates):
            apply_operator(psi, unitary, counter)
            for state in live:
                apply_operator(state, unitary, counter)
            if j < first:
                continue
            target = states[j - first] if j < stop else work
            clone_into(psi, target, counter)
            apply_operator(target, gate.derivative_factor, counter)
            if j < stop:
                live.append(target)
                continue
            for k, state in enumerate(live, start=first):
                li[k, j] = inner_product(state, work, counter)
        li[first:stop, first:stop] = overlap_matrix(live, counter)
        if berry is not None:
            for k, state in enumerate(live, start=first):
                berry[k] = inner_product(psi, state, counter)
    return mirror_upper(li)


def overlap_matrix(states: list[Statevector], counter: OpCounter) -> np.ndarray:
    """``L_ij = <s_i|s_j>`` from P(P + 1)/2 inner products for i <= j,
    completed by :func:`mirror_upper`."""
    count = len(states)
    li = np.zeros((count, count), dtype=np.complex128)
    for i in range(count):
        for j in range(i, count):
            li[i, j] = inner_product(states[i], states[j], counter)
    return mirror_upper(li)


def compute_geometric_tensor_blocked(circuit: AnsatzCircuit, params,
                                     counter: OpCounter, block: int) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` from the derivative
    states taken ``block`` at a time (:func:`blocked_overlaps`).

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose unitaries are then reused.
        counter: receives the exact :func:`blocked_tensor_cost`.
        block: B >= 1, the number of derivative states live at once.
    """
    berry = np.zeros(circuit.num_parameters, dtype=np.complex128)
    li = blocked_overlaps(circuit.bind(params), block, counter, berry)
    return GeometricTensor(matrix=tensor_matrix(li, berry), berry=berry, li=li)


def costate_tensor_cost(num_parameters: int, num_qubits: int) -> tuple[int, int, int]:
    """Exact (gate applications, clones, inner products) of
    :func:`compute_geometric_tensor_costate` on P gates and N qubits.

    Preparing psi costs P gates and a clone, and the :func:`reverse_sweep`
    over psi and the 2^N co-states the rest.  Peak workspace: 2^N + 2
    registers.
    """
    _at_least_one(num_parameters=num_parameters, num_qubits=num_qubits)
    p, dim = num_parameters, 2**num_qubits
    return 2 * p + (p - 1) * (dim + 1), p + 1, p * (dim + 1)


def reverse_sweep(bound: BoundCircuit, psi: Statevector, reads: list[Statevector],
                  counter: OpCounter) -> np.ndarray:
    """``out[r, k] = <reads[r]_k| D_k |psi_k>`` for k = P..1: the reverse
    mode of Jones and Gacon (arXiv:2009.02823).

    psi and the reads enter at k = P.  At each k a clone of ``|psi_k>`` in
    one work register takes ``D_k``, each read is taken against it, and
    (but for k = 1) psi, then the reads, roll back through ``U_k^dag``; psi
    rolls once if it is also read.  Costs P clones, P factors,
    P * len(reads) inner products and P - 1 adjoints per rolled register.
    """
    gates, adjoints = bound.circuit.gates, bound.adjoints
    rolled = [psi, *(read for read in reads if read is not psi)]
    work = Statevector.zeros(psi.num_qubits)
    out = np.zeros((len(reads), len(gates)), dtype=np.complex128)
    for k in range(len(gates) - 1, -1, -1):
        clone_into(psi, work, counter)                       # psi = |psi_k>
        apply_operator(work, gates[k].derivative_factor, counter)
        for r, read in enumerate(reads):
            out[r, k] = inner_product(read, work, counter)
        if k:
            for state in rolled:
                apply_operator(state, adjoints[k], counter)
    return out


def compute_geometric_tensor_costate(circuit: AnsatzCircuit, params,
                                     counter: OpCounter) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` from the state
    Jacobian ``J_mk = <m|d_k psi>``, the overlap of ``D_k|psi_k>`` with the
    co-state ``U_{k+1}^dag ... U_P^dag |m>``.

    psi is prepared and cloned into a workspace register, and the co-states
    start as the basis states ``|m>``, written uncounted like the circuit
    input.  One :func:`reverse_sweep` reads ``[psi, *co-states]``: row 0 is
    T, the rest J.  ``L = J^dag J`` is one classical product, as
    :func:`tensor_matrix`'s outer product is.  Costs
    :func:`costate_tensor_cost` in 2^N + 2 workspace registers.

    Args:
        circuit: the ansatz; gate k owns parameter k.
        params: length-P vector of finite reals, or a ``BoundCircuit`` of
            ``circuit`` whose unitaries and adjoints are then reused.
        counter: receives the exact :func:`costate_tensor_cost`.
    """
    bound = circuit.bind(params)
    width = circuit.num_qubits
    psi = Statevector.zeros(width)
    clone_into(bound.prepare(counter), psi, counter)
    costates = [make_basis_state(width, m, kind="workspace") for m in range(1 << width)]
    out = reverse_sweep(bound, psi, [psi, *costates], counter)
    berry, jacobian = out[0], out[1:]
    li = mirror_upper(jacobian.conj().T @ jacobian)
    return GeometricTensor(matrix=tensor_matrix(li, berry), berry=berry, li=li)


def compute_geometric_tensor(circuit: AnsatzCircuit, params,
                             counter: OpCounter) -> GeometricTensor:
    """Evaluate G, L and T for ``circuit`` at ``params`` by the route the
    register-for-gate rule picks for P gates on N qubits:

    * co-state, :func:`compute_geometric_tensor_costate`, where P > 2^(N+1):
      there, and only there, the total of :func:`costate_tensor_cost` is
      below that of B = P, and its 2^N + 2 registers are fewer than B = P's;
    * else blocked with B = P, :func:`compute_geometric_tensor_blocked`,
      where P > 2^N: exactly where its P + 1 registers take no more memory
      than the P x P tensor itself, ``(P + 1) * 2^N <= P^2``;
    * else blocked with B = 3, which holds main's five workspace registers.

    ``qngsim tensor`` (by default) and the optimizer call this one name, so
    a wrapper of it (a tracer's span, a test's stub) sees every tensor they
    compute.  ``params`` is a length-P vector of finite reals or a
    ``BoundCircuit`` of ``circuit``, and ``counter`` receives the picked
    route's exact cost.
    """
    count, dim = circuit.num_parameters, 2**circuit.num_qubits
    if count > 2 * dim:
        return compute_geometric_tensor_costate(circuit, params, counter)
    return compute_geometric_tensor_blocked(circuit, params, counter,
                                            count if count > dim else 3)


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
_SIGN_BIT = np.uint64(1 << 63)


def _as_matrix(tensor) -> np.ndarray:
    matrix = tensor.matrix if isinstance(tensor, GeometricTensor) else np.asarray(tensor)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def write_tensor_csv(tensor, path) -> None:
    """Write one ``i,j,re,im`` line per entry (0-based indices, row-major),
    each number as ``%.17g``.

    The upper triangle is formatted once, with one ``%`` call per row.  A
    lower entry whose bits are its mirror's conjugate (equal real bits,
    imaginary bits equal but for the sign bit) reuses the mirror's text with
    the imaginary sign flipped, so a Hermitian G formats each pair once.
    Bits decide, not ``==``, since ``-0.0 == 0.0``.  Any other lower entry,
    and one with a NaN imaginary part (whose text has no sign), is formatted
    itself, so the bytes are those of formatting every entry.
    """
    matrix = np.ascontiguousarray(_as_matrix(tensor))
    size = len(matrix)
    bits = matrix.view(np.uint64).reshape(size, size, 2)
    mirrored = ((bits[..., 0] == bits[..., 0].T)
                & (bits[..., 1] == bits[..., 1].T ^ _SIGN_BIT)
                & ~np.isnan(matrix.imag)).tolist()
    row_format = "%d,%d,%s\n" * size
    # conjugates[j]: "re,im" texts of conj(G_jk) for k > j, last k first;
    # row i pops column i's from each, so a text lives until its mirror is written
    conjugates: list[list[str]] = []
    with open(path, "w") as handle:
        handle.write("i,j,re,im\n")
        for i, row in enumerate(matrix):
            values = row.view(np.float64).tolist()  # re, im interleaved
            upper = (("%.17g,%.17g\n" * (size - i)) % tuple(values[2 * i:])).split("\n")[:-1]
            lower = zip([pending.pop() for pending in conjugates], mirrored[i],
                        values[0::2], values[1::2])
            texts = [text if mirror else "%.17g,%.17g" % (re, im)
                     for text, mirror, re, im in lower] + upper
            # the real text has no comma, so ",-" can only start the imaginary one
            conjugates.append([text.replace(",-", ",") if ",-" in text
                               else text.replace(",", ",-") for text in reversed(upper[1:])])
            handle.write(row_format % tuple(chain.from_iterable(
                zip(repeat(i), range(size), texts))))


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
        body = handle.read()
    if len(body) % 16:
        raise ValueError(f"{path}: truncated body ({len(body)} bytes, not whole entries)")
    data = np.frombuffer(body, dtype="<c16")
    if data.size != size * size:
        raise ValueError(f"{path}: expected {size * size} entries, found {data.size}")
    return data.reshape(size, size).astype(np.complex128)
