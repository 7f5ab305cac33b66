"""A small dense statevector simulator used only to check the program's outputs.

It shares no code with ``qngsim``: it reads the circuit-file text itself,
builds every gate from the documented convention U(theta) = exp(i*theta/2*sigma)
(qubit 0 is the least-significant bit of the basis index), and gets the
geometric tensor straight from its definition

    G_ij = <d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>

with the derivative states formed explicitly, not by the program's
recurrence.  Hamiltonians become scipy sparse matrices built by Kronecker
products, which also give the exact ground energy.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class Circuit:
    """Gate list read from circuit-file text (rx/ry/rz and crz lines only)."""

    def __init__(self, text: str) -> None:
        lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
        lines = [tokens for tokens in lines if tokens]
        header, body = lines[0], lines[1:]
        if header[0] != "qubits":
            raise ValueError("circuit text must start with 'qubits N'")
        self.num_qubits = int(header[1])
        self.gates: list[tuple] = []
        for tokens in body:
            word = tokens[0]
            if word in ("rx", "ry", "rz"):
                self.gates.append(("rot", int(tokens[1]), word[1].upper()))
            elif word == "crz":
                self.gates.append(("crz", int(tokens[1]), int(tokens[2])))
            else:
                raise ValueError(f"reference simulator has no gate {word!r}")
        dim = 1 << self.num_qubits
        index = np.arange(dim)
        # +1 where a qubit reads 0, -1 where it reads 1
        self._signs = [1 - 2 * ((index >> q) & 1) for q in range(self.num_qubits)]

    @property
    def num_parameters(self) -> int:
        return len(self.gates)

    def operators(self, k: int, theta: float):
        """(U_k, dU_k/dtheta) at theta, as ('mat', qubit, 2x2) or ('diag', vector)."""
        gate = self.gates[k]
        half = 0.5 * theta
        if gate[0] == "rot":
            sigma = _PAULI[gate[2]]
            unitary = np.cos(half) * np.eye(2) + 1j * np.sin(half) * sigma
            return ("mat", gate[1], unitary), ("mat", gate[1], 0.5j * sigma @ unitary)
        _, control, target = gate
        on = self._signs[control] < 0
        phase = np.exp(1j * half * self._signs[target])
        unitary = np.where(on, phase, 1.0)
        derivative = np.where(on, 0.5j * self._signs[target] * phase, 0.0)
        return ("diag", unitary), ("diag", derivative)


def _apply(op, states: np.ndarray, num_qubits: int, adjoint: bool = False) -> np.ndarray:
    """Apply an operator to a (batch, 2^N) array of states; returns a new array."""
    if op[0] == "diag":
        return states * (np.conj(op[1]) if adjoint else op[1])
    _, qubit, matrix = op
    if adjoint:
        matrix = matrix.conj().T
    batch = states.shape[0]
    view = states.reshape(batch, 1 << (num_qubits - 1 - qubit), 2, 1 << qubit)
    return np.einsum("ab,kibj->kiaj", matrix, view).reshape(batch, -1)


def _basis_zero(num_qubits: int) -> np.ndarray:
    state = np.zeros((1, 1 << num_qubits), dtype=np.complex128)
    state[0, 0] = 1.0
    return state


def prepare(circuit: Circuit, theta) -> np.ndarray:
    """The ansatz state U_P ... U_1 |0>."""
    state = _basis_zero(circuit.num_qubits)
    for k in range(circuit.num_parameters):
        state = _apply(circuit.operators(k, theta[k])[0], state, circuit.num_qubits)
    return state[0]


def tensor_rows(circuit: Circuit, theta, rows: list[int]) -> np.ndarray:
    """Rows ``rows`` (ascending) of G, every column, as a (len(rows), P) array.

    The derivative states d_i psi of the requested rows are built explicitly
    in one forward pass; one backward pass then takes their overlaps with every
    d_j psi and the Berry terms <psi|d_j psi>.
    """
    n, count = circuit.num_qubits, circuit.num_parameters
    ops = [circuit.operators(k, theta[k]) for k in range(count)]
    wanted = set(rows)
    state = _basis_zero(n)
    derived = np.zeros((0, 1 << n), dtype=np.complex128)
    for k in range(count):
        unitary, derivative = ops[k]
        if len(derived):
            derived = _apply(unitary, derived, n)
        if k in wanted:
            derived = np.vstack([derived, _apply(derivative, state, n)])
        state = _apply(unitary, state, n)
    overlaps = np.zeros((len(rows), count), dtype=np.complex128)
    berry = np.zeros(count, dtype=np.complex128)
    after = state
    for k in range(count - 1, -1, -1):
        unitary, derivative = ops[k]
        before = _apply(unitary, after, n, adjoint=True)
        image = _apply(derivative, before, n)[0]
        berry[k] = np.vdot(after[0], image)
        overlaps[:, k] = derived.conj() @ image
        derived = _apply(unitary, derived, n, adjoint=True)
        after = before
    return overlaps - np.conj(berry[rows])[:, None] * berry[None, :]


def hamiltonian_matrix(terms: list[tuple[float, str]], num_qubits: int):
    """Sparse CSR matrix of sum_t c_t sigma_t; qubit 0 is the last Kronecker factor."""
    dim = 1 << num_qubits
    total = scipy.sparse.csr_matrix((dim, dim), dtype=np.complex128)
    for coeff, word in terms:
        labels = {int(token[1:]): token[0] for token in word.split()}
        factors = [scipy.sparse.csr_matrix(_PAULI[labels[q]]) if q in labels
                   else scipy.sparse.identity(2, dtype=np.complex128, format="csr")
                   for q in reversed(range(num_qubits))]
        total = total + coeff * reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"),
                                       factors)
    return total.tocsr()


def energy(circuit: Circuit, theta, matrix) -> float:
    state = prepare(circuit, theta)
    return float(np.vdot(state, matrix @ state).real)


def gradient(circuit: Circuit, theta, matrix, components: list[int],
             step: float = 1e-5) -> np.ndarray:
    """Central differences (E(theta + h e_c) - E(theta - h e_c)) / 2h."""
    theta = np.asarray(theta, dtype=np.float64)
    values = []
    for c in components:
        shift = np.zeros_like(theta)
        shift[c] = step
        values.append((energy(circuit, theta + shift, matrix)
                       - energy(circuit, theta - shift, matrix)) / (2.0 * step))
    return np.array(values)


def ground_energy(matrix) -> float:
    """Lowest eigenvalue of the Hermitian sparse matrix."""
    if matrix.shape[0] <= 256:
        return float(np.linalg.eigvalsh(matrix.toarray())[0])
    value = scipy.sparse.linalg.eigsh(matrix, k=1, which="SA", return_eigenvectors=False)
    return float(value[0])
