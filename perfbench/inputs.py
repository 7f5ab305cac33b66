"""Workload definitions and the seeded inputs each workload sends.

The program only ever sees generated text (a circuit file, a Hamiltonian file,
comma-separated parameter lists); everything here derives from the workload
seed, so one seed always gives byte-identical inputs.

Circuits follow one layered pattern: a rotation on every qubit whose axis is
drawn uniformly from x/y/z, then a ring of crz gates (qubit q controls q+1),
repeated and truncated at P gates.  Axes are drawn with one
``rng.integers(0, 3)`` per rotation in gate order, so a circuit made from
``default_rng([seed, 0])`` has the same gates as the package's own
``random_circuit`` on that generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_AXES = "xyz"

# standalone energy gradients per round, at the last points the round's
# natural-gradient run visited
GRADIENTS_PER_ROUND = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A round is ``requests`` tensor requests at fresh parameter vectors, one
    natural-gradient run of ``steps`` steps from a fresh seeded start, and
    ``GRADIENTS_PER_ROUND`` standalone energy gradients at points that run
    visited.
    Every run repeats whole rounds, so each kind of operation is sampled in a
    fixed proportion.
    """

    name: str
    num_qubits: int
    num_parameters: int
    hamiltonian: str          # "tfim" (ZZ ring + X field) or "parity" (Z on every qubit)
    requests: int
    steps: int
    tensor_rows: int | None   # rows of G checked per request; None checks all of them
    gradient_components: int | None  # components checked by central differences
    setup_samples: int        # set-ups timed per run (one in-process, the rest in subprocesses)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qgt-narrow-deep", 4, 128, "tfim", requests=2, steps=4,
                 tensor_rows=None, gradient_components=8, setup_samples=5),
        Workload("qgt-wide", 18, 24, "parity", requests=1, steps=1,
                 tensor_rows=1, gradient_components=1, setup_samples=2),
    )
}


def circuit_text(num_qubits: int, num_parameters: int, rng: np.random.Generator) -> str:
    lines = [f"qubits {num_qubits}"]
    count = 0
    while count < num_parameters:
        for qubit in range(num_qubits):
            lines.append(f"r{_AXES[int(rng.integers(0, 3))]} {qubit}")
            count += 1
            if count == num_parameters:
                break
        if num_qubits >= 2:
            for qubit in range(num_qubits):
                if count == num_parameters:
                    break
                lines.append(f"crz {qubit} {(qubit + 1) % num_qubits}")
                count += 1
    return "\n".join(lines) + "\n"


def hamiltonian_terms(kind: str, num_qubits: int) -> list[tuple[float, str]]:
    """``(coefficient, pauli word)`` pairs of the workload Hamiltonian."""
    if kind == "tfim":
        ring = [(-1.0, f"Z{q} Z{(q + 1) % num_qubits}") for q in range(num_qubits)]
        field = [(-1.0, f"X{q}") for q in range(num_qubits)]
        return ring + field
    if kind == "parity":
        return [(1.0, " ".join(f"Z{q}" for q in range(num_qubits)))]
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")


def hamiltonian_text(terms: list[tuple[float, str]]) -> str:
    return "".join(f"{coeff!r} {word}\n" for coeff, word in terms)


def format_params(values) -> str:
    """Comma-separated parameters that parse back to the same doubles."""
    return ",".join(repr(float(value)) for value in values)


class Inputs:
    """The seeded input stream of one run of one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.circuit = circuit_text(workload.num_qubits, workload.num_parameters,
                                    np.random.default_rng([seed, 0]))
        self.terms = hamiltonian_terms(workload.hamiltonian, workload.num_qubits)
        self.hamiltonian = hamiltonian_text(self.terms)

    def start(self, round_index: int) -> np.ndarray:
        """Start of the natural-gradient run of a round; round 0 uses [seed, 1]."""
        rng = np.random.default_rng([self.seed, 1 + 2 * round_index])
        return rng.uniform(0.0, 2.0 * np.pi, self.workload.num_parameters)

    def request_params(self, round_index: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, 2 + 2 * round_index])
        return [rng.uniform(0.0, 2.0 * np.pi, self.workload.num_parameters)
                for _ in range(self.workload.requests)]

    def sample(self, round_index: int, population: int, size: int | None) -> list[int]:
        """Seeded indices (rows or components) a check looks at; None means all."""
        if size is None or size >= population:
            return list(range(population))
        rng = np.random.default_rng([self.seed, 3, round_index])
        return sorted(int(i) for i in rng.choice(population, size=size, replace=False))
