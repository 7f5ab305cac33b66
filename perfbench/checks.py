"""Correctness checks of every benchmark operation against the reference.

Each check returns the list of problems it found; an operation with any
problem counts as failed.  Tolerances sit far below the 1e-6 perturbation the
self-test plants and far above the rounding differences seen between the
program and the reference (about 1e-15 for G and energies, 1e-10 for the
central-difference gradients).
"""

from __future__ import annotations

import numpy as np

import reference as ref

TENSOR_TOL = 1e-9
ENERGY_TOL = 1e-9
GRADIENT_TOL = 1e-7
PROPERTY_TOL = 1e-10
# a rotation exp(i*theta/2*sigma) contributes at most (1/2)^2 to its diagonal entry
DIAGONAL_MAX = 0.25
PERTURBATION = 1e-6


class Checker:
    def __init__(self, inputs) -> None:
        self.circuit = ref.Circuit(inputs.circuit)
        self.matrix = ref.hamiltonian_matrix(inputs.terms, inputs.workload.num_qubits)
        self.ground = ref.ground_energy(self.matrix)

    def tensor(self, op: dict) -> list[str]:
        """G Hermitian, Re G positive semidefinite, 0 <= G_jj <= 1/4, and the
        sampled rows equal to the reference."""
        matrix = op["matrix"]
        count = self.circuit.num_parameters
        if matrix.shape != (count, count):
            return ["tensor output missing or of the wrong shape"]
        problems = []
        asymmetry = np.max(np.abs(matrix - matrix.conj().T))
        if not asymmetry <= PROPERTY_TOL:
            problems.append(f"G not Hermitian ({asymmetry:.3e})")
        lowest = np.linalg.eigvalsh(matrix.real)[0]
        if not lowest >= -PROPERTY_TOL:
            problems.append(f"Re G has eigenvalue {lowest:.3e}")
        diagonal = np.diag(matrix)
        if not (np.all(np.abs(diagonal.imag) <= PROPERTY_TOL)
                and np.all(diagonal.real >= -PROPERTY_TOL)
                and np.all(diagonal.real <= DIAGONAL_MAX + PROPERTY_TOL)):
            problems.append("a diagonal entry of G lies outside [0, 1/4]")
        rows = op["rows"]
        expected = ref.tensor_rows(self.circuit, op["params"], rows)
        error = np.max(np.abs(matrix[rows] - expected))
        if not error <= TENSOR_TOL:
            problems.append(f"G differs from the reference by {error:.3e}")
        return problems

    def qng(self, op: dict) -> list[str]:
        """Exactly the requested steps, every recorded energy equal to the
        reference energy at the recorded parameters and above the ground energy."""
        problems = []
        records = op["records"]
        if len(records) != op["steps"] + 1 or records[-1][0] != op["steps"]:
            problems.append(f"took {len(records) - 1} steps, asked for {op['steps']}")
        for step, energy, params in records:
            expected = ref.energy(self.circuit, params, self.matrix)
            if not abs(energy - expected) <= ENERGY_TOL * max(1.0, abs(expected)):
                problems.append(f"step {step}: energy {energy!r}, reference {expected!r}")
            if not energy >= self.ground - ENERGY_TOL * max(1.0, abs(self.ground)):
                problems.append(f"step {step}: energy {energy!r} below ground {self.ground!r}")
        return problems

    def gradient(self, op: dict) -> list[str]:
        """Sampled components equal to central differences on the reference."""
        grad = op["gradient"]
        if grad.shape != (self.circuit.num_parameters,):
            return ["gradient of the wrong shape"]
        components = op["components"]
        expected = ref.gradient(self.circuit, op["params"], self.matrix, components)
        error = np.max(np.abs(grad[components] - expected))
        if not error <= GRADIENT_TOL:
            return [f"gradient differs from central differences by {error:.3e}"]
        return []

    def self_test(self, ops: list[dict]) -> list[str]:
        """Plant a 1e-6 error in one G entry, one gradient component and one
        energy of the first passing operation of each kind; each must fail."""
        missed = []
        seen = set()
        for op in ops:
            kind = op["kind"]
            if kind in seen or op["problems"]:
                continue
            seen.add(kind)
            bad = dict(op)
            if kind == "tensor":
                # symmetric, so only the comparison with the reference can see it
                matrix = op["matrix"].copy()
                i = op["rows"][-1]
                j = (i + 1) % len(matrix)
                matrix[i, j] += PERTURBATION
                matrix[j, i] += PERTURBATION
                bad["matrix"] = matrix
            elif kind == "gradient":
                grad = op["gradient"].copy()
                grad[op["components"][0]] += PERTURBATION
                bad["gradient"] = grad
            else:
                step, energy, params = op["records"][-1]
                bad["records"] = op["records"][:-1] + [(step, energy + PERTURBATION, params)]
            if not getattr(self, kind)(bad):
                missed.append(f"a 1e-6 error in one {kind} result passed the checks")
        return missed
