"""Hypothesis strategy for random circuits, shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from qngsim.ansatz import AnsatzCircuit
from qngsim.gates import (
    ControlledPauliRotation,
    GeneratedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)

GATE_KINDS = ("rotation", "phased", "controlled", "wrap", "gen")


@st.composite
def circuit_cases(draw, min_qubits, max_qubits, max_gates, kinds=GATE_KINDS):
    """``(circuit, params)``: up to ``max_gates`` gates drawn from ``kinds``
    (plain and phased rotations, controlled rotations, crx/cry on the
    wrap-around pair and generated gates of up to two terms), with
    parameters in [0, 2*pi]."""
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    last = num_qubits - 1
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_gates)):
        qubit = draw(st.integers(0, last))
        axis = PauliString.single(qubit, draw(st.sampled_from("XYZ")))
        if kind == "rotation":
            gates.append(PauliRotation(axis))
        elif kind == "phased":
            gates.append(PauliRotation(axis, phase_rate=draw(st.floats(-1.0, 1.0))))
        elif kind == "controlled":
            control = (qubit + draw(st.integers(1, last))) % num_qubits
            gates.append(ControlledPauliRotation(control, axis))
        elif kind == "wrap":
            control, target = draw(st.sampled_from([(last, 0), (0, last)]))
            gates.append(ControlledPauliRotation(
                control, PauliString.single(target, draw(st.sampled_from("XY")))))
        else:
            words = draw(st.lists(st.sampled_from([f"X0 Z{last}", f"Y{last}", "Z0 X1", "Y1"]),
                                  min_size=1, max_size=2, unique=True))
            gates.append(GeneratedGate(PauliSum(tuple(
                (draw(st.floats(-1.0, 1.0)), PauliString.parse(word)) for word in words))))
    params = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=len(gates),
                           max_size=len(gates)))
    return AnsatzCircuit(num_qubits, tuple(gates)), np.array(params)


@st.composite
def blocked_cases(draw, min_qubits, max_qubits, max_gates, kinds=GATE_KINDS):
    """``(circuit, params, block)``: a :func:`circuit_cases` draw and a block
    size B of the blocked tensor route from 1 to P + 1."""
    circuit, params = draw(circuit_cases(min_qubits, max_qubits, max_gates, kinds))
    return circuit, params, draw(st.integers(1, circuit.num_parameters + 1))
