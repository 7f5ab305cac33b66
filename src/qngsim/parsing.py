"""Parsers of the two input file formats: circuits and Pauli-sum Hamiltonians.

Both are line-based; ``#`` starts a comment and blank lines are skipped.  A
malformed line raises :class:`~qngsim.errors.ParseError` naming its source
and line number.  Numbers are read in ASCII form only: qubit indices by
``_is_index``, phase rates and coefficients by :func:`real`, integers
given on the command line by :func:`integer`.

Circuit files hold a header and then one gate per line; a gate's position
is its parameter index:

    qubits N
    rx Q | ry Q | rz Q          Pauli rotation exp(i*theta/2 * sigma) on Q
    crx C Q | cry C Q | crz C Q rotation on Q controlled by C
    prx Q RATE | pry .. | prz ..  phased rotation (gauge tests)
    gen C P.. [; C P..]         exp(i*sum c_j*theta*sigma_j), <= 3 qubits,
                                e.g.  gen 0.5 X0 ; 0.25 Z0 Z1

Hamiltonian files hold one term per line, ``coeff pauli-word`` (e.g.
``0.5 X0 X1``), and at least one term; a line with just a coefficient is an
identity term.  A Hamiltonian, like a ``gen`` line, is refused when the sum
of its weights' sizes overflows a float.
"""

from __future__ import annotations

import re
from pathlib import Path

from .ansatz import AnsatzCircuit
from .errors import ParseError
from .gates import (
    ControlledPauliRotation,
    GeneratedGate,
    ParameterizedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)

__all__ = [
    "parse_circuit_file",
    "parse_circuit_text",
    "parse_hamiltonian_file",
    "parse_hamiltonian_text",
    "parse_pauli_term",
]

_ROTATIONS = {"rx": "X", "ry": "Y", "rz": "Z"}
_CONTROLLED = {"crx": "X", "cry": "Y", "crz": "Z"}
_PHASED = {"prx": "X", "pry": "Y", "prz": "Z"}


def _is_index(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts e.g. ``'²'``, which
    ``int`` rejects."""
    return token.isascii() and token.isdigit()


_REAL = re.compile(r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\s*",
                   re.ASCII | re.IGNORECASE)


def real(token: str) -> float:
    """A real number from outside the program: ASCII decimal or exponent
    form, or ``inf`` or ``nan``, which each caller rejects where it must
    (``float`` alone also reads ``'\u0663'`` and ``'1_0'``).  Raises
    ValueError."""
    if not _REAL.fullmatch(token):
        raise ValueError(f"expected a real number, got {token!r}")
    return float(token)


def integer(text: str) -> int:
    """An integer given from outside: an optional ``-``, then ASCII digits
    only (``int`` alone also reads ``'\u0663'`` and ``'1_0'``).  Raises
    ValueError."""
    if not _is_index(text.removeprefix("-")):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def parse_pauli_term(text: str) -> tuple[float, PauliString]:
    """One ``coeff pauli-word`` term, e.g. ``"0.5 X0 X1"``; a bare coefficient
    is the identity term.  Raises ValueError."""
    tokens = text.split()
    if not tokens:
        raise ValueError("expected a term 'coeff pauli-word', got nothing")
    try:
        weight = real(tokens[0])
    except ValueError:
        raise ValueError(f"expected a coefficient, got {tokens[0]!r}") from None
    return weight, PauliString.parse(" ".join(tokens[1:]))


def _parse_qubit(token: str, num_qubits: int, role: str) -> int:
    if not _is_index(token):
        raise ValueError(f"{role} must be a qubit index, got {token!r}")
    qubit = int(token)
    if qubit >= num_qubits:
        raise ValueError(f"{role} {qubit} out of range for {num_qubits} qubits")
    return qubit


def _parse_gate_line(tokens: list[str], num_qubits: int) -> ParameterizedGate:
    word = tokens[0].lower()
    if word in _ROTATIONS:
        if len(tokens) != 2:
            raise ValueError(f"{word} takes exactly one qubit")
        qubit = _parse_qubit(tokens[1], num_qubits, "target")
        return PauliRotation(PauliString.single(qubit, _ROTATIONS[word]))
    if word in _CONTROLLED:
        if len(tokens) != 3:
            raise ValueError(f"{word} takes a control and a target qubit")
        control = _parse_qubit(tokens[1], num_qubits, "control")
        target = _parse_qubit(tokens[2], num_qubits, "target")
        if control == target:
            raise ValueError(f"control and target must differ, both are {control}")
        return ControlledPauliRotation(control, PauliString.single(target, _CONTROLLED[word]))
    if word in _PHASED:
        if len(tokens) != 3:
            raise ValueError(f"{word} takes a qubit and a phase rate")
        qubit = _parse_qubit(tokens[1], num_qubits, "target")
        try:
            rate = real(tokens[2])
        except ValueError:
            raise ValueError(f"phase rate must be a number, got {tokens[2]!r}")
        return PauliRotation(PauliString.single(qubit, _PHASED[word]), phase_rate=rate)
    if word == "gen":
        chunks = " ".join(tokens[1:]).split(";")
        gate = GeneratedGate(PauliSum(tuple(parse_pauli_term(chunk) for chunk in chunks)))
        for qubit in gate.qubit_indices:
            _parse_qubit(str(qubit), num_qubits, "gen qubit")
        return gate
    raise ValueError(f"unknown gate {word!r}")


def parse_circuit_text(text: str, source: str = "<string>") -> AnsatzCircuit:
    """Parse the line-based circuit format; see the module docstring."""
    num_qubits: int | None = None
    gates: list[ParameterizedGate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if tokens[0].lower() != "qubits" or len(tokens) != 2 or not _is_index(tokens[1]):
                raise ParseError(f"{source}:{lineno}: expected header 'qubits N'")
            num_qubits = int(tokens[1])
            if num_qubits < 1:
                raise ParseError(f"{source}:{lineno}: need at least one qubit")
            continue
        try:
            gates.append(_parse_gate_line(tokens, num_qubits))
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}")
    if num_qubits is None:
        raise ParseError(f"{source}: missing 'qubits N' header")
    if not gates:
        raise ParseError(f"{source}: circuit has no gates")
    return AnsatzCircuit(num_qubits, tuple(gates))


def parse_circuit_file(path) -> AnsatzCircuit:
    path = Path(path)
    return parse_circuit_text(path.read_text(), source=str(path))


def parse_hamiltonian_text(text: str, source: str = "<string>") -> PauliSum:
    """One term per line: ``coeff pauli-word`` (e.g. ``0.5 X0 X1``).

    A line with just a coefficient is an identity term; blank lines and
    ``#`` comments are skipped.  Text without a term raises ParseError.
    """
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            terms += PauliSum((parse_pauli_term(line),)).terms
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    if not terms:
        raise ParseError(f"{source}: hamiltonian has no terms")
    try:
        return PauliSum(tuple(terms))
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def parse_hamiltonian_file(path) -> PauliSum:
    path = Path(path)
    return parse_hamiltonian_text(path.read_text(), source=str(path))
