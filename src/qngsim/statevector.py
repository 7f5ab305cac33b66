"""Dense complex statevector storage and the counted simulation primitives.

The geometric tensor is built from exactly three operations on statevectors:
clone a state, apply an operator to a state in place, and take an inner
product between two states.  The energy gradient adds a fourth, ``axpy``
(``y += alpha * x``), to sum Hamiltonian terms into one register.  Each
primitive increments an :class:`OpCounter`, which is what the cost-model
verification measures.

Conventions fixed here and used everywhere:

* amplitudes are ``complex128``; qubit 0 is the least-significant bit of the
  basis index (little-endian),
* a :class:`Statevector` never normalizes itself.  Images of derivative
  operators are legitimately non-unit vectors and are stored as-is,
* operators carry small matrices on a few target qubits (or bit masks for
  Pauli strings) and act in place with a kernel picked from their structure
  (see :class:`MatrixGateOperator`), built per N by ``_kernel(N)`` and cached
  by :func:`apply_operator`; nothing forms a ``2^N x 2^N`` matrix.  A
  matrix operator is a combination of the theta-free matrices of an
  :class:`OperatorBasis`, which caches one kernel plan per N, so binding a
  gate at a new theta builds no layout.

Inner products reduce with a single fixed BLAS call, so repeated runs on the
same machine are bit-identical.  A Statevector must not be mutated from two
threads at once, but may be handed between threads while no primitive is in
flight.

This module imports numpy only.  ``scipy.linalg.blas`` loads with the
first plane-rotation plan (:func:`_rotation_plan`, an rx or ry on 6 or more
qubits), so the primitives never import scipy on narrower registers.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "AllocationTally",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "MatrixGateOperator",
    "OpCounter",
    "OperatorBasis",
    "PauliStringOperator",
    "Statevector",
    "apply_operator",
    "axpy",
    "clone_into",
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


DEFAULT_MEMORY_BUDGET_BYTES = 4 * 2**30  # the CLI's when QNG_MEMORY_BUDGET_BYTES is unset


class AllocationTally:
    """Records Statevector allocations seen inside a :func:`track_allocations` block.

    Registers are tagged by ``kind`` ("workspace" for algorithm scratch
    registers, "input" for the fixed circuit input, "state" otherwise), so a
    test can assert e.g. that an algorithm's peak number of simultaneously
    live workspaces is a constant.  Their bytes are counted too: with a
    ``budget_bytes``, a register that would take the live bytes past it is
    refused before its buffer is allocated.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget_bytes = budget_bytes
        self.total: dict[str, int] = {}
        self._live: dict[str, int] = {}
        self._peak: dict[str, int] = {}
        self._live_all = 0
        self.peak_total = 0
        self.total_allocations = 0
        self.live_bytes = 0
        self.peak_bytes = 0

    def _check_room(self, num_qubits: int, nbytes: int) -> None:
        if self.budget_bytes is not None and self.live_bytes + nbytes > self.budget_bytes:
            raise ResourceLimitError(
                f"a {num_qubits}-qubit register ({nbytes} bytes) on top of {self._live_all} "
                f"live ({self.live_bytes} bytes) exceeds the {self.budget_bytes}-byte budget")

    def _on_alloc(self, kind: str, nbytes: int) -> None:
        self.total[kind] = self.total.get(kind, 0) + 1
        self._live[kind] = self._live.get(kind, 0) + 1
        self._peak[kind] = max(self._peak.get(kind, 0), self._live[kind])
        self.total_allocations += 1
        self._live_all += 1
        self.peak_total = max(self.peak_total, self._live_all)
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def _on_free(self, kind: str, nbytes: int) -> None:
        self._live[kind] = self._live.get(kind, 0) - 1
        self._live_all -= 1
        self.live_bytes -= nbytes

    def peak_live(self, kind: str | None = None) -> int:
        """Peak number of simultaneously live statevectors (optionally by kind)."""
        if kind is None:
            return self.peak_total
        return self._peak.get(kind, 0)

    def total_allocated(self, kind: str | None = None) -> int:
        if kind is None:
            return self.total_allocations
        return self.total.get(kind, 0)


def _notify_free(tallies: tuple[AllocationTally, ...], kind: str, nbytes: int) -> None:
    for tally in tallies:
        tally._on_free(kind, nbytes)


@contextmanager
def track_allocations(budget_bytes: int | None = None) -> Iterator[AllocationTally]:
    """Context manager counting every Statevector allocated inside the block;
    with ``budget_bytes``, one that does not fit raises :class:`ResourceLimitError`."""
    tally = AllocationTally(budget_bytes)
    token = _TALLIES.set(_TALLIES.get() + (tally,))
    try:
        yield tally
    finally:
        _TALLIES.reset(token)


# ---------------------------------------------------------------------------
# Operation counter
# ---------------------------------------------------------------------------


class OpCounter:
    """Tally of gate applications, state clones, inner products and axpys.

    Counts are monotone while a computation runs; call :meth:`reset` only
    between computations.  Gate applications include both unitary and
    derivative-operator applications.  :meth:`as_tuple` holds the three
    tensor primitives only; ``axpys`` is read on its own.
    """

    __slots__ = ("gate_applications", "clones", "inner_products", "axpys")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.gate_applications = 0
        self.clones = 0
        self.inner_products = 0
        self.axpys = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.gate_applications, self.clones, self.inner_products)

    @property
    def gates_plus_clones(self) -> int:
        return self.gate_applications + self.clones

    def __repr__(self) -> str:
        return (
            f"OpCounter(gate_applications={self.gate_applications}, "
            f"clones={self.clones}, inner_products={self.inner_products}, "
            f"axpys={self.axpys})"
        )


# ---------------------------------------------------------------------------
# Statevector
# ---------------------------------------------------------------------------


class Statevector:
    """A dense register of ``2**num_qubits`` complex128 amplitudes."""

    __slots__ = ("num_qubits", "_amplitudes", "kind", "__weakref__")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None,
                 kind: str = "state") -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = num_qubits
        tallies = _TALLIES.get()
        nbytes = 16 << num_qubits  # complex128
        for tally in tallies:
            tally._check_room(num_qubits, nbytes)
        if amplitudes is None:
            try:
                self._amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
            except ValueError:  # numpy cannot size the array at all
                raise ResourceLimitError(
                    f"a {num_qubits}-qubit register is too large to allocate") from None
        else:
            self.amplitudes = amplitudes
        self.kind = kind
        if tallies:
            for tally in tallies:
                tally._on_alloc(kind, nbytes)
            weakref.finalize(self, _notify_free, tallies, kind, nbytes)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, amplitudes: np.ndarray) -> None:
        # BLAS kernels rotate a misaligned or read-only buffer's copy, not the
        # buffer: hold an aligned, writeable, C-contiguous one
        amplitudes = np.require(amplitudes, np.complex128, "CAW")
        dim = 1 << self.num_qubits
        if amplitudes.shape != (dim,):
            raise ValueError(
                f"expected {dim} amplitudes for {self.num_qubits} qubits, "
                f"got shape {amplitudes.shape}"
            )
        self._amplitudes = amplitudes

    @classmethod
    def zeros(cls, num_qubits: int, kind: str = "workspace") -> "Statevector":
        """A fresh all-zero register, tagged as algorithm workspace by default."""
        return cls(num_qubits, kind=kind)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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
    np.copyto(dst._amplitudes, src._amplitudes)
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
    return complex(np.vdot(bra._amplitudes, ket._amplitudes))


_AXPY_CHUNK = 1 << 14  # amplitudes per step of axpy: a 256 KiB temporary


def axpy(alpha: complex, x: Statevector, y: Statevector, counter: OpCounter) -> None:
    """``y += alpha * x`` in place; counts one axpy.

    Each element is numpy's ``y + alpha * x``, taken ``_AXPY_CHUNK``
    amplitudes at a time, so the only temporary is one chunk of
    ``alpha * x`` and never a register.
    """
    if x.num_qubits != y.num_qubits:
        raise ValueError(
            f"cannot add a {x.num_qubits}-qubit state to a {y.num_qubits}-qubit register"
        )
    xs, ys = x._amplitudes, y._amplitudes
    for start in range(0, len(ys), _AXPY_CHUNK):
        ys[start:start + _AXPY_CHUNK] += alpha * xs[start:start + _AXPY_CHUNK]
    counter.axpys += 1


def apply_operator(state: Statevector, op: MatrixGateOperator | PauliStringOperator,
                   counter: OpCounter) -> None:
    """Transform ``state`` in place by ``op``; counts one gate application.

    Calls the kernel ``op._kernel(N)`` built and cached in ``op._kernels`` on
    first use at N qubits, which is when ``op``'s qubits are checked against
    N.  Non-unitary operators (derivative gates) leave the state unnormalized.
    """
    kernel = op._kernels.get(state.num_qubits)
    if kernel is None:
        top = max(op.qubit_indices, default=-1)
        if top >= state.num_qubits:
            raise ValueError(
                f"operator acts on qubit {top}, but the state has only "
                f"{state.num_qubits} qubits"
            )
        kernel = op._kernels[state.num_qubits] = op._kernel(state.num_qubits)
    kernel(state._amplitudes)
    counter.gate_applications += 1


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------

_BLOCK_BITS = 6  # blocks of >= 64 amplitudes keep numpy's inner loop long
_GEMM_BITS = 5  # widest kron-expanded window: a 32x32 block, whatever N
_BLOCK_PAIRS = 1 << 8  # BLAS plane rotations need >= 2**8 pairs per block call


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@cache
def _diagonal_layout(targets: tuple[int, ...], num_qubits: int):
    """The register shape, the diagonal index of every phase-pattern entry and
    the slices of the axes above the block, each with the diagonal indices
    its pattern holds; see :func:`_diagonal_kernel`."""
    low = min(num_qubits, max(_BLOCK_BITS, min(targets)))
    high = sorted((q for q in targets if q >= low), reverse=True)
    shape, top = [], num_qubits
    for q in high:
        shape, top = shape + [1 << (top - q - 1), 2], q
    shape += [1 << (top - low), 1 << low]
    # the pattern is constant along the block if no target sits in it
    grid = np.indices((2,) * len(high) + ((1 << low) if min(targets) < low else 1,))
    bits = [grid[high.index(q)] if q >= low else (grid[-1] >> q) & 1 for q in targets]
    pattern = _frozen(sum(bit << j for j, bit in enumerate(bits)))
    slices = tuple((sum(((slice(None), bit) for bit in index), ()), index,
                    tuple(np.unique(pattern[index]).tolist()))
                   for index in np.ndindex(pattern.shape[:-1]))
    return tuple(shape), pattern, slices, (1, 2) * len(high) + (1, -1)


def _diagonal_plan(terms: np.ndarray, targets: tuple[int, ...], num_qubits: int):
    """Each term's phase pattern, and per slice of the axes above the block
    the term whose coefficient decides a skip (1) or a fill (0): the one
    term that is nonzero there if it is all ones there, None if no term is
    nonzero there.  See :func:`_diagonal_kernel`."""
    shape, pattern, slices, broadcast = _diagonal_layout(targets, num_qubits)
    diagonals = terms.diagonal(axis1=1, axis2=2)
    values = diagonals.tolist()
    deciding = {}
    for _, at, entries in slices:
        live = [k for k, row in enumerate(values) if any(row[e] for e in entries)]
        if not live or (len(live) == 1 and all(values[live[0]][e] == 1 for e in entries)):
            deciding[at] = live[0] if live else None
    flat = _frozen(diagonals.take(pattern.ravel(), axis=1))
    layout = (shape[-1] == 1 << num_qubits, shape, slices, broadcast)

    def bind(coefficients):
        skip, zero = set(), set()
        for at, term in deciding.items():
            weight = 0 if term is None else coefficients[term]
            if weight == 1:
                skip.add(at)
            elif weight == 0:
                zero.add(at)
        factors = np.dot(coefficients, flat).reshape(pattern.shape)
        return _diagonal_kernel(factors, layout, skip, zero)
    return bind


def _diagonal_kernel(factors: np.ndarray, layout, skip: set, zero: set):
    """In-place multiply by a phase pattern; see :class:`MatrixGateOperator`."""
    whole, shape, slices, broadcast = layout
    if whole:  # one block spans the register: one call
        if () in skip:
            return lambda amplitudes: None
        if () in zero:
            return lambda amplitudes: amplitudes.fill(0)
        return lambda amplitudes: np.multiply(amplitudes, factors, out=amplitudes)
    if not (skip or zero):
        parts = [((), factors.reshape(broadcast))]
    else:
        parts = [(index, None if at in zero else factors[at])
                 for index, at, _ in slices if at not in skip]

    def apply(amplitudes: np.ndarray) -> None:
        view = amplitudes.reshape(shape)
        for index, factor in parts:
            part = view[index]
            if factor is None:
                part.fill(0)
            else:
                np.multiply(part, factor, out=part)
    return apply


@cache
def _dense_layout(targets: tuple[int, ...], num_qubits: int):
    """The window ``(low, bits)`` of targets within 5 consecutive bits, and for
    each entry of its kron-expanded block, transposed when the window starts
    at bit 0, the flat index of the matrix entry it holds, or ``4**k`` where
    it is zero; None for targets further apart.  See :func:`_dense_kernel`."""
    lo, hi = min(targets), max(targets)
    if hi - lo >= _GEMM_BITS:
        return None
    if hi < _GEMM_BITS:  # one row (a GEMV) up to N = 5, else the narrowest rows
        low, bits = 0, num_qubits if num_qubits <= _GEMM_BITS else max(2, hi + 1)
    else:  # a window from the lowest target, >= 2**8 amplitudes per product
        low, bits = lo, min(num_qubits - lo, max(hi - lo + 1, min(4, 8 - lo)))
    index = np.arange(1 << bits)
    rows = sum(((index >> (q - low)) & 1) << j for j, q in enumerate(targets))
    rest = index & ~sum(1 << (q - low) for q in targets)
    rows, cols = (rows[:, None], rows) if low else (rows, rows[:, None])
    size = 1 << 2 * len(targets)
    return low, bits, _frozen(np.where(rest[:, None] == rest, rows << len(targets) | cols, size))


def _dense_plan(terms: np.ndarray, targets: tuple[int, ...], num_qubits: int):
    """Each term kron-expanded to the window block, or as it is for targets
    too far apart for a window; see :func:`_dense_kernel`."""
    layout = _dense_layout(targets, num_qubits)
    count, dim = len(terms), terms.shape[1]
    if layout is None:
        flat, shape = terms.reshape(count, -1), (dim, dim)
    else:  # gather from the flat terms, a zero appended to each
        padded = np.zeros((count, dim * dim + 1), dtype=np.complex128)
        padded[:, :-1] = terms.reshape(count, -1)
        flat, shape = padded.take(layout[2].ravel(), axis=1), layout[2].shape
    flat = _frozen(flat)

    def bind(coefficients):
        block = np.dot(coefficients, flat).reshape(shape)
        return _dense_kernel(block, targets, layout, num_qubits)
    return bind


def _dense_kernel(block: np.ndarray, targets: tuple[int, ...], layout, num_qubits: int):
    """In-place GEMM by a dense block; see :class:`MatrixGateOperator`."""
    if layout is None:
        front = tuple(num_qubits - 1 - q for q in reversed(targets))  # tensor axes

        def apply(amplitudes: np.ndarray) -> None:
            moved = np.moveaxis(amplitudes.reshape((2,) * num_qubits), front, range(len(front)))
            work = np.ascontiguousarray(moved).reshape(len(block), -1)
            np.copyto(moved, (block @ work).reshape(moved.shape))
        return apply
    low, bits = layout[:2]
    if low:
        def apply(amplitudes: np.ndarray) -> None:
            view = amplitudes.reshape(-1, 1 << bits, 1 << low)
            np.matmul(block, view, out=view)
        return apply
    if bits == num_qubits:  # one row spans the register: a GEMV into a new vector
        return lambda amplitudes: np.copyto(amplitudes, np.dot(amplitudes, block))

    def apply(amplitudes: np.ndarray) -> None:
        view = amplitudes.reshape(-1, 1 << bits)
        np.matmul(view, block, out=view)
    return apply


@cache
def _rotation_layout(qubit: int, num_qubits: int):
    """The BLAS calls ``(n, offx, incx, offy, incy)``, in complex units, pairing
    each amplitude with bit ``qubit`` clear (x) with its partner (y); None up
    to N = 5 (the one-row GEMV) and at bits 2-7, which keep the window GEMM.
    Timed from N = 6 to 18, these calls beat the window GEMM at bits 0-1 and
    from bit 8 up (ry by 2-7x; rx by up to 2x, or level); at bits 2-7 rx lost
    as strided and as per-block calls, so both forms keep the GEMM there.
    See :func:`_rotation_kernel`."""
    if num_qubits <= _GEMM_BITS:
        return None
    half, dim = 1 << qubit, 1 << num_qubits
    if qubit <= 1:  # 2**q strided calls over the register
        return tuple((dim // (2 * half), j, 2 * half, j + half, 2 * half) for j in range(half))
    if half >= _BLOCK_PAIRS:  # one unit-stride call per block of 2**(q+1) amplitudes
        return tuple((half, start, 1, start + half, 1) for start in range(0, dim, 2 * half))
    return None


def _rotation_form(terms: np.ndarray) -> bool:
    """Whether every 2x2 term is ``[[c, m01], [-conj(m01), c]]`` with real
    ``c``, and the terms' ``m01`` all real or all imaginary: rx, ry, their
    adjoints and factors D."""
    m00, m01, m10, m11 = terms[:, 0, 0], terms[:, 0, 1], terms[:, 1, 0], terms[:, 1, 1]
    return bool((m00 == m11).all() and not m00.imag.any() and (m10 == -m01.conj()).all()
                and not (m01.real.any() and m01.imag.any()))


def _rotation_plan(terms: np.ndarray, qubit: int, num_qubits: int):
    """Each term's ``(c, s)``, ``m01`` being ``s`` (ry form) or ``i s`` (rx
    form), the BLAS calls, in float64 units for the rx form, and the BLAS
    routine, ``zdrot`` or ``drot``; see :func:`_rotation_kernel`.

    The plan imports ``scipy.linalg.blas`` and looks the routine up once;
    every kernel it binds shares that routine.
    """
    from scipy.linalg.blas import drot, zdrot

    calls = _rotation_layout(qubit, num_qubits)
    m01 = terms[:, 0, 1]
    imaginary = bool(m01.imag.any())
    rot = drot if imaginary else zdrot
    cs = terms[:, 0, 0].real.tolist()
    ss = (m01.imag if imaginary else m01.real).tolist()
    if imaginary:
        calls = [(n, 2 * offx, 2 * incx, 2 * offy, 2 * incy)
                 for n, offx, incx, offy, incy in calls]

    def bind(coefficients):
        c = s = 0.0
        for weight, ck, sk in zip(coefficients, cs, ss):
            c += weight * ck
            s += weight * sk
        return _rotation_kernel(c, s, imaginary, rot, calls)
    return bind


def _rotation_kernel(c: float, s: float, imaginary: bool, rot, calls):
    """In-place plane rotation by ``[[c, m01], [-conj(m01), c]]``, ``m01`` being
    ``s`` or ``i s``, through the BLAS routine ``rot`` (``zdrot``, or ``drot``
    for the rx form); see :class:`MatrixGateOperator`."""
    if not imaginary:  # ry form, drot's own: x' = c x + s y, y' = c y - s x
        def apply(amplitudes: np.ndarray) -> None:
            for n, offx, incx, offy, incy in calls:
                rot(amplitudes, amplitudes, c, s, n, offx, incx, offy, incy, 1, 1)
        return apply

    # rx form: Re x with Im y at (c, -s), Im x with Re y at (c, s)
    def apply(amplitudes: np.ndarray) -> None:
        parts = amplitudes.view(np.float64)
        for n, offx, incx, offy, incy in calls:
            rot(parts, parts, c, -s, n, offx, incx, offy + 1, incy, 1, 1)
            rot(parts, parts, c, s, n, offx + 1, incx, offy, incy, 1, 1)
    return apply


def _kernel_plan(terms: np.ndarray, targets: tuple[int, ...], real: bool, num_qubits: int):
    """The kernel family of ``sum_k c_k terms[k]`` at N qubits, picked from
    the terms alone (with ``real``: whether every ``c_k`` is real), and a
    function of the coefficients that builds the kernel."""
    if np.count_nonzero(terms) == np.count_nonzero(terms.diagonal(axis1=1, axis2=2)):
        return _diagonal_plan(terms, targets, num_qubits)
    if (real and len(targets) == 1 and _rotation_layout(targets[0], num_qubits)
            and _rotation_form(terms)):
        return _rotation_plan(terms, targets[0], num_qubits)
    return _dense_plan(terms, targets, num_qubits)


class OperatorBasis:
    """Theta-free matrices ``M_k`` on ``targets``, stacked as ``terms``; the
    operators :meth:`bind` makes are ``sum_k c_k M_k``, and share one kernel
    plan per register size.

    ``real`` says every coefficient a caller binds is real; only then may
    the plan be a plane rotation.  ``adjoint_signs`` (``M_k^dagger = sign_k
    M_k``), when given, lets :meth:`MatrixGateOperator.adjoint` rebind the
    basis at ``sign_k * conj(c_k)``.
    """

    __slots__ = ("targets", "terms", "real", "adjoint_signs", "_plans")

    def __init__(self, targets: tuple[int, ...], terms, real: bool = True,
                 adjoint_signs: tuple[int, ...] | None = None) -> None:
        self.targets = targets
        self.terms = _frozen(np.asarray(terms, dtype=np.complex128))
        self.real = real
        self.adjoint_signs = adjoint_signs
        self._plans = {}

    def bind(self, coefficients: tuple) -> "MatrixGateOperator":
        """The operator ``sum_k coefficients[k] * M_k``, unchecked."""
        op = object.__new__(MatrixGateOperator)
        op.targets, op._basis, op._coefficients = self.targets, self, coefficients
        op._matrix, op._kernels = None, {}
        return op

    def plan(self, num_qubits: int):
        """The kernel plan at N qubits, built on first use and cached."""
        plan = self._plans.get(num_qubits)
        if plan is None:
            plan = self._plans[num_qubits] = _kernel_plan(self.terms, self.targets, self.real,
                                                          num_qubits)
        return plan


class MatrixGateOperator:
    """A dense matrix on a few target qubits, controls already folded in.

    ``matrix`` has shape ``(2**k, 2**k)`` where ``k = len(targets)``; bit ``j``
    of the matrix index addresses ``targets[j]``.  The matrix need not be
    unitary (derivative operators are not).

    An operator is ``sum_k c_k M_k`` over the theta-free matrices of an
    :class:`OperatorBasis`.  A gate binds its own basis at theta: a rotation
    is ``M0 + cos(s theta) I + sin(s theta) i sigma`` on its block, ``M0``
    being the control-0 identity (absent without a control), its
    derivative ``D . U`` is a binding of the same basis, and
    :meth:`adjoint` rebinds either at the adjoint coefficients; ``matrix``
    is then formed only when read.  A ``gen`` gate binds the rank-1
    projectors of its generator at ``exp(i theta w_k)``.  An operator built
    from a matrix (a ``gen`` gate's factor ``D = i A``) is the one-term basis
    of that matrix, at coefficient 1.

    The kernel follows the basis's structure, not its coefficients.  Per N
    the basis caches a plan: the kernel family, its index layout (shared by
    every basis on the same targets and N), each term expanded through that
    layout and the slices a diagonal kernel may skip or zero.  Binding a
    kernel then combines the expanded terms with the coefficients in one
    product of at most 32x32 entries:

    * diagonal (rz, crz, their derivatives and adjoints): an in-place multiply
      by a phase pattern over blocks of at least 64 amplitudes, with one axis
      per target bit above the block.  A slice of those axes on which one
      term alone is nonzero and all ones (crz's control-0 half) is skipped
      at coefficient 1 and zeroed at 0 (a derivative's control projector),
      and one on which every term is zero is zeroed; a skipping kernel still
      counts one gate.  Up to N = 6 one block spans the register, and the
      kernel is a single call: one in-place multiply, a fill, or nothing.
    * dense, all targets within 5 consecutive bits (rx, ry, their derivatives,
      crx and cry on neighbouring qubits): one GEMM against ``K``, the matrix
      kron-expanded to a window holding the targets: ``view(-1, 2**b) @ K.T``
      at bit 0, else ``K @ view(-1, 2**b, 2**q)`` from the lowest target
      ``q``.  ``K`` is at most 32x32, whatever ``N``.  Up to N = 5 one row
      spans the register: a GEMV into a new vector, copied back (a product
      written into its own operand would copy that operand first, and a
      scratch buffer on the operator would be shared by every binding and
      thread).
    * rotation form, from N = 6 (rx, ry, their adjoints and factors D: one
      target, every term ``[[c, m01], [-conj(m01), c]]`` with real ``c``,
      ``m01`` real for all terms or imaginary for all, and real
      coefficients): BLAS plane rotations on the register, one ``zdrot``
      for real ``m01`` (ry), two ``drot`` on the float64 view for imaginary
      ``m01`` (rx), pairing Re x0 with Im x1 and Im x0 with Re x1.  At bits
      0 and 1 that is 2**q strided calls over the register (a stride of at
      most 4 amplitudes, one 64-byte line); from bit 8 up, one unit-stride
      call per block of 2**(q+1) amplitudes.  Bits 2-7 keep the window GEMM
      above, where rx measured slower as strided or per-block calls.  Calls
      are cached per (bit, N), in float64 units in an rx plan; each kernel
      holds ``c`` and ``s``.  A phase rate makes the coefficients complex,
      so phased rotations keep the GEMM.
    * dense, targets further apart: target axes moved to the front, one GEMM.
    """

    __slots__ = ("targets", "_basis", "_coefficients", "_matrix", "_kernels")

    def __init__(self, targets: tuple[int, ...], matrix: np.ndarray) -> None:
        targets = tuple(int(q) for q in targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"target qubits must be distinct, got {targets}")
        if any(q < 0 for q in targets):
            raise ValueError(f"target qubits must be non-negative, got {targets}")
        dim = 1 << len(targets)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(targets)} targets"
            )
        self.targets = targets
        self._basis, self._coefficients = OperatorBasis(targets, matrix[None]), (1.0,)
        self._matrix, self._kernels = matrix, {}

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.tensordot(self._coefficients, self._basis.terms, 1)
        return self._matrix

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return self.targets

    def adjoint(self) -> "MatrixGateOperator":
        signs = self._basis.adjoint_signs
        if signs is None:
            return MatrixGateOperator(self.targets, self.matrix.conj().T)
        return self._basis.bind(tuple(sign * weight.conjugate()
                                      for sign, weight in zip(signs, self._coefficients)))

    def _kernel(self, num_qubits: int):
        return self._basis.plan(num_qubits)(self._coefficients)


class PauliStringOperator:
    """Tensor product of single-qubit X/Y/Z factors, applied via bit masks.

    The register is viewed as rows of ``2**max(6, ceil(N/2))`` amplitudes
    (one row if smaller).  The Y and Z signs, Y phase included, are a small
    vector per axis multiplied in place; X and Y then permute rows and columns
    (two ``take`` calls).  No matrix or ``2**N`` index is built, so wide
    strings stay O(2^N).  Hermitian, hence self-adjoint.
    """

    __slots__ = ("qubit_indices", "_x_mask", "_sign_mask", "_phase", "_kernels")

    def __init__(self, factors: tuple[tuple[int, str], ...]) -> None:
        qubits = [int(qubit) for qubit, _ in factors]
        labels = [label for _, label in factors]
        if any(qubit < 0 for qubit in qubits):
            raise ValueError(f"qubit index must be non-negative, got {min(qubits)}")
        for label in labels:
            if label not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli label {label!r}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"Pauli factors act on duplicate qubits: {qubits}")
        self.qubit_indices = tuple(sorted(qubits))
        # X and Y flip their bit; Y and Z give a sign; each Y adds a factor i
        self._x_mask = sum(1 << q for q, label in zip(qubits, labels) if label != "Z")
        self._sign_mask = sum(1 << q for q, label in zip(qubits, labels) if label != "X")
        self._phase = 1j ** (labels.count("Y") % 4)
        self._kernels = {}

    def adjoint(self) -> "PauliStringOperator":
        return self

    def _kernel(self, num_qubits: int):
        """Multiply rows of ``2**low`` amplitudes in place by the sign vectors
        that are not all ones (indexed by source amplitude), then permute rows
        and columns unless the string has no X or Y."""
        low = max(min(num_qubits, _BLOCK_BITS), (num_qubits + 1) // 2)
        perms, signs = [], []
        for size, shift, shape, phase in ((1 << (num_qubits - low), low, (-1, 1), 1),
                                          (1 << low, 0, (-1,), self._phase)):
            perms.append(np.arange(size) ^ ((self._x_mask >> shift) & (size - 1)))
            mask = (self._sign_mask >> shift) & (size - 1)
            sign = phase * np.array([1 - 2 * ((i & mask).bit_count() & 1) for i in range(size)])
            if np.any(sign != 1):
                signs.append(sign.reshape(shape))
        rows, cols = perms if self._x_mask else (None, None)
        width = 1 << low

        def apply(amplitudes: np.ndarray) -> None:
            view = amplitudes.reshape(-1, width)
            for sign in signs:
                np.multiply(view, sign, out=view)
            if rows is not None:
                # the column take reads the row-permuted copy: one temporary, not two
                view.take(rows, axis=0).take(cols, axis=1, out=view, mode="clip")
        return apply
