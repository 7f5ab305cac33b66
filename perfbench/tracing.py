"""Per-layer tracing of qngsim from outside the package.

``Tracer.install`` replaces the public functions each module calls across a
layer boundary with timed wrappers, in the namespace of the calling module
(``qngsim.metric.apply_operator``, ``qngsim.cli.compute_geometric_tensor``,
...), so the program's own files stay untouched and an untraced run pays
nothing.  Calls that do real work below them (cli, metric, optimizer, ansatz)
open a span with a parent; the leaf calls (the three statevector primitives
and gate-operator construction) are folded into per-layer counters of the
span they run in, because one narrow tensor request makes ~33k of them.

Every span that receives an ``OpCounter`` compares the counter's growth with
the primitives the wrappers saw inside it; any difference is recorded in
``mismatches``.  Spans and counters stay in memory; the run writes
``as_json()`` out when it ends.
"""

from __future__ import annotations

import time

import qngsim.ansatz
import qngsim.cli
import qngsim.gates
import qngsim.metric
import qngsim.optimizer
from qngsim.statevector import MatrixGateOperator, PauliStringOperator

_now = time.perf_counter

# Amplitude bytes a primitive reads plus writes, per amplitude: one complex128
# read and one written (apply, clone) or two read (inner product).
_BYTES_PER_AMPLITUDE = 32

PRIMITIVES = ("apply_1q", "apply_ctrl", "apply_pauli", "clone", "inner")


def _apply_kind(op) -> str:
    if isinstance(op, PauliStringOperator):
        return "apply_pauli"
    if isinstance(op, MatrixGateOperator) and len(op.targets) == 1:
        return "apply_1q"
    return "apply_ctrl"


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "child", "gates", "clones",
                 "inners")

    def __init__(self, name: str, span_id: int, parent_id: int | None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.child = 0.0
        self.gates = self.clones = self.inners = 0
        self.start = _now()


class Tracer:
    """Spans and counters of one traced benchmark run."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._next_id = 0
        self.op_kind = ""
        self.op_id = -1
        self.spans: list[tuple] = []        # (op_id, span_id, parent_id, name, start, end)
        self.frames: dict[tuple[str, str], list[float]] = {}  # (kind, name) -> [calls, s, self_s]
        self.leaves: dict[tuple[str, str, str], list[float]] = {}  # (kind, span, leaf) -> [calls, s, bytes]
        self.mismatches: list[str] = []
        self.gradient_calls = 0
        self.gradient_gates = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(name, self._next_id, parent)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self) -> _Frame:
        frame = self._stack.pop()
        end = _now()
        duration = end - frame.start
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.gates += frame.gates
            parent.clones += frame.clones
            parent.inners += frame.inners
        acc = self.frames.setdefault((self.op_kind, frame.name), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - frame.child
        self.spans.append((self.op_id, frame.span_id, frame.parent_id, frame.name,
                           frame.start, end))
        return frame

    def begin_op(self, kind: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_kind = kind
        self.op_id += 1
        self._enter(f"op.{kind}")

    def end_op(self) -> _Frame:
        return self._exit()

    def _leaf(self, leaf: str, seconds: float, nbytes: int = 0) -> None:
        frame = self._stack[-1]
        frame.child += seconds
        acc = self.leaves.setdefault((self.op_kind, frame.name, leaf), [0, 0.0, 0])
        acc[0] += 1
        acc[1] += seconds
        acc[2] += nbytes

    # -- wrappers -----------------------------------------------------------

    def _wrap_span(self, name: str, fn, counter_index: int | None = None):
        tracer = self

        def traced(*args, **kwargs):
            counter = args[counter_index] if counter_index is not None else None
            before = counter.as_tuple() if counter is not None else None
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                frame = tracer._exit()
                if counter is not None:
                    grown = tuple(a - b for a, b in zip(counter.as_tuple(), before))
                    seen = (frame.gates, frame.clones, frame.inners)
                    if grown != seen:
                        tracer.mismatches.append(f"{name}: OpCounter {grown}, traced {seen}")
                    if name == "optimizer.gradient":
                        tracer.gradient_calls += 1
                        tracer.gradient_gates += grown[0]

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_apply(self, fn):
        tracer = self

        def apply_operator(state, op, counter):
            start = _now()
            fn(state, op, counter)
            tracer._leaf(_apply_kind(op), _now() - start,
                         _BYTES_PER_AMPLITUDE * state.amplitudes.size)
            tracer._stack[-1].gates += 1
        return apply_operator

    def wrap_clone(self, fn):
        tracer = self

        def clone_into(src, dst, counter):
            start = _now()
            fn(src, dst, counter)
            tracer._leaf("clone", _now() - start, _BYTES_PER_AMPLITUDE * src.amplitudes.size)
            tracer._stack[-1].clones += 1
        return clone_into

    def wrap_inner(self, fn):
        tracer = self

        def inner_product(bra, ket, counter):
            start = _now()
            value = fn(bra, ket, counter)
            tracer._leaf("inner", _now() - start, _BYTES_PER_AMPLITUDE * bra.amplitudes.size)
            tracer._stack[-1].inners += 1
            return value
        return inner_product

    def wrap_build(self, fn):
        tracer = self

        def build(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            tracer._leaf("build", _now() - start)
            return result
        return build

    def install(self) -> None:
        for module in (qngsim.metric, qngsim.optimizer, qngsim.ansatz):
            self._patch(module, "apply_operator", self.wrap_apply(module.apply_operator))
        for module in (qngsim.metric, qngsim.optimizer):
            self._patch(module, "clone_into", self.wrap_clone(module.clone_into))
            self._patch(module, "inner_product", self.wrap_inner(module.inner_product))

        # the gate kinds the workloads' circuits use (rx/ry/rz and crz)
        for cls in (qngsim.gates.PauliRotation, qngsim.gates.ControlledPauliRotation):
            for attr in ("unitary", "derivative"):
                self._patch(cls, attr, self.wrap_build(cls.__dict__[attr]))
        self._patch(MatrixGateOperator, "adjoint", self.wrap_build(MatrixGateOperator.adjoint))

        cli, opt = qngsim.cli, qngsim.optimizer
        self._patch(cli, "main", self._wrap_span("cli.main", cli.main))
        self._patch(cli, "parse_circuit_file",
                    self._wrap_span("cli.parse", cli.parse_circuit_file))
        self._patch(cli, "compute_geometric_tensor",
                    self._wrap_span("metric.tensor", cli.compute_geometric_tensor, 2))
        self._patch(cli, "write_tensor_csv",
                    self._wrap_span("metric.write_csv", cli.write_tensor_csv))
        self._patch(opt, "run_optimization",
                    self._wrap_span("optimizer.run", opt.run_optimization))
        self._patch(opt, "energy_expectation",
                    self._wrap_span("optimizer.energy", opt.energy_expectation, 3))
        self._patch(opt, "energy_gradient",
                    self._wrap_span("optimizer.gradient", opt.energy_gradient, 3))
        self._patch(opt, "compute_geometric_tensor",
                    self._wrap_span("metric.tensor", opt.compute_geometric_tensor, 2))
        self._patch(opt, "prepare_ansatz_state",
                    self._wrap_span("ansatz.prepare", opt.prepare_ansatz_state, 2))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer figures --------------------------------------------------

    def frame_total(self, kind: str, name: str, column: int = 1) -> float:
        return self.frames.get((kind, name), [0, 0.0, 0.0])[column]

    def leaf_total(self, kind: str, leaf: str, column: int, span: str | None = None) -> float:
        return sum(acc[column] for (k, s, name), acc in self.leaves.items()
                   if k == kind and name == leaf and (span is None or s == span))

    def as_json(self) -> dict:
        return {
            "spans": self.spans,
            "frames": [[k, n, *acc] for (k, n), acc in self.frames.items()],
            "leaves": [[k, s, n, *acc] for (k, s, n), acc in self.leaves.items()],
            "mismatches": self.mismatches,
        }


# ---------------------------------------------------------------------------
# Isolated unit costs and the per-layer metrics
# ---------------------------------------------------------------------------


def unit_costs(bench, batches: int = 5, batch_seconds: float = 0.04) -> dict[str, float]:
    """Median seconds per call of each primitive kind at the workload's width,
    called directly (no surrounding algorithm), cycling over the gates and
    Hamiltonian terms the workload uses."""
    import numpy as np
    from qngsim.gates import ControlledPauliRotation, PauliRotation, PauliString
    from qngsim.statevector import (OpCounter, Statevector, apply_operator, clone_into,
                                    inner_product)

    n = bench.workload.num_qubits
    rng = np.random.default_rng(0)
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = Statevector(n, amplitudes / np.linalg.norm(amplitudes))
    other = state.copy()
    counter = OpCounter()
    rotations = [PauliRotation(PauliString.single(q, "XYZ"[q % 3])).unitary(0.3)
                 for q in range(n)]
    controlled = [ControlledPauliRotation(q, PauliString.single((q + 1) % n, "Z")).unitary(0.3)
                  for q in range(n)] if n >= 2 else []
    paulis = [pauli.operator() for _, pauli in bench.hamiltonian.terms]
    calls = {
        "apply_1q": [lambda op=op: apply_operator(state, op, counter) for op in rotations],
        "apply_ctrl": [lambda op=op: apply_operator(state, op, counter) for op in controlled],
        "apply_pauli": [lambda op=op: apply_operator(state, op, counter) for op in paulis],
        "clone": [lambda: clone_into(state, other, counter)],
        "inner": [lambda: inner_product(state, other, counter)],
    }
    costs = {}
    for kind, group in calls.items():
        if not group:
            costs[kind] = 0.0
            continue
        start = _now()
        for call in group:
            call()
        reps = max(1, int(batch_seconds / max(_now() - start, 1e-9)))
        samples = []
        for _ in range(batches):
            start = _now()
            for _ in range(reps):
                for call in group:
                    call()
            samples.append((_now() - start) / (reps * len(group)))
        costs[kind] = sorted(samples)[batches // 2]
    costs.update(wrapper_costs(state, rotations[0]))
    return costs


# which wrapper each leaf goes through
_WRAPPER_OF = {"apply_1q": "apply", "apply_ctrl": "apply", "apply_pauli": "apply",
               "clone": "clone", "inner": "inner", "build": "build"}


def wrapper_costs(state, op) -> dict[str, float]:
    """Seconds per call that each leaf wrapper adds to the self time of the
    span it runs in: a wrapped no-op's time outside its recorded leaf
    interval, less the time of calling the bare no-op (median of 5 batches
    of 20 000 calls)."""
    batches, calls = 5, 20000
    tracer = Tracer()
    tracer.begin_op("calibration")
    cases = {
        "apply": (tracer.wrap_apply, lambda state, op, counter: None, (state, op, None)),
        "clone": (tracer.wrap_clone, lambda src, dst, counter: None, (state, state, None)),
        "inner": (tracer.wrap_inner, lambda bra, ket, counter: 0j, (state, state, None)),
        "build": (tracer.wrap_build, lambda gate, theta: None, (None, 0.3)),
    }
    costs = {}
    for name, (wrap, noop, args) in cases.items():
        wrapped = wrap(noop)
        samples = []
        for _ in range(batches):
            start = _now()
            for _ in range(calls):
                noop(*args)
            bare = _now() - start
            recorded = sum(acc[1] for acc in tracer.leaves.values())
            start = _now()
            for _ in range(calls):
                wrapped(*args)
            traced = _now() - start
            recorded = sum(acc[1] for acc in tracer.leaves.values()) - recorded
            samples.append((traced - recorded - bare) / calls)
        costs[f"tracer.{name}"] = sorted(samples)[batches // 2]
    tracer.end_op()
    return costs


def layer_metrics(tracer: Tracer, ops: list[dict],
                  units: dict[str, float]) -> tuple[dict, dict[str, float]]:
    """Every per-layer metric, as (value, unit), and the raw figures behind
    ``metric.self.s``.

    statevector, gates, metric and cli figures are per tensor request, except
    ``statevector.apply_pauli.*``, which is per standalone ``energy_gradient``
    call: a tensor request applies no Pauli string.  ansatz and optimizer
    figures are per natural-gradient step.
    """
    done = [op for op in ops if "error" not in op]
    requests = sum(op["kind"] == "tensor" for op in done) or 1
    gradients = sum(op["kind"] == "gradient" for op in done) or 1
    steps = sum(op["records"][-1][0] for op in done if op["kind"] == "qng") or 1

    metrics: dict[str, tuple[float, str]] = {}
    total_bytes = total_seconds = 0.0
    for prim in PRIMITIVES:
        kind, per = ("gradient", gradients) if prim == "apply_pauli" else ("tensor", requests)
        seconds = tracer.leaf_total(kind, prim, 1)
        if kind == "tensor":
            total_bytes += tracer.leaf_total(kind, prim, 2)
            total_seconds += seconds
        metrics[f"statevector.{prim}.calls"] = (tracer.leaf_total(kind, prim, 0) / per, "count")
        metrics[f"statevector.{prim}.s"] = (seconds / per, "s")
    metrics["statevector.bytes"] = (total_bytes / requests, "B")
    metrics["statevector.gbps"] = (total_bytes / total_seconds / 1e9 if total_seconds else 0.0,
                                   "GB/s")
    metrics["statevector.peak_registers"] = (
        max(op.get("peak_registers", 0) for op in done if op["kind"] == "tensor"), "count")
    metrics["gates.build.calls"] = (tracer.leaf_total("tensor", "build", 0) / requests, "count")
    metrics["gates.build.s"] = (tracer.leaf_total("tensor", "build", 1) / requests, "s")

    tensor_s = tracer.frame_total("tensor", "metric.tensor")
    predicted = sum(tracer.leaf_total("tensor", prim, 0, span="metric.tensor") * units[prim]
                    for prim in PRIMITIVES)
    # the wrappers' own cost lands in the self time of the span they run in
    raw_self = tracer.frame_total("tensor", "metric.tensor", 2) / requests
    tracer_cost = sum(acc[0] * units[f"tracer.{_WRAPPER_OF[leaf]}"]
                      for (kind, span, leaf), acc in tracer.leaves.items()
                      if kind == "tensor" and span == "metric.tensor") / requests
    metrics["metric.tensor.s"] = (tensor_s / requests, "s")
    metrics["metric.self.s"] = (raw_self - tracer_cost, "s")
    metrics["metric.write_csv.s"] = (tracer.frame_total("tensor", "metric.write_csv") / requests,
                                     "s")
    metrics["metric.reconciled"] = (predicted / tensor_s if tensor_s else 0.0, "ratio")
    metrics["cli.parse.s"] = (tracer.frame_total("tensor", "cli.parse") / requests, "s")
    metrics["cli.other.s"] = (tracer.frame_total("tensor", "cli.main", 2) / requests, "s")
    metrics["ansatz.prepare.calls"] = (tracer.frame_total("qng", "ansatz.prepare", 0) / steps,
                                       "count")
    metrics["optimizer.energy.s"] = (tracer.frame_total("qng", "optimizer.energy") / steps, "s")
    metrics["optimizer.gradient.s"] = (tracer.frame_total("qng", "optimizer.gradient") / steps,
                                       "s")
    metrics["optimizer.tensor.s"] = (tracer.frame_total("qng", "metric.tensor") / steps, "s")
    metrics["optimizer.solve.s"] = (tracer.frame_total("qng", "optimizer.run", 2) / steps, "s")
    metrics["optimizer.gradient.gates"] = (
        tracer.gradient_gates / tracer.gradient_calls if tracer.gradient_calls else 0.0, "count")
    first = next(op for op in ops if op["kind"] == "qng")
    energies = [record[1] for record in first["records"]]
    metrics["optimizer.energy_rises"] = (
        sum(later > earlier for earlier, later in zip(energies, energies[1:])), "count")
    return metrics, {"metric.self.raw_s": raw_self, "metric.self.tracer_s": tracer_cost}
