"""The benchmark tracer's hooks still fit the program.

``perfbench/tracing.py`` patches module-level functions and gate methods by
name and reads each span's ``OpCounter`` by argument position, so a refactor
that moves any of them breaks ``perfbench/run.py --trace 1``.
"""

import inspect
from pathlib import Path

import qngsim.ansatz
import qngsim.cli
import qngsim.metric
import qngsim.optimizer
from qngsim.ansatz import random_circuit, random_parameters
from qngsim.gates import PauliString, PauliSum
from qngsim.metric import COSTATE, costate_tensor_cost, tensor_route
from qngsim.optimizer import OptimizerConfig
from qngsim.statevector import OpCounter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


def test_counter_sits_where_the_tracer_reads_it():
    for function, index in ((qngsim.metric.compute_geometric_tensor, 2),
                            (qngsim.ansatz.prepare_ansatz_state, 2),
                            (qngsim.optimizer.energy_gradient, 3),
                            (qngsim.optimizer.energy_expectation, 3)):
        assert list(inspect.signature(function).parameters)[index] == "counter", function


def test_traced_counts_agree_with_the_counter(monkeypatch):
    # every counted primitive of the tensor routes, the gradient and one
    # natural-gradient step passes through a name the tracer wraps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    counters = []

    class RecordedCounter(OpCounter):
        def __init__(self):
            super().__init__()
            counters.append(self)

    monkeypatch.setattr(qngsim.optimizer, "OpCounter", RecordedCounter)
    circuit = random_circuit(3, 9, 91)
    params = random_parameters(9, 92)
    hamiltonian = PauliSum(((-1.0, PauliString.parse("Z0 Z1")),
                            (0.5, PauliString.parse("X1 Y2")),
                            (0.25, PauliString.parse(""))))
    config = OptimizerConfig(timestep=0.05, max_steps=1, energy_tolerance=1e-300)
    # 9 gates on 2 qubits: P > 2^(N+1), so the rule takes the co-state route
    narrow = random_circuit(2, 9, 95)
    narrow_params = random_parameters(9, 96)
    assert tensor_route(narrow) == COSTATE
    operations = {
        "tensor": lambda counter: qngsim.cli.compute_geometric_tensor(
            circuit, params, counter),
        # the two blocks tensor --algorithm auto takes: B = P and B = 3
        "blocked-9": lambda counter: qngsim.cli.compute_geometric_tensor(
            circuit, params, counter, route=9),
        "blocked-3": lambda counter: qngsim.cli.compute_geometric_tensor(
            circuit, params, counter, route=3),
        "costate": lambda counter: qngsim.cli.compute_geometric_tensor(
            narrow, narrow_params, counter, route=qngsim.cli.tensor_route(narrow)),
        "gradient": lambda counter: qngsim.optimizer.energy_gradient(
            circuit, params, hamiltonian, counter),
        "qng": lambda counter: qngsim.optimizer.run_optimization(
            circuit, params, hamiltonian, config),
        "qng-costate": lambda counter: qngsim.optimizer.run_optimization(
            narrow, narrow_params, PauliSum(hamiltonian.terms[:1]), config),
    }
    tracer = Tracer()
    tracer.install()
    try:
        for kind, operation in operations.items():
            counter = OpCounter()
            tracer.begin_op(kind)
            try:
                operation(counter)
            finally:
                root = tracer.end_op()
            if kind.startswith("qng"):
                (counter,) = counters  # the one run_optimization made
                counters.clear()
            if kind == "costate":
                assert counter.as_tuple() == costate_tensor_cost(9, 2)
            assert counter.as_tuple() != (0, 0, 0), kind
            assert (root.gates, root.clones, root.inners) == counter.as_tuple(), kind
    finally:
        tracer.uninstall()
    assert tracer.mismatches == []


def test_optimizer_points_prepare_through_the_traced_name(monkeypatch):
    # each point's energy and gradient pass prepares psi through the
    # optimizer's module-level prepare_ansatz_state, which the tracer wraps
    # as the ansatz.prepare span
    prepared = []
    original = qngsim.optimizer.prepare_ansatz_state

    def counting(circuit, params, counter):
        prepared.append(params)
        return original(circuit, params, counter)

    monkeypatch.setattr(qngsim.optimizer, "prepare_ansatz_state", counting)
    hamiltonian = PauliSum(((-1.0, PauliString.parse("Z0 Z1")),))
    config = OptimizerConfig(timestep=0.05, max_steps=3, energy_tolerance=1e-300)
    trace = qngsim.optimizer.run_optimization(random_circuit(3, 9, 93),
                                              random_parameters(9, 94), hamiltonian, config)
    assert len(prepared) == len(trace.records) == 4
