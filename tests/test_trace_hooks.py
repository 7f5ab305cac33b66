"""The benchmark tracer's hooks still fit the program.

``perfbench/tracing.py`` patches module-level functions and gate methods by
name and reads each span's ``OpCounter`` by argument position, so a refactor
that moves any of them breaks ``perfbench/run.py --trace 1``.
"""

import inspect
from pathlib import Path

import qngsim.ansatz
import qngsim.metric
import qngsim.optimizer

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
