"""What a process imports: numpy alone, until a path that needs scipy runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qngsim

SRC = Path(qngsim.__file__).resolve().parents[1]

# Runs in a fresh interpreter and prints, after each stage, the scipy modules
# loaded so far.
SCRIPT = r"""
import json
import sys

import qngsim
import qngsim.cli
import qngsim.optimizer
from qngsim import GeneratedGate, OpCounter, OptimizerConfig, PauliRotation, PauliString
from qngsim import PauliSum, Statevector, apply_operator, energy_gradient, parse_circuit_file
from qngsim import parse_hamiltonian_text, run_optimization


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


circuit_path, hamiltonian_path, tensor_out, trace_out = sys.argv[1:]
stages = {"import": scipy_modules()}
params = [0.3, 0.7, 1.1, -0.4, 2.0, 0.9]
codes = {"tensor": qngsim.cli.main(["tensor", "--circuit", circuit_path, "--params",
                                    ",".join(map(str, params)), "--out", tensor_out])}
circuit = parse_circuit_file(circuit_path)
with open(hamiltonian_path) as handle:
    hamiltonian = parse_hamiltonian_text(handle.read())
energy_gradient(circuit, params, hamiltonian, OpCounter())
stages["tensor_and_gradient"] = scipy_modules()
trace = run_optimization(circuit, params, hamiltonian,
                         OptimizerConfig(timestep=0.05, max_steps=1))
stages["natural_gradient_step"] = scipy_modules()
gate = GeneratedGate(PauliSum(((0.3, PauliString.parse("X0 Y1")),
                               (-0.2, PauliString.single(2, "Z")))))
state = Statevector.zeros(4)
for op in (gate.unitary(0.4), gate.derivative(0.4), gate.unitary(0.4).adjoint()):
    apply_operator(state, op, OpCounter())
stages["gen_gate"] = scipy_modules()
codes["optimize"] = qngsim.cli.main(["optimize", "--circuit", circuit_path, "--hamiltonian",
                                     hamiltonian_path, "--steps", "2", "--seed", "1",
                                     "--out", trace_out])
stages["cli_optimize"] = scipy_modules()
apply_operator(Statevector.zeros(6), PauliRotation(PauliString.single(0, "X")).unitary(0.4),
               OpCounter())
stages["rx_on_six_qubits"] = scipy_modules()
print(json.dumps({"codes": codes, "stages": stages, "steps": len(trace.records) - 1}))
"""


def test_scipy_loads_only_where_it_is_used(tmp_path):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("qubits 4\nrx 0\nry 1\ncrz 0 1\nrz 2\ncrx 2 3\nry 3\n")
    hamiltonian = tmp_path / "hamiltonian.txt"
    hamiltonian.write_text("0.7 Z0 Z1\n-0.3 X2\n1 Y3\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(circuit), str(hamiltonian),
                           str(tmp_path / "g.csv"), str(tmp_path / "trace.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == {"tensor": 0, "optimize": 0}
    assert result["steps"] == 1
    stages = result["stages"]
    # on 4 qubits a tensor request, a gradient with coefficients other than
    # +-1, a natural-gradient step (its metric solve is numpy's), a gen gate
    # (bound from its spectral basis) and `qngsim optimize` run on numpy alone
    for stage in ("import", "tensor_and_gradient", "natural_gradient_step", "gen_gate",
                  "cli_optimize"):
        assert stages[stage] == [], stage
    # an rx on 6 qubits is a BLAS plane rotation
    assert "scipy.linalg.blas" in stages["rx_on_six_qubits"]
