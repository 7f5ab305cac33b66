"""Command-line entry point: tensor computation, benchmarks, optimization, verify.

Commands
--------
``tensor``    compute the geometric tensor of a circuit file at given
              parameters and write it as CSV or a packed binary dump.
              ``--algorithm auto`` (the default) takes the route
              ``qngsim.metric.compute_geometric_tensor`` picks (its
              docstring states the rule); ``main`` (the recurrence,
              ``compute_geometric_tensor_main``) and ``alg2``..``alg8``
              force a route.  Auto prints the chosen route's counts, and
              its CSV differs from main's in the last bits (about 1e-16).
``bench``     sweep parameter counts for selected algorithms, recording
              measured against predicted primitive counts (plot-ready CSV).
``optimize``  natural-gradient (or plain-gradient) minimization of a
              Pauli-sum Hamiltonian file, emitting a per-step trace CSV.
``verify``    run the cross-algorithm, finite-difference, gauge and count
              suites; non-zero exit on any failure.

Exit codes: 0 success, 1 verification/optimization failure or a result that
overflows a float, 2 usage or parse error (a path that is missing, unreadable
or a directory included), 3 resource limit.  Every command runs in one
memory budget, QNG_MEMORY_BUDGET_BYTES (default 4 GiB): the registers live
at once must fit in it, and a circuit whose one register does not (over 28
qubits at the default) is refused up front by the qubit guard.
The circuit and Hamiltonian file formats are described in
:mod:`qngsim.parsing`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import random_circuit, random_parameters
from .baselines import BaselineId, compute_li_tensor, cost_model
from .errors import (
    CoefficientOverflowError,
    ParseError,
    ResourceLimitError,
    SingularMetricError,
    StepOverflowError,
)
from .metric import (
    compute_berry_vector,
    compute_geometric_tensor,
    compute_geometric_tensor_main,
    main_algorithm_cost,
    tensor_matrix,
    write_tensor_binary,
    write_tensor_csv,
)
from .optimizer import (
    NATURAL_GRADIENT,
    PLAIN_GRADIENT,
    OptimizerConfig,
    run_optimization,
)
# _cmd_tensor calls parse_circuit_file by this module's name, which a tracer
# can wrap; parse_circuit_text is re-exported
from .parsing import (
    integer,
    parse_circuit_file,
    parse_circuit_text,
    parse_hamiltonian_file,
    real,
)
from .statevector import DEFAULT_MEMORY_BUDGET_BYTES, OpCounter, track_allocations
from .verify import DEFAULT_SEED, run_checks

__all__ = ["main", "parse_circuit_file", "parse_circuit_text"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

MEMORY_BUDGET_ENV = "QNG_MEMORY_BUDGET_BYTES"

BENCH_SEED_DEFAULT = 1234

def _parse_param_values(text: str, expected: int) -> np.ndarray:
    try:
        values = np.array([real(part) for part in text.split(",")])
    except ValueError:
        raise ParseError(f"could not parse parameter list {text!r}")
    if values.size != expected:
        raise ParseError(f"circuit has {expected} parameters, got {values.size}")
    return values


def _memory_budget() -> int:
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if raw is None:
        return DEFAULT_MEMORY_BUDGET_BYTES
    try:
        budget = integer(raw)
    except ValueError:
        raise ParseError(f"invalid {MEMORY_BUDGET_ENV}={raw!r}")
    if budget < 0:
        raise ParseError(f"{MEMORY_BUDGET_ENV} must be >= 0, got {budget}")
    return budget


def _guard_qubits(num_qubits: int, budget: int) -> None:
    # one register, 2^(N+4) bytes, must fit: N + 4 < budget.bit_length(),
    # which never builds 2^N for a header like "qubits 10**41"
    widest = max(budget.bit_length() - 5, 0)
    if num_qubits > widest:
        raise ResourceLimitError(
            f"{num_qubits} qubits exceeds the guard: a register must fit the "
            f"{budget}-byte budget, so at most {widest} qubits")


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def _cmd_tensor(args: argparse.Namespace, budget: int) -> int:
    circuit = parse_circuit_file(args.circuit)
    _guard_qubits(circuit.num_qubits, budget)
    params = _parse_param_values(args.params, circuit.num_parameters)
    counter = OpCounter()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if args.algorithm == "auto":
            matrix = compute_geometric_tensor(circuit, params, counter).matrix
        elif args.algorithm == "main":
            matrix = compute_geometric_tensor_main(circuit, params, counter).matrix
        else:
            alg = BaselineId(args.algorithm)
            bound = circuit.bind(params)
            li = compute_li_tensor(alg, circuit, bound, counter)
            matrix = tensor_matrix(li, compute_berry_vector(circuit, bound, counter))
    if not np.all(np.isfinite(matrix)):
        raise CoefficientOverflowError("the tensor overflows a float: a gate "
                                       "coefficient is too large; nothing written")
    if args.format == "bin":
        write_tensor_binary(matrix, args.out)
    else:
        write_tensor_csv(matrix, args.out)
    size = circuit.num_parameters
    print(f"wrote {size}x{size} tensor to {args.out} "
          f"(gates={counter.gate_applications}, clones={counter.clones}, "
          f"inner_products={counter.inner_products})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_HEADER = ("alg,P,gates,clones,inner_products,registers_peak,"
                "predicted_gates,predicted_clones,wall_ms,status")


@dataclass
class BenchRow:
    alg: str
    num_parameters: int
    counter: OpCounter | None
    registers_peak: int | None
    predicted_gates: int
    predicted_clones: int
    wall_ms: float | None

    def format_csv(self) -> str:
        predicted = f"{self.predicted_gates},{self.predicted_clones}"
        if self.counter is None:
            return (f"{self.alg},{self.num_parameters},,,,,{predicted},,skipped")
        return (
            f"{self.alg},{self.num_parameters},{self.counter.gate_applications},"
            f"{self.counter.clones},{self.counter.inner_products},"
            f"{self.registers_peak},{predicted},{self.wall_ms:.3f},ok"
        )


def _parse_algorithm_list(spec: str) -> list[str]:
    """Expand tokens like ``alg2..alg8,main`` or ``all`` into algorithm names."""
    ordered = [member.value for member in BaselineId]
    names: list[str] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            raise ParseError(f"--algorithms: empty field in {spec!r}")
        if token == "all":
            names.extend(ordered + ["main"])
        elif token == "main" or token in ordered:
            names.append(token)
        elif ".." in token:
            lo, hi = token.split("..", 1)
            if lo not in ordered or hi not in ordered:
                raise ParseError(f"algorithm range {token!r} must run between two "
                                 f"of {', '.join(ordered)}")
            start, stop = ordered.index(lo), ordered.index(hi)
            if start > stop:
                raise ParseError(f"empty algorithm range {token!r}")
            names.extend(ordered[start:stop + 1])
        else:
            raise ParseError(f"unknown algorithm {token!r} (expected one of "
                             f"{', '.join(ordered)}, main or all)")
    return names


def _bench_point(alg: str, num_parameters: int, num_qubits: int, seed: int) -> BenchRow:
    # The circuit depends only on (seed, P) so all algorithms at one sweep
    # point see identical inputs.
    rng = np.random.default_rng([seed, num_parameters])
    circuit = random_circuit(num_qubits, num_parameters, rng)
    params = random_parameters(num_parameters, rng)
    if alg == "main":
        gates, clones, _ = main_algorithm_cost(num_parameters)
    else:
        model = cost_model(BaselineId.parse(alg), num_parameters)
        gates, clones = model.gates, model.clones
    counter = OpCounter()
    started = time.perf_counter()
    try:
        with track_allocations() as tally:
            if alg == "main":
                compute_geometric_tensor_main(circuit, params, counter)
            else:
                compute_li_tensor(BaselineId.parse(alg), circuit, params, counter)
    except ResourceLimitError:
        return BenchRow(alg, num_parameters, None, None, gates, clones, None)
    wall_ms = (time.perf_counter() - started) * 1e3
    return BenchRow(alg, num_parameters, counter, tally.peak_live("workspace"),
                    gates, clones, wall_ms)


def run_bench(algorithms: list[str], p_values: list[int], num_qubits: int,
              seed: int) -> list[BenchRow]:
    """One row per (algorithm, P), run serially so each ``wall_ms`` times
    that point alone; a point whose registers exceed the active budget is
    skipped."""
    return [_bench_point(alg, p, num_qubits, seed)
            for alg in algorithms for p in p_values]


def _cmd_bench(args: argparse.Namespace, budget: int) -> int:
    _guard_qubits(args.qubits, budget)
    algorithms = _parse_algorithm_list(args.algorithms)
    if args.plist is not None:
        try:  # every field must parse: an empty one is not skipped
            p_values = sorted({integer(field) for field in args.plist.split(",")})
        except ValueError:
            raise ParseError(f"--plist: expected comma-separated integers, "
                             f"got {args.plist!r}") from None
    else:
        if args.pmax < args.pmin:
            raise ParseError("--pmax must be >= --pmin")
        if args.pstep < 1:
            raise ParseError("--pstep must be >= 1")
        p_values = list(range(args.pmin, args.pmax + 1, args.pstep))
    if not p_values or min(p_values) < 1:
        raise ParseError("sweep values must be >= 1")
    rows = run_bench(algorithms, p_values, args.qubits, args.seed)
    lines = [BENCH_HEADER] + [row.format_csv() for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    skipped = sum(1 for row in rows if row.counter is None)
    print(f"wrote {len(rows)} bench rows to {args.out}"
          + (f" ({skipped} skipped over memory budget)" if skipped else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _cmd_optimize(args: argparse.Namespace, budget: int) -> int:
    circuit = parse_circuit_file(args.circuit)
    _guard_qubits(circuit.num_qubits, budget)
    hamiltonian = parse_hamiltonian_file(args.hamiltonian)
    if hamiltonian.max_qubit >= circuit.num_qubits:
        raise ParseError(
            f"hamiltonian touches qubit {hamiltonian.max_qubit}, but the circuit "
            f"has {circuit.num_qubits} qubits"
        )
    if args.params is not None:
        initial = _parse_param_values(args.params, circuit.num_parameters)
    else:
        initial = random_parameters(circuit.num_parameters,
                                    np.random.default_rng(args.seed))
    config = OptimizerConfig(
        timestep=args.dt,
        regularization=args.lam,
        max_steps=args.steps,
        energy_tolerance=args.energy_tol,
        mode=PLAIN_GRADIENT if args.plain else NATURAL_GRADIENT,
    )
    trace = run_optimization(circuit, initial, hamiltonian, config)
    trace.write_csv(args.out)
    print(f"final energy {trace.final_energy:.12g} after "
          f"{trace.records[-1].step} steps; wrote trace to {args.out}")
    energies = trace.energies
    rises = int(np.count_nonzero(np.diff(energies) > 0))
    if rises:  # a diverging run (timestep too large) still exits 0
        lowest = int(np.argmin(energies))
        print(f"warning: the energy rose in {rises} of {len(energies) - 1} steps; "
              f"lowest energy {energies[lowest]:.12g} at step {trace.records[lowest].step}",
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace, budget: int) -> int:
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        raise ParseError(f"--tol must be finite and >= 0, got {args.tol}")
    results = run_checks(seed=args.seed, quick=args.quick,
                         tolerance_override=args.tol)
    for result in results:
        print(result.format_line())
    failed = [result for result in results if not result.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks FAILED")
        return EXIT_FAILURE
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


# argparse's own pattern, ^-\d+$|^-\d*\.\d+$, misses exponents, inf and comma
# lists, so it reads "--tol -1e-3" as two options; no option of this program
# starts with "-" and a digit, ".", "inf" or "nan", so every argument that
# does is a value.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e-3`` and ``-inf`` as values; its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _seed(text: str) -> int:
    """The ``--seed`` type: an integer >= 0, as numpy's generators take."""
    try:
        seed = integer(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qngsim",
        description="Geometric-tensor computation, benchmarks and "
                    "natural-gradient optimization on a statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tensor = sub.add_parser("tensor", help="compute the geometric tensor of a circuit")
    tensor.add_argument("--circuit", required=True, help="circuit file")
    tensor.add_argument("--params", required=True,
                        help="comma-separated parameter values, one per gate")
    tensor.add_argument("--algorithm", default="auto", type=str.lower,
                        choices=["auto", "main"] + [alg.value for alg in BaselineId],
                        help="auto (default): the route "
                             "qngsim.metric.compute_geometric_tensor picks "
                             "from P against 2^N (see its docstring); "
                             "main: the five-register recurrence, (3P^2+P)/2 gates; "
                             "or one of alg2..alg8 (any case)")
    tensor.add_argument("--format", choices=("csv", "bin"), default="csv")
    tensor.add_argument("--out", required=True, help="output path")
    tensor.set_defaults(handler=_cmd_tensor)

    bench = sub.add_parser("bench", help="sweep P, recording measured vs predicted costs")
    bench.add_argument("--algorithms", default="all",
                       help="comma list; ranges like alg2..alg8, plus main or all")
    bench.add_argument("--pmin", type=integer, default=1)
    bench.add_argument("--pmax", type=integer, default=32)
    bench.add_argument("--pstep", type=integer, default=1)
    bench.add_argument("--plist", default=None,
                       help="explicit comma-separated P values (overrides the range)")
    bench.add_argument("--qubits", type=integer, default=4,
                       help="fixed circuit width for every sweep point")
    bench.add_argument("--seed", type=_seed, default=BENCH_SEED_DEFAULT)
    bench.add_argument("--out", required=True)
    bench.set_defaults(handler=_cmd_bench)

    optimize = sub.add_parser("optimize", help="minimize a Pauli-sum Hamiltonian")
    optimize.add_argument("--circuit", required=True)
    optimize.add_argument("--hamiltonian", required=True)
    optimize.add_argument("--dt", type=real, default=0.05, help="update timestep")
    optimize.add_argument("--lambda", dest="lam", type=real, default=1e-8,
                          help="Tikhonov shift added to the metric")
    optimize.add_argument("--steps", type=integer, default=500, help="maximum steps")
    optimize.add_argument("--energy-tol", type=real, default=1e-10,
                          help="stop when the energy change drops below this")
    optimize.add_argument("--params", default=None,
                          help="initial parameters (default: seeded uniform)")
    optimize.add_argument("--seed", type=_seed, default=BENCH_SEED_DEFAULT)
    optimize.add_argument("--plain", action="store_true",
                          help="plain gradient descent instead of natural gradient")
    optimize.add_argument("--out", required=True)
    optimize.set_defaults(handler=_cmd_optimize)

    verify = sub.add_parser("verify", help="run the consistency suites")
    verify.add_argument("--quick", action="store_true",
                        help="reduced suite, finishes in a few seconds")
    verify.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    verify.add_argument("--tol", type=real, default=None,
                        help="override every comparison tolerance (finite, >= 0)")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        budget = _memory_budget()
        with track_allocations(budget_bytes=budget):
            return args.handler(args, budget)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (CoefficientOverflowError, SingularMetricError, StepOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
