"""qngsim benchmark: tensor requests, natural-gradient runs and energy gradients.

Run from the repository root:

    python3 perfbench/run.py --workload qgt-wide --seed 1 --seconds 20 --trace 0

``qngsim`` is imported from ``src/`` of the checkout, not from an installed
copy.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary goes to
standard error; a traced run also writes its spans and counters to
``perfbench/out/trace-<workload>-seed<seed>.json``.  See README.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

# One calling thread, one BLAS thread: the run measures the program, not the
# scheduler.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
QNG_TIMESTEP = 0.05   # the CLI's default --dt; the regularization keeps its default 1e-8
SUBPROCESS_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "qngsim" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qngsim'} not found; run from a qngsim checkout")
    sys.path.insert(0, str(SRC))
    import qngsim

    if SRC.resolve() not in Path(qngsim.__file__).resolve().parents:
        sys.exit(f"error: imported qngsim from {qngsim.__file__}, not from {SRC}")
    import qngsim.cli
    import qngsim.optimizer

    return qngsim


class Bench:
    """Program inputs of one run, built through the program's own parsers."""

    def __init__(self, qngsim, workload, seed: int, workdir: Path) -> None:
        from inputs import Inputs

        self.qngsim = qngsim
        self.workload = workload
        self.inputs = Inputs(workload, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.circuit_path = workdir / "circuit.txt"
        self.circuit_path.write_text(self.inputs.circuit)
        self.tensor_path = workdir / "tensor.csv"
        self.circuit = qngsim.cli.parse_circuit_text(self.inputs.circuit)
        self.hamiltonian = qngsim.optimizer.parse_hamiltonian_text(self.inputs.hamiltonian)
        self.config = qngsim.optimizer.OptimizerConfig(timestep=QNG_TIMESTEP,
                                                       max_steps=workload.steps)

    def tensor_request(self, params):
        """One ``qngsim tensor`` request; returns (seconds, exit code, stdout)."""
        from inputs import format_params

        argv = ["tensor", "--circuit", str(self.circuit_path),
                "--params", format_params(params), "--out", str(self.tensor_path)]
        captured = io.StringIO()
        with redirect_stdout(captured):
            start = time.perf_counter()
            code = self.qngsim.cli.main(argv)
            seconds = time.perf_counter() - start
        return seconds, code, captured.getvalue()

    def read_tensor(self):
        import numpy as np

        rows = np.loadtxt(self.tensor_path, delimiter=",", skiprows=1, ndmin=2)
        size = self.circuit.num_parameters
        matrix = np.full((size, size), np.nan, dtype=np.complex128)
        index = rows[:, :2].astype(int)
        matrix[index[:, 0], index[:, 1]] = rows[:, 2] + 1j * rows[:, 3]
        return matrix

    def qng_run(self, start_params):
        begin = time.perf_counter()
        trace = self.qngsim.optimizer.run_optimization(self.circuit, start_params,
                                                       self.hamiltonian, self.config)
        return time.perf_counter() - begin, trace

    def gradient(self, params):
        counter = self.qngsim.OpCounter()
        begin = time.perf_counter()
        grad = self.qngsim.optimizer.energy_gradient(self.circuit, params,
                                                     self.hamiltonian, counter)
        return time.perf_counter() - begin, grad

    def warm_up(self) -> None:
        """The first, untimed request and gradient, which pay for first-touch
        memory and lazily built caches."""
        import numpy as np

        params = np.random.default_rng([self.inputs.seed, 5, 0]).uniform(
            0.0, 2.0 * np.pi, self.workload.num_parameters)
        _, code, _ = self.tensor_request(params)
        if code != 0:
            sys.exit(f"error: warm-up tensor request exited {code}")
        self.gradient(params)


def set_up(workload, seed: int, workdir: Path):
    """Import the package, build the inputs and warm up; returns the bench
    and the seconds since this process started."""
    qngsim = import_program()
    bench = Bench(qngsim, workload, seed, workdir)
    bench.warm_up()
    return bench, time.perf_counter() - _PROCESS_START


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, run one after another."""
    samples = []
    for _ in range(count):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   args.workload, "--seed", str(args.seed), "--seconds", "0",
                   "--setup-only"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_rounds(bench, seconds: float, observe=None) -> list[dict]:
    """Whole rounds of operations until ``seconds`` have passed; every
    operation is recorded with its inputs and outputs for the checks.

    ``observe(op)`` gives a context manager wrapped around each operation;
    the traced run uses it to open the operation's root span.
    """
    import numpy as np
    from inputs import GRADIENTS_PER_ROUND

    workload, inputs = bench.workload, bench.inputs
    observe = observe or (lambda op: nullcontext())
    ops: list[dict] = []

    def attempt(op: dict, call) -> dict:
        try:
            with observe(op):
                call(op)
        except Exception as exc:  # a failing call is a failed operation
            op["error"] = repr(exc)
        ops.append(op)
        return op

    def tensor(op):
        op["seconds"], code, op["stdout"] = bench.tensor_request(op["params"])
        if code != 0:
            raise RuntimeError(f"qngsim tensor exited {code}")
        # kept on disk until the checks, so peak_rss_mib does not grow with
        # the number of requests a run completes
        op["matrix_path"] = bench.workdir / f"tensor-{len(ops)}.npy"
        np.save(op["matrix_path"], bench.read_tensor())

    def qng(op):
        op["seconds"], trace = bench.qng_run(op["start"])
        op["records"] = [(r.step, r.energy, r.parameters) for r in trace.records]

    def gradient(op):
        op["seconds"], op["gradient"] = bench.gradient(op["params"])

    loop_start = time.perf_counter()
    round_index = 0
    while round_index == 0 or time.perf_counter() - loop_start < seconds:
        for params in inputs.request_params(round_index):
            attempt({"kind": "tensor", "round": round_index, "params": params,
                     "rows": inputs.sample(round_index, workload.num_parameters,
                                           workload.tensor_rows)}, tensor)
        start = inputs.start(round_index)
        op = attempt({"kind": "qng", "round": round_index, "start": start,
                      "steps": workload.steps, "records": []}, qng)
        # gradients at the last points the run visited
        points = [record[2] for record in op["records"]] or [start]
        for back in range(GRADIENTS_PER_ROUND):
            attempt({"kind": "gradient", "round": round_index,
                     "params": points[max(len(points) - 1 - back, 0)],
                     "components": inputs.sample(round_index, workload.num_parameters,
                                                 workload.gradient_components)}, gradient)
        round_index += 1
    return ops


def check_all(bench, ops: list[dict]) -> tuple[int, list[str]]:
    """Check every operation; returns (failed operations, self-test misses).

    Runs after peak_rss_mib is read, so the reference simulator's memory is not
    counted against the program."""
    import numpy as np
    from checks import Checker

    checker = Checker(bench.inputs)
    failed = 0
    for op in ops:
        if "error" in op:
            op["problems"] = [op["error"]]
        else:
            if op["kind"] == "tensor":
                op["matrix"] = np.load(op["matrix_path"])
            op["problems"] = getattr(checker, op["kind"])(op)
        if op["problems"]:
            failed += 1
            print(f"FAILED {op['kind']} (round {op['round']}): "
                  + "; ".join(op["problems"]), file=sys.stderr)
    return failed, checker.self_test(ops)


def median_of(ops: list[dict], kind: str, per_step: bool = False) -> float:
    values = [op["seconds"] / (op["records"][-1][0] if per_step else 1)
              for op in ops if op["kind"] == kind and "error" not in op]
    return statistics.median(values)


def end_to_end(ops: list[dict]) -> dict:
    return {
        "tensor_s": (median_of(ops, "tensor"), "s"),
        "qng_step_s": (median_of(ops, "qng", per_step=True), "s"),
        "gradient_s": (median_of(ops, "gradient"), "s"),
    }


def traced_rounds(bench, seconds: float):
    """The traced run: isolated unit costs, then the same rounds with every
    layer boundary timed.  Returns (ops, tracer, unit costs)."""
    from qngsim.statevector import track_allocations
    from tracing import Tracer, unit_costs

    units = unit_costs(bench)
    tracer = Tracer()

    @contextmanager
    def observe(op):
        tracer.begin_op(op["kind"])
        try:
            with track_allocations() as tally:
                yield
        finally:
            root = tracer.end_op()
            op["traced_counts"] = (root.gates, root.clones, root.inners)
            op["peak_registers"] = tally.peak_live()

    tracer.install()
    try:
        ops = run_rounds(bench, seconds, observe)
    finally:
        tracer.uninstall()
    for op in ops:
        # the CLI reports its own OpCounter: "(gates=G, clones=C, inner_products=I)"
        if op["kind"] == "tensor" and "error" not in op:
            reported = tuple(int(part.split("=")[1]) for part in
                             op["stdout"].rsplit("(", 1)[1].rstrip(")\n").split(", "))
            if reported != op["traced_counts"]:
                tracer.mismatches.append(
                    f"request {op['round']}: OpCounter {reported}, traced {op['traced_counts']}")
    return ops, tracer, units


def main(argv=None) -> int:
    args = parse_args(argv)
    from inputs import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        bench, setup_s = set_up(workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            ops, tracer, units = traced_rounds(bench, args.seconds)
        else:
            setups = [setup_s] + setup_samples(args, workload.setup_samples - 1)
            ops = run_rounds(bench, args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = check_all(bench, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from tracing import layer_metrics

        metrics, raw = layer_metrics(tracer, ops, units)
        problems += [f"trace disagrees with the program: {m}" for m in tracer.mismatches]
        report = {"workload": args.workload, "seed": args.seed, "unit_costs_s": units,
                  "raw_per_request": raw,
                  "traced_end_to_end": {k: v for k, (v, _) in end_to_end(ops).items()},
                  "metrics": {k: v for k, (v, _) in metrics.items()}, **tracer.as_json()}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"), **end_to_end(ops),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}

    counts = {kind: sum(op["kind"] == kind for op in ops) for kind in ("tensor", "qng", "gradient")}
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(ops)} operations {counts}, "
          f"{failed} failed, {len(problems)} problems", file=sys.stderr)
    if not args.trace:
        print(f"  set-up samples {setups}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    if args.trace:
        print(f"  ({raw['metric.self.raw_s']:.6g} s of metric self time per request, "
              f"of which the tracer's wrappers {raw['metric.self.tracer_s']:.6g} s)",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
