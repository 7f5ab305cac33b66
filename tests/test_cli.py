"""CLI: file formats, commands, exit codes, determinism."""

import numpy as np
import pytest

import qngsim.cli
from qngsim.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    parse_circuit_text,
)
from qngsim.errors import ParseError
from qngsim.gates import ControlledPauliRotation, GeneratedGate, PauliRotation
from qngsim.metric import (
    blocked_tensor_cost,
    compute_geometric_tensor_blocked,
    compute_geometric_tensor_main,
    costate_tensor_cost,
    main_algorithm_cost,
    read_tensor_binary,
)
from qngsim.parsing import integer
from qngsim.statevector import OpCounter


# ---------------------------------------------------------------------------
# Circuit parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_circuit():
    circuit = parse_circuit_text("qubits 1\nrx 0\n")
    assert circuit.num_qubits == 1
    assert circuit.num_parameters == 1
    gate = circuit.gates[0]
    assert isinstance(gate, PauliRotation)
    assert gate.axis.factors == ((0, "X"),)
    assert gate.scale == 0.5


def test_parse_composed_circuit():
    circuit = parse_circuit_text("qubits 2\nrx 0\ncrz 0 1\n")
    assert circuit.num_parameters == 2
    controlled = circuit.gates[1]
    assert isinstance(controlled, ControlledPauliRotation)
    assert controlled.control == 0
    assert controlled.axis.factors == ((1, "Z"),)


def test_parse_comments_and_blank_lines():
    circuit = parse_circuit_text("# a comment\n\nqubits 2\nry 1  # inline\n\nrz 0\n")
    assert circuit.num_parameters == 2


def test_parse_phased_and_generated_gates():
    circuit = parse_circuit_text(
        "qubits 2\nprx 0 0.7\ngen 0.5 X0 ; 0.25 Z0 Z1\n"
    )
    phased, generated = circuit.gates
    assert isinstance(phased, PauliRotation)
    assert phased.phase_rate == 0.7
    assert isinstance(generated, GeneratedGate)
    assert len(generated.generator.terms) == 2
    for line in ("prx 0 nan", "prz 1 -inf", "gen inf X0", "gen 0.5 X0 ; nan Z1"):
        with pytest.raises(ParseError, match=":3:.*finite"):
            parse_circuit_text(f"qubits 2\nrx 0\n{line}\n")
    for line in ("gen 0.5 X0 ;", "gen ; 0.5 X0", "gen 0.5", "gen abc X0", "gen"):
        with pytest.raises(ParseError, match=":3:"):
            parse_circuit_text(f"qubits 2\nrx 0\n{line}\n")


def test_parse_qubit_out_of_range():
    with pytest.raises(ParseError, match=":2:"):
        parse_circuit_text("qubits 1\nrx 5\n")


def test_parse_unknown_gate():
    with pytest.raises(ParseError, match="unknown gate"):
        parse_circuit_text("qubits 1\nhadamard 0\n")


def test_parse_control_equals_target():
    with pytest.raises(ParseError, match="differ"):
        parse_circuit_text("qubits 2\ncrx 1 1\n")


def test_parse_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_circuit_text("rx 0\n")


def test_parse_empty_circuit():
    with pytest.raises(ParseError, match="no gates"):
        parse_circuit_text("qubits 3\n")


def test_parse_generated_gate_too_wide():
    with pytest.raises(ParseError, match="small-matrix"):
        parse_circuit_text("qubits 4\ngen 0.1 X0 X1 X2 X3\n")


@pytest.mark.parametrize("text, where", [
    ("qubits ²\nrx 0\n", ":1: expected header"),     # superscript two
    ("qubits ٣\nrx 0\n", ":1: expected header"),     # Arabic-Indic three
    ("qubits 2\nrx ²\n", ":2: target must be a qubit index"),
    ("qubits 4\ncrz 0 ٣\n", ":2: target must be a qubit index"),
    ("qubits 2\ngen 0.5 X²\n", ":2: cannot parse Pauli factor"),
    ("qubits 2\nrx 0\nprz 1 ٠.٧\n", ":3: phase rate must be a number"),  # Arabic-Indic 0.7
    ("qubits 2\ngen ٠.٥ X0\n", ":2: expected a coefficient"),
    ("qubits 2\ngen 0.5 X0 ; 1_0 Z1\n", ":2: expected a coefficient"),
])
def test_parse_accepts_ascii_digits_only(text, where):
    # str.isdigit holds for these characters, and int() rejects the first
    # or reads the second as a digit; float() reads Arabic-Indic digits and 1_0
    with pytest.raises(ParseError, match=where):
        parse_circuit_text(text, source="c.txt")


def test_tensor_command_names_the_line_of_a_non_ascii_header(tmp_path, capsys):
    path = tmp_path / "circuit.txt"
    path.write_text("qubits ²\nrx 0\n", encoding="utf-8")
    code = main(["tensor", "--circuit", str(path), "--params", "0.1",
                 "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_USAGE
    assert f"{path}:1: expected header 'qubits N'" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


# ---------------------------------------------------------------------------
# tensor command
# ---------------------------------------------------------------------------


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text("qubits 2\nrx 0\ncrz 0 1\nrz 1\n")
    return path


@pytest.fixture
def stored_circuit_file(tmp_path):
    # 2 qubits and 5 gates: (P + 1) * 2^N = 24 <= P^2 = 25, so auto takes B = P
    path = tmp_path / "stored.txt"
    path.write_text("qubits 2\nrx 0\nry 1\ncrz 0 1\nrx 1\nrz 0\n")
    return path


STORED_PARAMS = "0.3,0.7,1.1,-0.4,2.2"


@pytest.fixture
def hamiltonian_file(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z0 Z1\n0.5 X0\n0.5 X1\n")
    return path


def test_tensor_command_writes_csv(circuit_file, tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["tensor", "--circuit", str(circuit_file),
                 "--params", "0.3,0.7,1.1", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    # auto takes the blocked route with B = P = 3 here, whose G_00 rounds to
    # 0.25 - 2.8e-17; the CSV holds its bits exactly
    circuit = parse_circuit_text(circuit_file.read_text())
    g00 = compute_geometric_tensor_blocked(circuit, [0.3, 0.7, 1.1], OpCounter(), 3).matrix[0, 0]
    assert lines[1] == "0,0,%.17g,%.17g" % (g00.real, g00.imag)
    assert g00 == pytest.approx(0.25, rel=0, abs=1e-15)
    assert len(lines) == 1 + 9
    assert "3x3 tensor" in capsys.readouterr().out


def test_tensor_command_binary_round_trip(circuit_file, tmp_path):
    csv_out = tmp_path / "g.csv"
    bin_out = tmp_path / "g.bin"
    assert main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--out", str(csv_out)]) == EXIT_OK
    assert main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--format", "bin", "--out", str(bin_out)]) == EXIT_OK
    matrix = read_tensor_binary(bin_out)
    assert matrix.shape == (3, 3)
    assert matrix[0, 0] == pytest.approx(0.25)


def test_tensor_command_baseline_algorithm_agrees(circuit_file, tmp_path):
    main_out = tmp_path / "main.bin"
    alg_out = tmp_path / "alg4.bin"
    args = ["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
            "--format", "bin"]
    assert main(args + ["--out", str(main_out)]) == EXIT_OK
    assert main(args + ["--algorithm", "alg4", "--out", str(alg_out)]) == EXIT_OK
    np.testing.assert_allclose(read_tensor_binary(alg_out),
                               read_tensor_binary(main_out), atol=1e-10)


def _printed_counts(out: str) -> tuple[int, ...]:
    # the last parenthesised group: "(gates=G, clones=C, inner_products=I)"
    return tuple(int(part.split("=")[1])
                 for part in out.rsplit("(", 1)[1].rstrip(")\n").split(", "))


def test_tensor_default_route_follows_the_rule(circuit_file, stored_circuit_file, tmp_path,
                                               capsys):
    # auto (the default) takes B = P on the 5-gate circuit; where its P + 1
    # registers do not fit it takes B = 3, all of the 3-gate circuit (16 > 9)
    # and blocks of 3 and 2 on a 3-qubit 5-gate one (48 > 25); main is forced
    # with --algorithm main
    wide_circuit_file = tmp_path / "wide.txt"
    wide_circuit_file.write_text("qubits 3\nrx 0\nry 1\ncrz 0 1\nrx 2\ncry 2 0\n")
    out = tmp_path / "g.bin"
    common = ["--format", "bin", "--out", str(out)]
    cases = [
        (stored_circuit_file, STORED_PARAMS, [], blocked_tensor_cost(5, 5)),
        (stored_circuit_file, STORED_PARAMS, ["--algorithm", "auto"], blocked_tensor_cost(5, 5)),
        (stored_circuit_file, STORED_PARAMS, ["--algorithm", "main"], main_algorithm_cost(5)),
        (circuit_file, "0.3,0.7,1.1", [], blocked_tensor_cost(3, 3)),
        (wide_circuit_file, STORED_PARAMS, [], blocked_tensor_cost(5, 3)),
        (wide_circuit_file, STORED_PARAMS, ["--algorithm", "main"], main_algorithm_cost(5)),
    ]
    for path, params, extra, expected in cases:
        argv = ["tensor", "--circuit", str(path), "--params", params] + extra + common
        assert main(argv) == EXIT_OK
        assert _printed_counts(capsys.readouterr().out) == expected
        circuit = parse_circuit_text(path.read_text())
        values = [float(v) for v in params.split(",")]
        reference = compute_geometric_tensor_main(circuit, values, OpCounter()).matrix
        np.testing.assert_allclose(read_tensor_binary(out), reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("algorithm", ["auto", "main"] + [f"alg{k}" for k in range(2, 9)])
def test_tensor_builds_each_gate_operator_once(stored_circuit_file, tmp_path, monkeypatch,
                                               algorithm):
    # one binding per request: P unitaries, and P derivatives for the
    # references alg2..alg6 only; main, the blocked route, alg7, alg8 and the
    # Berry vector apply each gate's cached factor D instead
    builds = {"unitary": 0, "derivative": 0}

    def counting(cls, name):
        method = getattr(cls, name)

        def build(gate, theta):
            builds[name] += 1
            return method(gate, theta)
        monkeypatch.setattr(cls, name, build)

    for cls in (PauliRotation, ControlledPauliRotation):
        for name in builds:
            counting(cls, name)
    assert main(["tensor", "--circuit", str(stored_circuit_file), "--params", STORED_PARAMS,
                 "--algorithm", algorithm, "--out", str(tmp_path / "g.csv")]) == EXIT_OK
    assert builds == {"unitary": 5,
                      "derivative": 0 if algorithm in ("auto", "main", "alg7", "alg8") else 5}


@pytest.mark.parametrize("algorithm", ["auto", "main"] + [f"alg{k}" for k in range(2, 9)])
def test_tensor_diagonal_is_real_for_every_algorithm(tmp_path, algorithm):
    # every gate word, crx/cry on the wrap-around pair and non-zero phase rates
    circuit = tmp_path / "all.txt"
    circuit.write_text("qubits 3\nrx 0\nry 1\nrz 2\ncrx 2 0\ncry 0 2\ncrz 1 2\n"
                       "prx 0 0.7\npry 1 -0.4\nprz 2 0.25\ngen 0.5 X0 ; 0.25 Z0 Z1\n")
    params = ",".join(str(0.3 + 0.4 * k) for k in range(10))
    out = tmp_path / "g.bin"
    # auto takes B = P here: 11 * 2^3 <= 10^2
    args = ["tensor", "--circuit", str(circuit), "--params", params, "--format", "bin",
            "--algorithm", algorithm, "--out", str(out)]
    assert main(args) == EXIT_OK
    assert np.all(read_tensor_binary(out).diagonal().imag == 0)


def test_tensor_command_wrong_parameter_count(circuit_file, tmp_path, capsys):
    code = main(["tensor", "--circuit", str(circuit_file), "--params", "0.3",
                 "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_USAGE
    assert "3 parameters" in capsys.readouterr().err


def test_tensor_command_missing_file(tmp_path, capsys):
    code = main(["tensor", "--circuit", str(tmp_path / "nope.txt"),
                 "--params", "0.1", "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("case", ["tensor-out", "tensor-circuit", "optimize-hamiltonian"])
def test_directory_path_is_usage_error(circuit_file, hamiltonian_file, tmp_path, capsys,
                                       case):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out.csv"
    if case == "tensor-out":
        out = folder
        argv = ["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1"]
    elif case == "tensor-circuit":
        argv = ["tensor", "--circuit", str(folder), "--params", "0.3"]
    else:
        argv = ["optimize", "--circuit", str(circuit_file), "--hamiltonian", str(folder),
                "--steps", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == sorted([circuit_file, hamiltonian_file, folder])
    assert not any(folder.iterdir())


def test_tensor_command_qubit_guard(tmp_path, capsys):
    # headers far past the guard reach it too: the circuit's own range checks
    # must not build a 2^N-bit integer first
    big = tmp_path / "big.txt"
    for num_qubits in (29, 2**62, 10**41):
        big.write_text(f"qubits {num_qubits}\nrx 0\n")
        code = main(["tensor", "--circuit", str(big), "--params", "0.1",
                     "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_RESOURCE, num_qubits
        assert "guard" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["tensor"]) == EXIT_USAGE
    assert main(["unknown-command"]) == EXIT_USAGE


def test_tensor_command_rejects_non_finite_phase_rate(tmp_path, capsys):
    circuit = tmp_path / "nan.txt"
    circuit.write_text("qubits 1\nprx 0 nan\n")
    out = tmp_path / "g.csv"
    code = main(["tensor", "--circuit", str(circuit), "--params", "0.3",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert ":2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tensor", "optimize"])
def test_overflowing_weight_sum_is_usage_error(tmp_path, capsys, command):
    # a gen line or a Hamiltonian file whose weights' sizes sum past the
    # largest float: one error line naming the file (and the circuit's line),
    # no output, no numpy warning
    circuit = tmp_path / "c.txt"
    hamiltonian = tmp_path / "h.txt"
    out = tmp_path / "out.csv"
    if command == "tensor":
        circuit.write_text("qubits 1\ngen 1e308 X0 ; 1e308 X0\n")
        argv = ["tensor", "--params", "0.3"]
        where = f"{circuit}:2: "
    else:
        circuit.write_text("qubits 1\nrx 0\n")
        hamiltonian.write_text("1e308 Z0\n1e308 Z0\n")
        argv = ["optimize", "--hamiltonian", str(hamiltonian), "--steps", "0"]
        where = f"{hamiltonian}: "
    code = main(argv + ["--circuit", str(circuit), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {where}the absolute sum of the weights overflows a float\n"
    assert not out.exists()


@pytest.mark.parametrize("algorithm, fmt", [("auto", "csv"), ("main", "bin"), ("alg2", "csv")])
def test_tensor_that_overflows_is_failure_and_writes_nothing(tmp_path, capsys, algorithm, fmt):
    # the generator is finite, but G ~ 1e400 is not: exit 1 before either
    # writer runs
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 1\ngen 1e200 X0\n")
    out = tmp_path / "g.out"
    code = main(["tensor", "--circuit", str(circuit), "--params", "0.3",
                 "--algorithm", algorithm, "--format", fmt, "--out", str(out)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: the tensor overflows a float") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("hamiltonian_text, what", [("1 Z0\n", "gradient at step 0"),
                                                    ("1e-100 Z0\n", "metric")])
def test_optimize_that_overflows_names_the_coefficients(tmp_path, capsys, hamiltonian_text,
                                                        what):
    # exit 1 naming the overflow, not lambda, whose default is already set
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 1\nrx 0\ngen 1e200 X0\n")
    hamiltonian = tmp_path / "h.txt"
    hamiltonian.write_text(hamiltonian_text)
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit), "--hamiltonian", str(hamiltonian),
                 "--steps", "2", "--out", str(out)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert what in err and "overflows a float" in err and "lambda" not in err
    assert not out.exists()


@pytest.mark.parametrize("params", ["inf,0.1,0.2", "0.3,nan,0.2", "0.3,0.7,-inf"])
def test_tensor_command_rejects_non_finite_params(circuit_file, tmp_path, capsys,
                                                  params):
    out = tmp_path / "g.csv"
    code = main(["tensor", "--circuit", str(circuit_file), "--params", params,
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tensor", "optimize"])
@pytest.mark.parametrize("params", ["0.1,,0.2,0.3", "0.3,0.7,1.1,", ",0.3,0.7,1.1",
                                    "٠.٣,١,٢", "0.3,1_0,2"])
def test_empty_parameter_field_is_usage_error(circuit_file, hamiltonian_file, tmp_path,
                                              capsys, command, params):
    # an empty field is not skipped: "0.1,,0.2,0.3" is not 0.1, 0.2, 0.3; nor
    # does a field read as a number unless it is one in ASCII digits
    out = tmp_path / "out.csv"
    argv = {"tensor": ["tensor", "--circuit", str(circuit_file)],
            "optimize": ["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                         str(hamiltonian_file), "--steps", "1"]}[command]
    assert main(argv + ["--params", params, "--out", str(out)]) == EXIT_USAGE
    assert "could not parse parameter list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["AUTO", "Main", "ALG4"])
def test_tensor_algorithm_is_case_insensitive(circuit_file, tmp_path, capsys, algorithm):
    def counts(name):
        assert main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                     "--algorithm", name, "--out", str(tmp_path / "g.csv")]) == EXIT_OK
        return _printed_counts(capsys.readouterr().out)

    assert counts(algorithm) == counts(algorithm.lower())


def test_tensor_unknown_algorithm_names_every_choice(circuit_file, tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--algorithm", "alg9", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    for name in ["auto", "main"] + [f"alg{k}" for k in range(2, 9)]:
        assert f"'{name}'" in err, name
    assert not out.exists()


def test_tensor_looks_up_the_circuit_parser_in_the_cli_module(circuit_file, tmp_path,
                                                            monkeypatch):
    # the parser lives in qngsim.parsing; a tracer that wraps the cli's name
    # still sees every tensor request parse its circuit
    calls = []
    parse = qngsim.cli.parse_circuit_file

    def recorded(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(qngsim.cli, "parse_circuit_file", recorded)
    assert main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--out", str(tmp_path / "g.csv")]) == EXIT_OK
    assert calls == [str(circuit_file)]


def test_memory_error_is_resource_exit(circuit_file, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qngsim.cli.compute_geometric_tensor", exhausted)
    code = main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_RESOURCE
    assert "out of memory" in capsys.readouterr().err


def test_memory_error_on_the_stored_route_is_resource_exit(stored_circuit_file, tmp_path,
                                                           monkeypatch, capsys):
    # the same exit on auto's blocked route, here with B = P
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qngsim.metric.compute_geometric_tensor_blocked", exhausted)
    code = main(["tensor", "--circuit", str(stored_circuit_file), "--params", STORED_PARAMS,
                 "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_RESOURCE
    assert "out of memory" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


# ---------------------------------------------------------------------------
# bench command
# ---------------------------------------------------------------------------


def _strip_wall(text):
    rows = []
    for line in text.splitlines():
        fields = line.split(",")
        del fields[8]
        rows.append(",".join(fields))
    return rows


def test_bench_measured_equals_predicted(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--algorithms", "alg5..alg8,main", "--plist", "4,9",
                 "--out", str(out), "--seed", "7"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("alg,P,gates,clones")
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "ok"
        gates, clones = int(fields[2]), int(fields[3])
        predicted_gates, predicted_clones = int(fields[6]), int(fields[7])
        assert (gates, clones) == (predicted_gates, predicted_clones)


def test_bench_range_and_algorithm_expansion(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--algorithms", "alg2..alg3", "--pmin", "2", "--pmax", "6",
                 "--pstep", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["alg2"] * 3 + ["alg3"] * 3
    assert [line.split(",")[1] for line in lines] == ["2", "4", "6"] * 2
    first = lines[0].split(",")
    assert (int(first[2]), int(first[3])) == (16, 8)  # alg2 at P=2


def test_bench_row_at_p100_matches_reference_totals(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--algorithms", "alg3,alg6,alg8", "--plist", "100",
                 "--out", str(out)])
    assert code == EXIT_OK
    totals = {}
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        totals[fields[0]] = int(fields[2]) + int(fields[3])
        assert (int(fields[2]), int(fields[3])) == (int(fields[6]), int(fields[7]))
    assert totals == {"alg3": 681750, "alg6": 20401, "alg8": 5251}


def test_tensor_csv_byte_identical_across_runs(circuit_file, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1"]
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_bench_deterministic_apart_from_wall_time(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["bench", "--algorithms", "alg6,main", "--plist", "3,5", "--seed", "11"]
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert _strip_wall(first.read_text()) == _strip_wall(second.read_text())


def test_bench_skips_over_memory_budget(tmp_path, monkeypatch):
    # 256-byte 4-qubit registers at P = 6, the input included: alg6's five
    # (1280 bytes) fit, alg7's seven (1792) and alg8's eight (2048) do not
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", "1536")
    out = tmp_path / "bench.csv"
    code = main(["bench", "--algorithms", "alg6,alg7,alg8", "--plist", "6",
                 "--out", str(out)])
    assert code == EXIT_OK  # skipped rows are not fatal
    status = {line.split(",")[0]: line.split(",")[-1]
              for line in out.read_text().splitlines()[1:]}
    assert status == {"alg6": "ok", "alg7": "skipped", "alg8": "skipped"}


def test_negative_memory_budget_is_usage_error(tmp_path, monkeypatch, capsys):
    # int alone reads the Arabic-Indic digit three as 3
    for budget in ("-1", "\u0663"):
        monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", budget)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--algorithms", "alg7", "--plist", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "QNG_MEMORY_BUDGET_BYTES" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--plist", "2,,3"), ("--plist", ""),
                                         ("--plist", ","), ("--plist", "2.5"),
                                         ("--plist", "3,x"), ("--plist", "2,\u0663"),
                                         ("--plist", "1_0"), ("--algorithms", "main,,alg2"),
                                         ("--algorithms", "main,"), ("--algorithms", "")])
def test_bench_list_field_is_usage_error(tmp_path, capsys, flag, value):
    # every comma-separated field must parse: none is skipped, and an empty
    # --plist does not fall back to the --pmin..--pmax range
    out = tmp_path / "bench.csv"
    argv = {"--plist": ["bench", "--algorithms", "main"],
            "--algorithms": ["bench", "--plist", "2"]}[flag]
    assert main(argv + [flag, value, "--out", str(out)]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_zero_qubits(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--qubits", "0", "--plist", "2", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_bench_qubit_guard(tmp_path, capsys):
    code = main(["bench", "--qubits", "29", "--plist", "1", "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_RESOURCE
    assert "at most 28 qubits" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_tensor_over_memory_budget_is_resource_error(circuit_file, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", "64")
    code = main(["tensor", "--circuit", str(circuit_file), "--params", "0.3,0.7,1.1",
                 "--algorithm", "alg7", "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_RESOURCE


def test_memory_budget_guards_every_route(stored_circuit_file, tmp_path, monkeypatch):
    # 64-byte 2-qubit registers, the input included: alg6 holds five, and
    # alg8 and auto's B = P hold P + 2 = 7; a byte less refuses each
    out = tmp_path / "g.csv"
    args = ["tensor", "--circuit", str(stored_circuit_file), "--params", STORED_PARAMS,
            "--out", str(out)]
    for extra, registers in ((["--algorithm", "alg6"], 5), (["--algorithm", "alg8"], 7),
                             ([], 7)):
        monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(64 * registers))
        assert main(args + extra) == EXIT_OK, extra
        out.unlink()
        monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(64 * registers - 1))
        assert main(args + extra) == EXIT_RESOURCE, extra
        assert not out.exists()


def test_budget_binds_the_default_block_route(tmp_path, monkeypatch, capsys):
    # N = 26, P = 24 scaled down: 5 qubits and 24 gates take B = 3, the
    # input and five workspaces of 512 bytes; a budget of four registers
    # refuses it, as 4 GiB refuses six 1 GiB registers at N = 26
    circuit = tmp_path / "h.txt"
    circuit.write_text("qubits 5\n" + "".join(f"ry {k % 5}\n" for k in range(24)))
    out = tmp_path / "g.csv"
    args = ["tensor", "--circuit", str(circuit), "--params", ",".join(["0.1"] * 24),
            "--out", str(out)]
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(6 * 512))
    assert main(args) == EXIT_OK
    assert _printed_counts(capsys.readouterr().out) == blocked_tensor_cost(24, 3)
    out.unlink()
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(4 * 512))
    assert main(args) == EXIT_RESOURCE
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_budget_binds_the_costate_route(tmp_path, monkeypatch, capsys):
    # 2 qubits and P = 9 > 2^(N+1) take the co-state route: 2^N + 2 = 6
    # registers of 64 bytes live at once
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 2\n" + "".join(f"rx {k % 2}\n" for k in range(9)))
    out = tmp_path / "g.csv"
    args = ["tensor", "--circuit", str(circuit), "--params", ",".join(["0.2"] * 9),
            "--out", str(out)]
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(6 * 64))
    assert main(args) == EXIT_OK
    assert _printed_counts(capsys.readouterr().out) == costate_tensor_cost(9, 2)
    out.unlink()
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(5 * 64))
    assert main(args) == EXIT_RESOURCE
    assert not out.exists()


def test_budget_binds_optimize(circuit_file, hamiltonian_file, tmp_path, monkeypatch, capsys):
    # the energy alone takes the prepared state and two Hamiltonian registers
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(2 * 64))
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                 str(hamiltonian_file), "--steps", "2", "--out", str(out)])
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("resource error:")
    assert not out.exists()


def test_register_numpy_cannot_size_is_resource_error(tmp_path, monkeypatch, capsys):
    # a budget of 2^200 bytes passes the guard at 100 qubits, but numpy
    # cannot build an array of 2^100 amplitudes
    monkeypatch.setenv("QNG_MEMORY_BUDGET_BYTES", str(2**200))
    circuit = tmp_path / "wide.txt"
    circuit.write_text("qubits 100\nrx 0\n")
    out = tmp_path / "g.csv"
    code = main(["tensor", "--circuit", str(circuit), "--params", "0.1", "--out", str(out)])
    assert code == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "100-qubit" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bench_rejects_bad_sweep(tmp_path):
    assert main(["bench", "--pmin", "5", "--pmax", "2",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_USAGE
    assert main(["bench", "--algorithms", "alg9",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_USAGE
    # int alone reads Arabic-Indic digits, as --pmin 1 and --qubits 3
    assert main(["bench", "--algorithms", "main", "--pmin", "\u0661", "--pmax", "2",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_USAGE
    assert main(["bench", "--algorithms", "main", "--qubits", "\u0663", "--plist", "2",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_USAGE
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("spec", ["alg9", "alg6,mian", "main..alg8"])
def test_bench_unknown_algorithm_names_main_and_all(tmp_path, capsys, spec):
    out = tmp_path / "b.csv"
    assert main(["bench", "--algorithms", spec, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "alg2" in err and "alg8" in err
    if ".." not in spec:  # a range runs between two baselines only
        assert "main" in err and "all" in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-1"])
def test_bench_rejects_step_below_one(tmp_path, capsys, step):
    out = tmp_path / "b.csv"
    assert main(["bench", "--pmin", "1", "--pmax", "4", "--pstep", step,
                 "--out", str(out)]) == EXIT_USAGE
    assert "--pstep must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# optimize command
# ---------------------------------------------------------------------------


def test_optimize_command_writes_trace(circuit_file, hamiltonian_file, tmp_path,
                                       capsys):
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(hamiltonian_file),
                 "--dt", "0.05", "--lambda", "1e-8", "--steps", "15",
                 "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "step,energy,grad_norm"
    assert len(lines) == 17  # header + initial evaluation + 15 steps
    assert "final energy" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["", "# comments only\n\n"])
def test_optimize_hamiltonian_without_terms_is_usage_error(circuit_file, tmp_path, capsys,
                                                          text):
    hamiltonian = tmp_path / "h.txt"
    hamiltonian.write_text(text)
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                 str(hamiltonian), "--steps", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "hamiltonian has no terms" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_command_with_explicit_params(circuit_file, hamiltonian_file,
                                               tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(hamiltonian_file),
                 "--params", "0.1,0.2,0.3", "--steps", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


def test_optimize_command_rejects_non_finite_params(circuit_file, hamiltonian_file,
                                                    tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(hamiltonian_file),
                 "--params", "nan,0.2,0.3", "--steps", "3", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "parameters must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_command_plain_mode(circuit_file, hamiltonian_file, tmp_path):
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(hamiltonian_file), "--plain",
                 "--steps", "5", "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_OK


def _trace_energies(path):
    return [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]


def test_optimize_command_reports_rising_energy(tmp_path, capsys):
    # a timestep far too large for this 3-qubit circuit makes the energy oscillate
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("qubits 3\nrx 0\nry 1\ncrz 0 1\nrz 2\ncry 1 2\nprx 0 0.7\n"
                       "gen 0.5 X0 ; 0.25 Z1 Z2\nrx 2\n")
    hamiltonian = tmp_path / "h.txt"
    hamiltonian.write_text("1.0 Z0 Z1\n0.5 X1\n-0.7 Y2 Z0\n0.3 X0 X2\n")
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit), "--hamiltonian", str(hamiltonian),
                 "--dt", "50", "--steps", "10", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    energies = _trace_energies(out)
    rises = sum(later > earlier for earlier, later in zip(energies, energies[1:]))
    lowest = int(np.argmin(energies))
    assert rises > 0
    captured = capsys.readouterr()
    assert captured.out.startswith("final energy")
    assert captured.err == (f"warning: the energy rose in {rises} of 10 steps; lowest "
                            f"energy {energies[lowest]:.12g} at step {lowest}\n")


def test_optimize_command_monotone_run_prints_no_warning(circuit_file, hamiltonian_file,
                                                         tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(hamiltonian_file),
                 "--dt", "0.05", "--steps", "15", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    energies = _trace_energies(out)
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))
    assert capsys.readouterr().err == ""


def test_optimize_command_hamiltonian_too_wide(circuit_file, tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("1.0 Z5\n")
    code = main(["optimize", "--circuit", str(circuit_file),
                 "--hamiltonian", str(wide), "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert "qubit 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    import re
    import time

    started = time.perf_counter()
    code = main(["verify", "--quick"])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # each line's name, tolerance and detail, in order; measured numbers vary
    lines = [re.sub(r"(max deviation|moved by >=) \S+", r"\1 *", line)
             for line in out.splitlines()]
    assert lines == [
        "PASS  count_exactness: max deviation * (tolerance 0.000e+00) "
        "[all baselines and main, P = 1..10]",
        "PASS  reference_totals: max deviation * (tolerance 0.000e+00) "
        "[gates+clones at P=100: 681750 / 20401 / 5251]",
        "PASS  baseline_equivalence: max deviation * (tolerance 1.000e-10) [4 circuits, P=6]",
        "PASS  finite_difference: max deviation * (tolerance 1.000e-06) "
        "[3 circuits, central step 1e-5]",
        "PASS  gauge_invariance: max deviation * (tolerance 1.000e-09) "
        "[L and T moved by >= * while G stayed put]",
        "PASS  berry_consistency: max deviation * (tolerance 1.000e-12)",
        "PASS  blocked_count_exactness: max deviation * (tolerance 0.000e+00) "
        "[gates, clones, inner products and registers, P = 1..10, B = 1..P + 1]",
        "PASS  blocked_agreement: max deviation * (tolerance 1.000e-10) "
        "[7 circuits, B = 1..P, G, L and T]",
        "PASS  costate_count_exactness: max deviation * (tolerance 0.000e+00) "
        "[gates, clones, inner products and registers, N = 1..4, P = 1..10]",
        "PASS  costate_agreement: max deviation * (tolerance 1.000e-10) "
        "[11 circuits, G, L and T]",
        "PASS  costate_finite_difference: max deviation * (tolerance 1.000e-06) "
        "[11 circuits, central step 1e-5]",
        "PASS  gradient_count_exactness: max deviation * (tolerance 0.000e+00) "
        "[P = 1..10, T = 0..4]",
        "PASS  gradient_finite_difference: max deviation * (tolerance 1.000e-06) "
        "[2 circuits, 4 terms, central step 1e-5]",
        "all 13 checks passed",
    ]
    assert elapsed < 10.0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_verify_rejects_unusable_tolerance_before_any_check(capsys, tol):
    assert main(["verify", "--quick", f"--tol={tol}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--tol must be finite and >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["\u0661e-3", "1_0"])
def test_verify_tolerance_takes_ascii_digits_only(capsys, tol):
    assert main(["verify", "--quick", "--tol", tol]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"argument --tol: invalid real value: '{tol}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1e-3", "-1E-3", "-2.5e+1", "-inf"])
def test_verify_reads_a_negative_number_as_the_tolerance(capsys, tol):
    # argparse's own pattern reads -1e-3 and -inf as options
    assert main(["verify", "--quick", "--tol", tol]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--tol must be finite and >= 0" in captured.err
    assert "expected one argument" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "-1e-3", "timestep must be positive"),
    ("--lambda", "-1e-9", "regularization must be non-negative"),
    ("--energy-tol", "-1e-12", "energy_tolerance must be positive"),
    ("--params", "-0.3,0.7", "circuit has 3 parameters, got 2"),
    ("--steps", "\u0663", "argument --steps: invalid integer value"),
    ("--dt", "\u0660.\u0660\u0665", "argument --dt: invalid real value"),
    ("--lambda", "\u0661e-9", "argument --lambda: invalid real value"),
    ("--energy-tol", "1_0", "argument --energy-tol: invalid real value"),
])
def test_optimize_reads_a_negative_number_as_a_value(circuit_file, hamiltonian_file, tmp_path,
                                                    capsys, flag, value, message):
    out = tmp_path / "t.csv"
    code = main(["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                 str(hamiltonian_file), flag, value, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "expected one argument" not in err
    assert not out.exists()


def test_params_may_start_with_a_negative_number(circuit_file, hamiltonian_file, tmp_path):
    # argparse's own pattern reads "-0.3,0.7,1.1" as an option
    params = ["--params", "-0.3,0.7,1.1"]
    assert main(["tensor", "--circuit", str(circuit_file), "--out",
                 str(tmp_path / "g.csv")] + params) == EXIT_OK
    assert main(["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                 str(hamiltonian_file), "--steps", "1", "--out",
                 str(tmp_path / "t.csv")] + params) == EXIT_OK


@pytest.mark.parametrize("command", ["verify", "optimize", "bench"])
@pytest.mark.parametrize("seed", ["-3", "1.5", "\u0663"])
def test_seed_below_zero_names_the_flag(circuit_file, hamiltonian_file, tmp_path, capsys,
                                        command, seed):
    argv = {"verify": ["verify", "--quick"],
            "optimize": ["optimize", "--circuit", str(circuit_file), "--hamiltonian",
                         str(hamiltonian_file), "--out", str(tmp_path / "t.csv")],
            "bench": ["bench", "--plist", "2", "--out", str(tmp_path / "b.csv")]}[command]
    assert main(argv + ["--seed", seed]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"argument --seed: must be an integer >= 0, got '{seed}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, value", [("0", 0), ("-12", -12), ("007", 7)])
def test_integer_reads_ascii_digits(text, value):
    assert integer(text) == value


@pytest.mark.parametrize("text", ["\u0663", "1_0", "+3", " 3", "1.0", "--1", "-", ""])
def test_integer_refuses_other_forms(text):
    with pytest.raises(ValueError, match="expected an integer"):
        integer(text)


def test_verify_with_absurd_tolerance_fails(capsys):
    code = main(["verify", "--quick", "--tol", "1e-15"])
    assert code == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "max deviation" in out


def test_optimize_overflowing_step_names_the_timestep(tmp_path, capsys, recwarn):
    # each run fails (exit 1) and says to lower --dt rather than to raise
    # lambda, with no numpy overflow warning: at the default lambda the
    # natural step 4 * -dt * grad(E) overflows; a finite step whose sum with
    # theta overflows, plain and natural; and a plain -dt * grad(E) that
    # overflows (|grad| > 1 under 10 Z0)
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits 2\nrx 0\nry 1\n")
    hamiltonian = tmp_path / "h.txt"
    for coefficient, extra in (("1.0", ["--dt", "1e308"]),
                               ("1.0", ["--plain", "--dt", "1e308", "--seed", "1"]),
                               ("1.0", ["--dt", "5e307", "--seed", "3"]),
                               ("10.0", ["--plain", "--dt", "1e308", "--seed", "1"])):
        hamiltonian.write_text(f"{coefficient} Z0\n")
        code = main(["optimize", "--circuit", str(circuit), "--hamiltonian", str(hamiltonian),
                     "--steps", "20", "--out", str(tmp_path / "t.csv")] + extra)
        assert code == EXIT_FAILURE, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lower the timestep (--dt)" in err, extra
        assert "lambda > 0" not in err and "Traceback" not in err
    assert [str(warning.message) for warning in recwarn] == []
