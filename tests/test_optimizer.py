"""Energies, adjoint-pass gradients, regularized metric solves, update loop."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qngsim.ansatz import AnsatzCircuit, random_circuit, random_layered_circuit, random_parameters
from qngsim.errors import (
    CoefficientOverflowError,
    ParseError,
    SingularMetricError,
    StepOverflowError,
)
from qngsim.gates import (
    ControlledPauliRotation,
    GeneratedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)
from qngsim.metric import (
    blocked_tensor_cost,
    compute_geometric_tensor,
    compute_geometric_tensor_main,
    costate_tensor_cost,
)
from qngsim.optimizer import (
    NATURAL_GRADIENT,
    PLAIN_GRADIENT,
    OptimizerConfig,
    _energy_and_gradient,
    _solve_metric_system,
    energy_expectation,
    energy_gradient,
    gradient_cost,
    parse_hamiltonian_text,
    run_optimization,
)
from qngsim.statevector import OpCounter, track_allocations
from qngsim.verify import finite_difference_gradient

from circuit_strategies import circuit_cases


def rx_circuit():
    return AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X")),))


def z_hamiltonian():
    return PauliSum(((1.0, PauliString.single(0, "Z")),))


def ising_pair():
    """Z x Z plus transverse fields on both qubits."""
    return PauliSum((
        (1.0, PauliString.parse("Z0 Z1")),
        (0.5, PauliString.single(0, "X")),
        (0.5, PauliString.single(1, "X")),
    ))


def ising_pair_ground_energy():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    dense = np.kron(z, z) + 0.5 * np.kron(eye, x) + 0.5 * np.kron(x, eye)
    return float(np.linalg.eigvalsh(dense).min())


# ---------------------------------------------------------------------------
# Hamiltonian parsing
# ---------------------------------------------------------------------------


def test_parse_hamiltonian_basic():
    h = parse_hamiltonian_text("1.0 Z0 Z1\n0.5 X0\n# comment\n\n0.5 X1\n")
    assert len(h.terms) == 3
    assert h.terms[0][0] == 1.0
    assert str(h.terms[0][1]) == "Z0 Z1"
    assert h.max_qubit == 1


def test_parse_hamiltonian_identity_term():
    h = parse_hamiltonian_text("2.5\n")
    assert h.terms[0][1].is_identity


def test_parse_hamiltonian_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=":2:"):
        parse_hamiltonian_text("1.0 Z0\nbogus Z1\n")
    with pytest.raises(ParseError, match=":1:"):
        parse_hamiltonian_text("0.5 Q3\n")
    for bad in ("nan Z0", "inf", "-inf X1"):
        with pytest.raises(ParseError, match=":2:.*finite"):
            parse_hamiltonian_text(f"1.0 Z0\n{bad}\n")
    for bad in ("\u0660.\u0665 Z0", "1_0 X1"):  # float() reads both
        with pytest.raises(ParseError, match=":2: expected a coefficient"):
            parse_hamiltonian_text(f"1.0 Z0\n{bad}\n")


def test_parse_hamiltonian_rejects_an_overflowing_weight_sum():
    # each line is finite; the file as a whole is not
    with pytest.raises(ParseError, match="^h.txt: the absolute sum of the weights overflows"):
        parse_hamiltonian_text("1e308 Z0\n1e308 Z0\n", source="h.txt")


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  # another\n"])
def test_parse_hamiltonian_without_terms_is_error(text):
    with pytest.raises(ParseError, match="h.txt: hamiltonian has no terms"):
        parse_hamiltonian_text(text, source="h.txt")


# ---------------------------------------------------------------------------
# Energy expectation
# ---------------------------------------------------------------------------


def test_energy_of_z_on_zero_state():
    assert energy_expectation(rx_circuit(), [0.0], z_hamiltonian(), OpCounter()) \
        == pytest.approx(1.0)


def test_energy_of_z_after_full_x_rotation():
    # RX(pi)|0> = i|1>, a Z eigenstate with eigenvalue -1
    assert energy_expectation(rx_circuit(), [np.pi], z_hamiltonian(), OpCounter()) \
        == pytest.approx(-1.0, abs=1e-12)


def test_energy_of_x_on_zero_state():
    h = PauliSum(((1.0, PauliString.single(0, "X")),))
    assert energy_expectation(rx_circuit(), [0.0], h, OpCounter()) \
        == pytest.approx(0.0, abs=1e-15)


def test_energy_is_cosine_of_parameter():
    for theta in (0.3, 1.2, 2.9):
        assert energy_expectation(rx_circuit(), [theta], z_hamiltonian(), OpCounter()) \
            == pytest.approx(np.cos(theta), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_energy_real_on_random_inputs(seed):
    rng = np.random.default_rng([70, seed])
    circuit = random_circuit(4, 8, rng)
    params = random_parameters(8, rng)
    h = PauliSum((
        (0.8, PauliString.parse("Z0 Z2")),
        (-0.3, PauliString.parse("Y1 X3")),
        (0.1, PauliString.parse("")),
    ))
    # energy_expectation returns the real part by contract; check the raw sum
    from qngsim.ansatz import prepare_ansatz_state
    from qngsim.statevector import Statevector, clone_into, inner_product, apply_operator

    psi = prepare_ansatz_state(circuit, params, OpCounter())
    work = Statevector.zeros(4)
    total = 0j
    for coeff, op in h.term_operators:
        clone_into(psi, work, OpCounter())
        apply_operator(work, op, OpCounter())
        total += coeff * inner_product(psi, work, OpCounter())
    assert abs(total.imag) <= 1e-10


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


def test_gradient_zero_at_stationary_point():
    grad = energy_gradient(rx_circuit(), [0.0], z_hamiltonian(), OpCounter())
    np.testing.assert_allclose(grad, [0.0], atol=1e-14)


def test_gradient_is_minus_sine():
    grad = energy_gradient(rx_circuit(), [np.pi / 2], z_hamiltonian(), OpCounter())
    np.testing.assert_allclose(grad, [-1.0], atol=1e-12)


def test_gradient_of_constant_hamiltonian_is_zero():
    empty = PauliSum(())
    grad = energy_gradient(random_circuit(2, 5, 71), random_parameters(5, 72),
                           empty, OpCounter())
    np.testing.assert_array_equal(grad, np.zeros(5))
    identity_only = PauliSum(((2.0, PauliString.parse("")),))
    grad = energy_gradient(random_circuit(2, 5, 71), random_parameters(5, 72),
                           identity_only, OpCounter())
    np.testing.assert_allclose(grad, np.zeros(5), atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_central_differences(seed):
    rng = np.random.default_rng([73, seed])
    circuit = random_circuit(4, 8, rng)
    params = random_parameters(8, rng)
    h = PauliSum((
        (0.7, PauliString.parse("Z0 Z1")),
        (0.3, PauliString.single(2, "X")),
        (-0.4, PauliString.parse("Y3 X0")),
    ))
    grad = energy_gradient(circuit, params, h, OpCounter())
    np.testing.assert_allclose(grad, finite_difference_gradient(circuit, params, h),
                               atol=1e-6)


@st.composite
def gradient_cases(draw):
    """A circuit mixing every gate kind on 3-7 qubits (crx/cry on the
    wrap-around pair take the moveaxis kernel from N = 6) and a Hamiltonian
    with X, Y, Z and identity terms."""
    circuit, params = draw(circuit_cases(3, 7, 8))
    last = circuit.num_qubits - 1
    factor = st.tuples(st.integers(0, last), st.sampled_from("XYZ"))
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0),
                                    st.lists(factor, max_size=3, unique_by=lambda f: f[0])),
                          max_size=4))
    hamiltonian = PauliSum(tuple((coeff, PauliString(tuple(factors)))
                                            for coeff, factors in terms))
    return circuit, params, hamiltonian


@settings(max_examples=40, deadline=None)
@given(gradient_cases())
def test_gradient_and_energy_of_one_pass_match_oracles(case):
    circuit, params, hamiltonian = case
    energy, grad = _energy_and_gradient(circuit.bind(params), hamiltonian, OpCounter())
    np.testing.assert_allclose(grad, finite_difference_gradient(circuit, params, hamiltonian),
                               rtol=0, atol=1e-6)
    expected = energy_expectation(circuit, params, hamiltonian, OpCounter())
    assert abs(energy - expected) <= 1e-12


def test_gradient_counts_equal_cost_model():
    # every count exactly, also for an empty Hamiltonian and an identity term
    assert gradient_cost(128, 8) == (518, 136, 129, 8)
    hamiltonians = (
        PauliSum(()),
        PauliSum(((2.0, PauliString.parse("")),)),
        PauliSum(((0.5, PauliString.single(0, "Z")),)),
        PauliSum((
            (0.5, PauliString.parse("Z0 Z1")),
            (-1.0, PauliString.parse("")),
            (0.3, PauliString.parse("X2 Y0")),
        )),
    )
    for num_parameters in (1, 6, 11):
        circuit = random_circuit(3, num_parameters, 74)
        params = random_parameters(num_parameters, 75)
        for h in hamiltonians:
            counter = OpCounter()
            energy_gradient(circuit, params, h, counter)
            assert counter.as_tuple() + (counter.axpys,) == \
                gradient_cost(num_parameters, len(h.terms))
    with pytest.raises(ValueError):
        gradient_cost(0, 1)
    with pytest.raises(ValueError):
        gradient_cost(1, -1)


def test_gradient_peaks_at_three_registers():
    # psi ("state") plus lambda and work ("workspace"), whatever P and T
    rng = np.random.default_rng(76)
    for num_parameters in range(1, 13):
        circuit = random_circuit(2, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        for num_terms in range(5):
            h = PauliSum(tuple((0.5, PauliString.single(t % 2, "XYZ"[t % 3]))
                               for t in range(num_terms)))
            with track_allocations() as tally:
                energy_gradient(circuit, params, h, OpCounter())
            assert (tally.peak_live(), tally.peak_live("state"),
                    tally.peak_live("workspace")) == (3, 1, 2)


def _recorded_run(monkeypatch, circuit, steps):
    """Run ``steps`` natural-gradient steps; returns the run's one counter."""
    counters = []

    class RecordingCounter(OpCounter):
        __slots__ = ()

        def __init__(self) -> None:
            super().__init__()
            counters.append(self)

    monkeypatch.setattr("qngsim.optimizer.OpCounter", RecordingCounter)
    config = OptimizerConfig(timestep=0.05, max_steps=steps, energy_tolerance=1e-300)
    params = random_parameters(circuit.num_parameters, 80)
    trace = run_optimization(circuit, params, ising_pair(), config)
    assert len(trace.records) == steps + 1
    (counter,) = counters
    return counter


def _tensor_cost(circuit):
    # what one tensor of the route the optimizer's entry picks costs
    counter = OpCounter()
    compute_geometric_tensor(circuit, random_parameters(circuit.num_parameters, 0), counter)
    return counter.as_tuple()


def test_natural_gradient_run_prepares_once_per_point(monkeypatch):
    # k steps evaluate k + 1 points, one energy-and-gradient pass each, and
    # k tensors; nothing else applies a gate or clones a state.  At (N, P) =
    # (3, 9) the tensor takes the blocked route with B = P.
    steps = 3
    circuit = random_circuit(3, 9, 79)
    assert _tensor_cost(circuit) == blocked_tensor_cost(9, 9)
    tensor_gates, tensor_clones, tensor_inners = blocked_tensor_cost(9, 9)
    counter = _recorded_run(monkeypatch, circuit, steps)
    gates, clones, inners, axpys = gradient_cost(9, len(ising_pair().terms))
    assert counter.gate_applications == (steps + 1) * gates + steps * tensor_gates
    assert counter.clones == (steps + 1) * clones + steps * tensor_clones
    assert counter.inner_products == (steps + 1) * inners + steps * tensor_inners
    assert counter.axpys == (steps + 1) * axpys


@pytest.mark.parametrize("num_parameters, stored", [(8, False), (9, True)])
def test_optimizer_tensor_follows_the_route_rule(monkeypatch, num_parameters, stored):
    # on 3 qubits P > 2^N first holds at P = 9: one circuit on each side of
    # the rule, and each step pays exactly its block's tensor
    steps = 2
    circuit = random_circuit(3, num_parameters, 81)
    expected = blocked_tensor_cost(num_parameters, num_parameters if stored else 3)
    assert _tensor_cost(circuit) == expected
    counter = _recorded_run(monkeypatch, circuit, steps)
    passes = np.array(gradient_cost(num_parameters, len(ising_pair().terms))[:3])
    per_step = (np.array(counter.as_tuple()) - (steps + 1) * passes) / steps
    assert tuple(per_step) == expected


def test_optimizer_tensor_takes_the_costate_route(monkeypatch):
    # on 3 qubits P = 17 > 2^(N+1) = 16: each step pays exactly the co-state
    # route's tensor
    steps = 2
    circuit = random_circuit(3, 17, 81)
    assert _tensor_cost(circuit) == costate_tensor_cost(17, 3)
    counter = _recorded_run(monkeypatch, circuit, steps)
    passes = np.array(gradient_cost(17, len(ising_pair().terms))[:3])
    per_step = (np.array(counter.as_tuple()) - (steps + 1) * passes) / steps
    assert tuple(per_step) == costate_tensor_cost(17, 3)


@pytest.mark.parametrize("mode", [NATURAL_GRADIENT, PLAIN_GRADIENT])
def test_run_builds_each_gate_operator_once_per_point(monkeypatch, mode):
    # the energy, the gradient and the tensor share one binding per point; the
    # circuit takes the blocked route, so nothing applies a per-theta dU
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
    circuit = random_circuit(3, 9, 79)
    config = OptimizerConfig(timestep=0.05, max_steps=3, energy_tolerance=1e-300, mode=mode)
    trace = run_optimization(circuit, random_parameters(9, 80), ising_pair(), config)
    points = len(trace.records)
    assert points == 4
    assert builds == {"unitary": 9 * points, "derivative": 0}


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------


def test_natural_step_solves_quarter_metric():
    # g = [[1/4]], grad = [-1], dt = 0.1  =>  dtheta = +0.4
    config = OptimizerConfig(timestep=0.1, regularization=0.0, max_steps=1)
    trace = run_optimization(rx_circuit(), [np.pi / 2], z_hamiltonian(), config)
    np.testing.assert_allclose(trace.final_parameters - np.pi / 2, [0.4], atol=1e-10)
    assert trace.records[0].energy == pytest.approx(0.0, abs=1e-12)
    assert trace.records[0].gradient_norm == pytest.approx(1.0, abs=1e-10)


def test_step_is_zero_at_stationary_point():
    config = OptimizerConfig(timestep=0.1, regularization=0.0, max_steps=1)
    trace = run_optimization(rx_circuit(), [0.0], z_hamiltonian(), config)
    np.testing.assert_allclose(trace.final_parameters, [0.0], atol=1e-12)


def test_singular_metric_without_regularization_raises():
    # a zero-scale rotation never moves the state, so G = [[0]]
    circuit = AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X"), scale=0.0),))
    config = OptimizerConfig(timestep=0.1, regularization=0.0, max_steps=1)
    with pytest.raises(SingularMetricError, match="lambda"):
        run_optimization(circuit, [0.2], z_hamiltonian(), config)


def test_overflowing_step_blames_the_timestep():
    # rx 0 / ry 1 under Z0: G = I/4, so the step is 4 * -dt * grad(E); at
    # dt = 1e308 it overflows within three steps although every solve is
    # well posed, so the error names the timestep, not lambda
    circuit = AnsatzCircuit(2, (PauliRotation(PauliString.single(0, "X")),
                                PauliRotation(PauliString.single(1, "Y"))))
    params = np.random.default_rng(1234).uniform(0.0, 2.0 * np.pi, 2)
    config = OptimizerConfig(timestep=1e308, max_steps=5)
    with pytest.raises(StepOverflowError, match="--dt") as error:
        run_optimization(circuit, params, z_hamiltonian(), config)
    assert "lambda > 0" not in str(error.value)


@pytest.mark.parametrize("rhs", [[np.inf, 0.0], [np.nan, 1.0], [-np.inf, np.inf]])
def test_non_finite_step_direction_blames_the_timestep(rhs):
    with pytest.raises(StepOverflowError, match="-dt \\* grad\\(E\\) is not finite"):
        _solve_metric_system(0.25 * np.eye(2), np.array(rhs), 1e-8)


@pytest.mark.parametrize("metric", [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
def test_non_finite_metric_blames_the_coefficients(metric):
    # checked before the step, so neither --dt nor lambda is blamed
    with pytest.raises(CoefficientOverflowError, match="metric overflows") as error:
        _solve_metric_system(np.array(metric), np.array([np.inf, 0.0]), 0.0)
    assert "lambda" not in str(error.value) and "--dt" not in str(error.value)


@pytest.mark.parametrize("weight, hamiltonian, message", [
    # |grad| ~ 1e200, so its norm overflows at the first point
    (1e200, "1 Z0", "energy or its gradient at step 0 overflows"),
    # the gradient stays finite under a tiny Hamiltonian, but G ~ 1e400
    (1e200, "1e-100 Z0", "metric overflows"),
])
def test_run_names_an_overflowing_point_or_metric(weight, hamiltonian, message):
    circuit = AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X")),
                                GeneratedGate(PauliSum(((weight, PauliString.single(0, "X")),)))))
    config = OptimizerConfig(timestep=0.05, max_steps=2)
    h = parse_hamiltonian_text(hamiltonian)
    with pytest.raises(CoefficientOverflowError, match=message) as error:
        run_optimization(circuit, [0.3, 0.2], h, config)
    assert "lambda" not in str(error.value)


def test_energy_gradient_refuses_an_overflowing_point():
    # the standalone gradient checks what run_optimization does; the energy
    # alone stays finite, since |<psi|H|psi>| <= sum |w_j|
    circuit = AnsatzCircuit(1, (GeneratedGate(PauliSum(((1e300, PauliString.single(0, "X")),))),))
    h = parse_hamiltonian_text("1e10 Z0")
    with pytest.raises(CoefficientOverflowError, match="^the energy or its gradient overflows"):
        energy_gradient(circuit, [0.3], h, OpCounter())
    assert np.isfinite(energy_expectation(circuit, [0.3], h, OpCounter()))


def test_singular_metric_with_regularization_is_finite():
    circuit = AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X"), scale=0.0),))
    config = OptimizerConfig(timestep=0.1, regularization=1e-8, max_steps=1)
    trace = run_optimization(circuit, [0.2], z_hamiltonian(), config)
    assert np.all(np.isfinite(trace.final_parameters))


def test_metric_solve_residual_small():
    # the physical right-hand side -dt*grad is consistent with the metric's
    # range (a direction that does not move the state moves the energy no
    # more), so the solve residual stays at machine level
    from qngsim.optimizer import _solve_metric_system

    rng = np.random.default_rng(76)
    circuit = random_circuit(3, 8, rng)
    params = random_parameters(8, rng)
    h = PauliSum((
        (1.0, PauliString.parse("Z0 Z1")),
        (0.5, PauliString.single(2, "X")),
    ))
    metric = compute_geometric_tensor_main(circuit, params, OpCounter()).fubini_study_metric
    rhs = -0.05 * energy_gradient(circuit, params, h, OpCounter())
    for lam in (1e-8, 1e-3):
        shifted = metric + lam * np.eye(8)
        solution = _solve_metric_system(metric, rhs, lam)
        assert np.max(np.abs(shifted @ solution - rhs)) <= 1e-10


def test_metric_solve_matches_symmetric_solve_oracle():
    # numpy's LU solve against scipy's symmetric (LDL^T) solve, on a
    # well-conditioned SPD metric and on the singular metric above (three
    # zero eigenvalues) at a small and a large shift: the two agree to
    # within the shifted system's condition number times rounding
    import scipy.linalg

    from qngsim.optimizer import _solve_metric_system

    rng = np.random.default_rng(76)
    circuit = random_circuit(3, 8, rng)
    params = random_parameters(8, rng)
    h = PauliSum((
        (1.0, PauliString.parse("Z0 Z1")),
        (0.5, PauliString.single(2, "X")),
    ))
    singular = compute_geometric_tensor_main(circuit, params, OpCounter()).fubini_study_metric
    rhs = -0.05 * energy_gradient(circuit, params, h, OpCounter())
    spread = np.random.default_rng(77).normal(size=(24, 24))
    cases = [(singular, rhs, lam) for lam in (1e-8, 1e-3)]
    cases.append((spread @ spread.T + 24 * np.eye(24),
                  np.random.default_rng(78).normal(size=24), 1e-8))
    for metric, b, lam in cases:
        shifted = metric + lam * np.eye(len(b))
        oracle = scipy.linalg.solve(shifted, b, assume_a="sym")
        solution = _solve_metric_system(metric, b, lam)
        bound = len(b) * np.linalg.cond(shifted) * np.finfo(float).eps
        assert np.linalg.norm(solution - oracle) <= bound * np.linalg.norm(oracle), lam


def test_plain_mode_skips_tensor_and_scales_linearly(monkeypatch):
    def no_tensor(*args, **kwargs):
        raise AssertionError("plain mode must not evaluate the geometric tensor")

    monkeypatch.setattr("qngsim.optimizer.compute_geometric_tensor", no_tensor)
    monkeypatch.setattr("qngsim.metric.compute_geometric_tensor_blocked", no_tensor)
    circuit = random_circuit(3, 9, 77)
    params = random_parameters(9, 78)
    config = OptimizerConfig(timestep=0.05, max_steps=1, mode=PLAIN_GRADIENT)
    trace = run_optimization(circuit, params, z_hamiltonian(), config)
    np.testing.assert_allclose(
        trace.final_parameters - params,
        -0.05 * energy_gradient(circuit, params, z_hamiltonian(), OpCounter()),
        atol=1e-14,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(timestep=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(timestep=0.1, regularization=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(timestep=0.1, energy_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(timestep=0.1, mode="bogus")
    for field, value in [("timestep", np.nan), ("timestep", np.inf),
                         ("regularization", np.nan), ("regularization", np.inf),
                         ("energy_tolerance", np.nan), ("energy_tolerance", np.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OptimizerConfig(**{"timestep": 0.1, field: value})


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_single_rotation_run_reaches_minus_one():
    config = OptimizerConfig(timestep=0.05, regularization=1e-8, max_steps=300,
                             energy_tolerance=1e-12)
    trace = run_optimization(rx_circuit(), [0.1], z_hamiltonian(), config)
    assert trace.final_energy == pytest.approx(-1.0, abs=1e-8)


def test_zero_steps_records_initial_evaluation_only():
    config = OptimizerConfig(timestep=0.05, max_steps=0)
    trace = run_optimization(rx_circuit(), [0.4], z_hamiltonian(), config)
    assert len(trace.records) == 1
    assert trace.records[0].step == 0
    assert trace.records[0].energy == pytest.approx(np.cos(0.4))


def test_ising_pair_run_converges_and_is_monotone():
    circuit = random_layered_circuit(2, 3, np.random.default_rng([0, 0]))
    initial = random_parameters(circuit.num_parameters, np.random.default_rng([0, 1]))
    config = OptimizerConfig(timestep=0.05, regularization=1e-8, max_steps=500,
                             energy_tolerance=1e-12)
    trace = run_optimization(circuit, initial, ising_pair(), config)
    assert trace.final_energy <= ising_pair_ground_energy() + 1e-6
    # plain floats: a numpy scalar here leaks numpy types into JSON reports
    assert all(type(record.energy) is float for record in trace.records)
    json.dumps([record.energy for record in trace.records])
    steps = np.diff(trace.energies)
    assert np.max(steps) <= 1e-9  # non-increasing up to float noise


def test_natural_gradient_no_slower_than_plain_median():
    # median steps to reach within 1e-6 of the ground energy, 10 seeds each
    target = ising_pair_ground_energy() + 1e-6
    cap = 500

    def steps_to_target(mode, seed):
        circuit = random_layered_circuit(2, 3, np.random.default_rng([seed, 0]))
        initial = random_parameters(circuit.num_parameters,
                                    np.random.default_rng([seed, 1]))
        config = OptimizerConfig(timestep=0.05, regularization=1e-8, max_steps=cap,
                                 energy_tolerance=1e-13, mode=mode)
        trace = run_optimization(circuit, initial, ising_pair(), config)
        below = np.nonzero(trace.energies <= target)[0]
        return int(below[0]) if below.size else cap + 1

    natural = [steps_to_target(NATURAL_GRADIENT, seed) for seed in range(10)]
    plain = [steps_to_target(PLAIN_GRADIENT, seed) for seed in range(10)]
    assert np.median(natural) <= np.median(plain)


def test_trace_csv_deterministic(tmp_path):
    config = OptimizerConfig(timestep=0.05, max_steps=25)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        trace = run_optimization(rx_circuit(), [0.3], z_hamiltonian(), config)
        trace.write_csv(path)
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "step,energy,grad_norm"
