"""Baseline strategies: closed-form costs, count exactness, mutual equivalence."""

import numpy as np
import pytest

from qngsim.ansatz import AnsatzCircuit, random_circuit, random_parameters
from qngsim.baselines import (
    BaselineId,
    compute_li_tensor,
    cost_model,
    naive_full_li_matrix,
)
from qngsim.errors import ResourceLimitError
from qngsim.gates import PauliRotation, PauliString
from qngsim.metric import compute_geometric_tensor, compute_geometric_tensor_main
from qngsim.statevector import OpCounter, track_allocations

ALL = list(BaselineId)

TABLE_REGISTERS = {
    BaselineId.ALG2: lambda p: 2,
    BaselineId.ALG3: lambda p: 1,
    BaselineId.ALG4: lambda p: 3,
    BaselineId.ALG5: lambda p: 3,
    BaselineId.ALG6: lambda p: 4,
    BaselineId.ALG7: lambda p: p,
    BaselineId.ALG8: lambda p: p + 1,
}


def test_baseline_id_parse():
    assert BaselineId.parse("ALG5") is BaselineId.ALG5
    with pytest.raises(ValueError):
        BaselineId.parse("alg9")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_cost_model_reference_totals_at_p100():
    assert sum(cost_model(BaselineId.ALG3, 100)[:2]) == 681750
    assert sum(cost_model(BaselineId.ALG6, 100)[:2]) == 20401
    assert sum(cost_model(BaselineId.ALG8, 100)[:2]) == 5251


def test_cost_model_smallest_case():
    model = cost_model(BaselineId.ALG2, 1)
    assert (model.gates, model.clones) == (2, 2)


def test_cost_model_alg2_formula():
    model = cost_model(BaselineId.ALG2, 2)
    assert (model.gates, model.clones) == (16, 8)


@pytest.mark.parametrize("alg", ALL)
def test_cost_model_integer_and_nonnegative(alg):
    for num_parameters in range(1, 51):
        model = cost_model(alg, num_parameters)
        assert model.gates >= 0 and model.clones >= 0 and model.registers >= 1
        # the fractional coefficients cancel: reconstruct from exact fractions
        fractions = {
            BaselineId.ALG2: (2, 0, 0, 0, 2, 0, 0),
            BaselineId.ALG3: (2 / 3, 1, 1 / 3, 0, 1 / 2, 1 / 2, 0),
            BaselineId.ALG4: (1 / 3, 1 / 2, 13 / 6, 0, 1 / 2, 3 / 2, 1),
            BaselineId.ALG5: (1 / 6, 1, 11 / 6, 0, 1 / 2, 3 / 2, 1),
            BaselineId.ALG6: (0, 3 / 2, 3 / 2, 0, 1 / 2, 5 / 2, 1),
            BaselineId.ALG7: (0, 1, 1, 0, 0, 1, 0),
            BaselineId.ALG8: (0, 1 / 2, 3 / 2, 0, 0, 1, 1),
        }[alg]
        g3, g2, g1, g0, c2, c1, c0 = fractions
        p = num_parameters
        assert model.gates == round(g3 * p**3 + g2 * p * p + g1 * p + g0)
        assert model.clones == round(c2 * p * p + c1 * p + c0)


def test_cost_model_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        cost_model(BaselineId.ALG2, 0)


# ---------------------------------------------------------------------------
# Worked example: single scale-1/2 rotation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg", ALL)
def test_single_rotation_diagonal_is_quarter(alg):
    circuit = AnsatzCircuit(1, (PauliRotation(PauliString.single(0, "X")),))
    li = compute_li_tensor(alg, circuit, [0.9], OpCounter())
    assert li[0, 0] == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# Count exactness (the full P = 1..50 sweep runs in the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg", ALL)
def test_counts_match_cost_model(alg):
    rng = np.random.default_rng(60)
    for num_parameters in list(range(1, 9)) + [13]:
        circuit = random_circuit(2, num_parameters, rng)
        params = random_parameters(num_parameters, rng)
        counter = OpCounter()
        compute_li_tensor(alg, circuit, params, counter)
        model = cost_model(alg, num_parameters)
        assert counter.gate_applications == model.gates, (alg, num_parameters)
        assert counter.clones == model.clones, (alg, num_parameters)


@pytest.mark.parametrize("alg", ALL)
def test_inner_product_counts(alg):
    num_parameters = 7
    rng = np.random.default_rng(61)
    circuit = random_circuit(2, num_parameters, rng)
    counter = OpCounter()
    compute_li_tensor(alg, circuit, random_parameters(num_parameters, rng), counter)
    if alg is BaselineId.ALG2:
        assert counter.inner_products == num_parameters**2
    else:
        assert counter.inner_products == num_parameters * (num_parameters + 1) // 2


@pytest.mark.parametrize("alg", ALL)
def test_register_accounting(alg):
    num_parameters = 5
    rng = np.random.default_rng(62)
    circuit = random_circuit(2, num_parameters, rng)
    params = random_parameters(num_parameters, rng)
    with track_allocations() as tally:
        compute_li_tensor(alg, circuit, params, OpCounter())
    expected = TABLE_REGISTERS[alg](num_parameters)
    assert tally.peak_live("workspace") == expected
    assert tally.total_allocated() == expected + 1  # plus the circuit input


# ---------------------------------------------------------------------------
# Mutual equivalence
# ---------------------------------------------------------------------------


def test_all_strategies_agree_on_seeded_circuit():
    rng = np.random.default_rng(63)
    circuit = random_circuit(3, 6, rng)
    params = random_parameters(6, rng)
    tensors = [compute_li_tensor(alg, circuit, params, OpCounter()) for alg in ALL]
    tensors.append(compute_geometric_tensor_main(circuit, params, OpCounter()).li)
    for i in range(len(tensors)):
        for j in range(i + 1, len(tensors)):
            assert np.max(np.abs(tensors[i] - tensors[j])) <= 1e-10


def test_naive_full_matrix_is_hermitian():
    rng = np.random.default_rng(64)
    circuit = random_circuit(3, 5, rng)
    full = naive_full_li_matrix(circuit, random_parameters(5, rng), OpCounter())
    assert np.max(np.abs(full - full.conj().T)) <= 1e-10


# ---------------------------------------------------------------------------
# Memory guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg", [BaselineId.ALG7, BaselineId.ALG8])
def test_register_hungry_strategies_respect_budget(alg):
    circuit = random_circuit(2, 6, 65)
    params = random_parameters(6, 66)
    with track_allocations(budget_bytes=128), pytest.raises(ResourceLimitError):
        compute_li_tensor(alg, circuit, params, OpCounter())


def test_fixed_register_strategies_respect_budget():
    # 64-byte 2-qubit registers, the input included: alg6 holds five, alg8
    # P + 2 and auto (B = 3 at P = 2^N) six; a byte less refuses each
    circuit = random_circuit(2, 4, 67)
    params = random_parameters(4, 68)
    runs = {
        "alg6": (lambda: compute_li_tensor(BaselineId.ALG6, circuit, params, OpCounter()), 5),
        "alg8": (lambda: compute_li_tensor(BaselineId.ALG8, circuit, params, OpCounter()), 6),
        "auto": (lambda: compute_geometric_tensor(circuit, params, OpCounter()), 6),
    }
    for name, (run, registers) in runs.items():
        with track_allocations(budget_bytes=64 * registers) as tally:
            run()
        assert tally.peak_live() == registers, name
        with track_allocations(budget_bytes=64 * registers - 1), \
                pytest.raises(ResourceLimitError):
            run()
