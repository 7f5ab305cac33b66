"""The two harnesses of ``qngsim verify``: exact counts and tolerances."""

import numpy as np

from qngsim import verify
from qngsim.baselines import BaselineId

EXACT_CHECKS = ("count_exactness", "reference_totals", "blocked_count_exactness",
                "costate_count_exactness", "gradient_count_exactness")


def _bumped(fields: tuple, position: int) -> tuple:
    return fields[:position] + (fields[position] + 1,) + fields[position + 1:]


def test_every_exact_check_compares_the_perturbed_field(monkeypatch):
    # one field of each closed form is off by one: each exact check reads it
    # and fails by exactly 1, and no tolerance check notices
    cost_model = verify.cost_model
    blocked_registers = verify.blocked_tensor_registers
    costate_cost = verify.costate_tensor_cost
    gradient_cost = verify.gradient_cost
    monkeypatch.setattr(verify, "cost_model", lambda alg, p: cost_model(alg, p)._replace(
        registers=cost_model(alg, p).registers + 1))
    monkeypatch.setattr(verify, "blocked_tensor_registers",
                        lambda p, block: blocked_registers(p, block) + 1)
    monkeypatch.setattr(verify, "costate_tensor_cost",
                        lambda p, n: _bumped(costate_cost(p, n), 2))  # inner products
    monkeypatch.setattr(verify, "gradient_cost",
                        lambda p, t: _bumped(gradient_cost(p, t), 3))  # axpys
    monkeypatch.setitem(verify.REFERENCE_TOTALS_P100, BaselineId.ALG6,
                        verify.REFERENCE_TOTALS_P100[BaselineId.ALG6] + 1)
    results = verify.run_checks(quick=True)
    assert [(r.name, r.passed, r.max_deviation) for r in results
            if r.name in EXACT_CHECKS] == [(name, False, 1.0) for name in EXACT_CHECKS]
    assert all(r.passed for r in results if r.name not in EXACT_CHECKS)


def test_a_nan_deviation_fails_its_check(monkeypatch):
    monkeypatch.setattr(verify, "compute_berry_vector",
                        lambda circuit, params, counter: np.full(circuit.num_parameters, np.nan))
    results = {r.name: r for r in verify.run_checks(quick=True)}
    assert not results["berry_consistency"].passed
    assert np.isnan(results["berry_consistency"].max_deviation)
    assert all(r.passed for name, r in results.items() if name != "berry_consistency")
