"""Statevector simulation of quantum natural gradient.

The package computes the quantum geometric tensor of a parameterized circuit
with a recurrent algorithm costing O(P^2) gate/clone operations and a fixed
number of workspace registers, or with fewer gates from derivative states
kept B at a time, or from the state Jacobian read against 2^N co-states
(``compute_geometric_tensor`` picks the route by the rule its docstring
states), validates it against seven reference strategies and finite
differences, and uses it to drive natural-gradient minimization of
Pauli-sum Hamiltonians.
"""

from .ansatz import (
    AnsatzCircuit,
    BoundCircuit,
    input_state,
    phased_variant,
    prepare_ansatz_state,
    random_circuit,
    random_layered_circuit,
    random_parameters,
)
from .baselines import BaselineId, compute_li_tensor, cost_model
from .errors import (
    CoefficientOverflowError,
    ParseError,
    ResourceLimitError,
    SingularMetricError,
    StepOverflowError,
    UnsupportedGateError,
)
from .gates import (
    ControlledPauliRotation,
    GeneratedGate,
    ParameterizedGate,
    PauliRotation,
    PauliString,
    PauliSum,
)
from .metric import (
    GeometricTensor,
    blocked_tensor_cost,
    compute_berry_vector,
    compute_geometric_tensor,
    compute_geometric_tensor_blocked,
    compute_geometric_tensor_costate,
    compute_geometric_tensor_main,
    costate_tensor_cost,
    main_algorithm_cost,
    read_tensor_binary,
    write_tensor_binary,
    write_tensor_csv,
)
from .optimizer import (
    NATURAL_GRADIENT,
    PLAIN_GRADIENT,
    OptimizationTrace,
    OptimizerConfig,
    StepRecord,
    energy_expectation,
    energy_gradient,
    run_optimization,
)
from .parsing import (
    parse_circuit_file,
    parse_circuit_text,
    parse_hamiltonian_file,
    parse_hamiltonian_text,
)
from .statevector import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    MatrixGateOperator,
    OpCounter,
    PauliStringOperator,
    Statevector,
    apply_operator,
    clone_into,
    inner_product,
    make_basis_state,
    track_allocations,
)

__version__ = "0.1.0"
