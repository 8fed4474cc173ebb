"""Real-cone representation of quantum states and non-trace-preserving operations.

Hermitian operators of a d-dimensional system become real vectors of length
d**2 through the coordinates ``Tr(A tau_mu)`` in a Hilbert-Schmidt
orthogonal basis.  The PSD operators fill a convex subcone of a Minkowski
light cone; unitaries act as rotations about its axis and measurement
elements as symmetric positive maps, which makes individual measurement
outcomes (including the non-trace-preserving ones) directly visible as
cone geometry.  The qubit case admits complete closed forms, and the
package uses them to reproduce the information-gain versus disturbance
tradeoff for two equiprobable pure states.
"""

from .basis import build_basis, embed, hs_inner, unembed
from .cone import (
    cone_contains,
    fixed_states,
    is_generalized_pure,
    is_positive_vec,
    minkowski_diagonal,
    minkowski_product,
    outcome_probability,
    psi_matrix,
)
from .linalg import is_positive, polar_decompose, sqrt_psd
from .measurement import (
    GeneralizedMeasurement,
    OutcomeRecord,
    Povm,
    ValidationReport,
    apply_all,
    apply_outcome,
    split,
    validate,
)
from .qubit import (
    cross_relations,
    minkowski4,
    post_inner_products,
    post_norms,
    qubit_positive,
    sandwich,
    sqrt_vec,
    square_vec,
)
from .tradeoff import (
    ClosedFormTable,
    Scenario,
    StationarityReport,
    closed_form_point,
    closed_form_table,
    info_contribution,
    joint_probs,
    make_scenario,
    optimal_repair,
    pipeline_point,
    stationarity_check,
)

__version__ = "0.1.0"

__all__ = [
    "build_basis",
    "embed",
    "unembed",
    "hs_inner",
    "is_positive",
    "sqrt_psd",
    "polar_decompose",
    "minkowski_diagonal",
    "minkowski_product",
    "cone_contains",
    "is_positive_vec",
    "is_generalized_pure",
    "psi_matrix",
    "outcome_probability",
    "fixed_states",
    "minkowski4",
    "qubit_positive",
    "sandwich",
    "square_vec",
    "sqrt_vec",
    "cross_relations",
    "post_inner_products",
    "post_norms",
    "GeneralizedMeasurement",
    "Povm",
    "OutcomeRecord",
    "ValidationReport",
    "validate",
    "split",
    "apply_outcome",
    "apply_all",
    "Scenario",
    "ClosedFormTable",
    "StationarityReport",
    "make_scenario",
    "joint_probs",
    "info_contribution",
    "optimal_repair",
    "closed_form_table",
    "closed_form_point",
    "pipeline_point",
    "stationarity_check",
    "__version__",
]
