"""The public surface of ``conal`` and the names the benchmark harness reads."""

import conal

PUBLIC = [
    "ClosedFormTable",
    "GeneralizedMeasurement",
    "OutcomeRecord",
    "Povm",
    "Scenario",
    "StationarityReport",
    "ValidationReport",
    "__version__",
    "apply_all",
    "apply_outcome",
    "build_basis",
    "closed_form_point",
    "closed_form_table",
    "cone_contains",
    "cross_relations",
    "embed",
    "fixed_states",
    "hs_inner",
    "info_contribution",
    "is_generalized_pure",
    "is_positive",
    "is_positive_vec",
    "joint_probs",
    "make_scenario",
    "minkowski4",
    "minkowski_diagonal",
    "minkowski_product",
    "optimal_repair",
    "outcome_probability",
    "pipeline_point",
    "polar_decompose",
    "post_inner_products",
    "post_norms",
    "psi_matrix",
    "qubit_positive",
    "sandwich",
    "split",
    "sqrt_psd",
    "sqrt_vec",
    "square_vec",
    "stationarity_check",
    "unembed",
    "validate",
]


def test_all_is_pinned_and_resolves():
    assert sorted(conal.__all__) == PUBLIC
    for name in conal.__all__:
        assert getattr(conal, name) is not None, name


def test_pipeline_point_rows_compare_to_a_bool():
    assert (conal.pipeline_point(0.37, 0.61) == conal.pipeline_point(0.37, 0.61)) is True


def test_benchmark_tracer_binding_exists():
    # The benchmark's tracer test reads this module attribute.
    assert callable(conal.tradeoff.minimize_periodic)
