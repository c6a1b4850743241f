"""sensealloc: joint optimization of linear classifiers and the allocation of
a shared acquisition budget across features."""

__version__ = "0.1.0"

from .core import (
    Dataset,
    LinearClassifier,
    NoiseModel,
    ResourceVector,
    RngConfig,
    generate_synthetic,
    inject_noise,
    noise_variance,
    sigma_aggregate,
    synthetic_label,
)
from .allocation import (
    AllocationResult,
    allocate_adversarial,
    allocate_inverse,
    allocate_inverse_sqrt,
    allocate_quantization,
    allocate_waterfill,
    project_l1_ball,
    project_simplex,
    refine_integer_bits,
)
from .losses import (
    LossValue,
    expected_hinge_total,
    gaussian_hinge_expected,
    robust_hinge_objective,
    square_loss_total,
)
from .batch import (
    SolveReport,
    fit_hinge,
    ridge_step,
    solve_robust_hinge,
    solve_square_alternating,
)
from .online import (
    BoundParams,
    OnlineConfig,
    RegretTrace,
    SampleOracle,
    best_fixed_square_loss_l1,
    project_l2_ball,
    regret_bound_noisy,
    regret_bound_unknown,
    run_noisy,
    run_unknown,
)
from .analysis import (
    ConvexityReport,
    RatioReport,
    budget_ratio_bounds,
    divider_ratio_formula,
    divider_weights,
    equal_loss_budget,
    ratio_report,
    ratio_sweep,
    uniform_optimal_budget_ratio,
    verify_convexity,
)
from .oracles import (
    GridSpec,
    finite_diff_grad,
    grid_alloc_search,
    mc_ellipsoid_support,
    mc_expected_loss,
    oracle_integer_bits,
    oracle_project_l1,
    oracle_project_l2,
    oracle_project_simplex,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    ablation_recovery,
    emit_results,
    ingest_uci,
    load_config,
    matched_error_budget,
    read_results,
    resource_ratio,
    run_experiment,
)
from . import errors
