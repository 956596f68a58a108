"""Inertial proximal dynamics on Moreau envelopes.

Simulation and verification toolkit for a damped second-order flow on the
Moreau envelope of a nonsmooth convex objective, with a growing time scale,
Hessian-driven damping and a vanishing Tikhonov term that steers the
trajectory to the least-norm minimizer.
"""

__version__ = "0.1.0"

from .errors import (
    DivergenceError,
    InfeasibleError,
    InsufficientDataError,
    ParameterDomainError,
    StepSizeError,
    UnsupportedOracleError,
    ValidationError,
)
from .objectives import (
    BUILTIN_NAMES,
    Objective,
    abs_plus_quad,
    as_point,
    box_indicator,
    dist_to_interval,
    envelope_composition_prox,
    envelope_of_envelope_check,
    l1_norm,
    make_objective,
    moreau_gradient,
    moreau_lambda_derivative,
    moreau_value,
    prox,
    prox_oracle,
    scaled_shifted_quadratic,
    tikhonov_center,
)
from .dynamics import (
    IntegratorSettings,
    StepStats,
    Trajectory,
    initial_aux,
    integrate,
    residual_second_order,
    rhs_beta_positive,
    rhs_beta_zero,
)
from .schedules import (
    ConditionQuery,
    ConditionReport,
    LambdaForm,
    PolyParams,
    Schedule,
    SystemConfig,
    Verdict,
    check_alpha3_conditions,
    check_fast_rate_conditions,
    check_strong_conv_conditions,
    energy_descent_start,
    eval_schedule,
    polynomial_schedule,
    suggest_t0,
    suggest_t0_alpha3,
    suggest_t0_strong,
)
from .diagnostics import (
    DescentReport,
    Observables,
    RateFit,
    StrongConvReport,
    canonical_pq,
    check_energy_descent,
    compute_observables,
    energy_pq,
    energy_q,
    energy_q_series,
    fit_rate_slope,
    strong_convergence_metrics,
    unanchored_energy,
    unanchored_energy_series,
)
from .selftest import PropertyResult, default_registry, run_prox_selftest
from .csvio import TrajectoryTable, read_csv, table_from_trajectory, write_csv
from .runconfig import (
    PRESETS,
    RunConfig,
    RunSummary,
    build_system,
    config_from_flat,
    execute_run,
    parse_config_file,
    parse_config_text,
    preset_runs,
)
from .svgplot import line_chart
