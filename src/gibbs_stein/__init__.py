"""Discrete Gibbs measures, birth-death Stein equations, and certified
total-variation bounds.

The package represents laws on {0..N} through an activity and a potential,
solves the associated Stein equation in closed form, evaluates exact and
formula-based bounds on the solution and its increments, and certifies
total-variation distances between measure pairs, including the occupancy
laws of interacting lattice gases against their continuum limits.
"""

from .measures import (
    BUILTIN_KINDS,
    CumulativeTables,
    GibbsMeasure,
    TailPolicy,
    binomial,
    builtin,
    discrete_uniform,
    from_pmf,
    geometric,
    hypergeometric,
    negative_binomial,
    poisson,
)
from .stein import (
    SteinSolution,
    TestFunction,
    apply_generator,
    extremal_indicator,
    increment_coefficients,
    solution_coefficients,
    solve,
    solve_extended,
    stationarity_defect,
    sup_increment_exact,
    sup_increment_table,
    sup_solution_exact,
    sup_solution_norm,
    sup_solution_table,
)
from .factors import (
    BoundCertificate,
    ConditionCheck,
    RateRange,
    bound_certificates,
    check_conditions,
    closed_form_bounds,
    condition,
    increment_bound,
    rate_range,
    solution_bound,
    supnorm_bound,
)
from .size_bias import (
    CouplingSpec,
    SizeBiasLaw,
    bernoulli_convolution,
    size_bias,
    stein_residual_via_size_bias,
    sum_size_bias,
)
from .compare import (
    ComparisonReport,
    generator_comparison,
    generator_comparison_bound,
    generator_comparison_extended,
    tv_distance,
)
from .lattice import (
    CouplingBound,
    InteractionModel,
    LatticeBoundReport,
    PoissonSumReport,
    closed_form_bound,
    grid_points,
    harmonic_between,
    ideal_gas_model,
    lattice_comparison_report,
    lattice_measure,
    lattice_weight_brute,
    limit_measure,
    poisson_sum_bounds,
    product_model,
    repelling_limit_partition,
    repelling_model,
    sum_coupling_bound,
)

__version__ = "0.1.0"
