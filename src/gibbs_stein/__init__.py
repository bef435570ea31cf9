"""Discrete Gibbs measures, birth-death Stein equations, and certified
total-variation bounds.

The package represents laws on {0..N} through an activity and a potential,
solves the associated Stein equation in closed form, evaluates exact and
formula-based bounds on the solution and its increments, and certifies
total-variation distances between measure pairs, including the occupancy
laws of interacting lattice gases against their continuum limits.

The package exports what the quickstart and the benchmark reach, the family
constructors and the lattice-model factories.  Everything else is reached
through its submodule, and the reference forms that check the fast paths
through `gibbs_stein.oracle`.
"""

from .measures import (
    GibbsMeasure, binomial, discrete_uniform, from_pmf, geometric, hypergeometric, negative_binomial, poisson,
)
from .stein import TestFunction, solve, sup_increment_table, sup_solution_exact
from .factors import increment_bound, rate_range
from .size_bias import CouplingSpec
from .compare import generator_comparison, generator_comparison_bound, generator_comparison_extended, tv_distance
from .lattice import (
    ideal_gas_model, lattice_comparison_report, lattice_measure, poisson_sum_bounds, product_model,
    repelling_model, sum_coupling_bound,
)

__version__ = "0.1.0"

__all__ = [
    "GibbsMeasure", "binomial", "discrete_uniform", "from_pmf", "geometric", "hypergeometric",
    "negative_binomial", "poisson",
    "TestFunction", "solve", "sup_increment_table", "sup_solution_exact",
    "increment_bound", "rate_range",
    "CouplingSpec",
    "generator_comparison", "generator_comparison_bound", "generator_comparison_extended", "tv_distance",
    "ideal_gas_model", "lattice_comparison_report", "lattice_measure", "poisson_sum_bounds", "product_model",
    "repelling_model", "sum_coupling_bound",
    "__version__",
]
