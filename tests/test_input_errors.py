"""Input checks of the library that no other test reaches, one (call, message) pair each.

Each call is a small input that reaches its check, so a check that stops
firing, or whose message drifts, fails here by name.  Two branches cannot
be reached from any input and are not listed: the normalisation check after
log-sum-exp in `GibbsMeasure` and the range check of
`measures._binomial_increment_at`, whose callers keep j within 1..n.  The
command-line and JSON-measure checks are pinned in test_cli.py, but for
the `poisson-sum --spec` payloads, which run here through the library and
the command line.
"""

import json
import math

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein import compare, factors
from gibbs_stein.lattice import InteractionModel, limit_measure
from gibbs_stein.oracle import coupling_given_index, extremal_indicator, grid_points
from gibbs_stein.size_bias import size_bias, stein_residual_via_size_bias, sum_size_bias
from gibbs_stein.stein import apply_generator, solve_extended, stationarity_defect
from gibbs_stein.cli import main

M = gs.poisson(1.0, truncation=4)
SOLUTION = gs.solve(M, gs.TestFunction.indicator([0], 5))
DEPENDENT = gs.CouplingSpec([0.5, 0.5], conditional_sums=[[0.5, 0.5], [0.5, 0.5]], independent=False)


def _model(kind, log_Wn_fn=lambda n, k: 0.0):
    """An interaction model built directly, of a kind no limit family is registered for."""
    return InteractionModel(kind, 1.0, log_Wn_fn, lambda k: 0.0)


# poisson-sum --spec payloads that fail by field name (run through the CLI below too)
SPEC_PAYLOADS = {
    "lacks_p": ({"q": [0.1]}, "coupling specification lacks field 'p'"),
    "configuration_lacks_bits": (
        {"configurations": [{"prob": 1.0}]}, "configuration 0 lacks field 'bits'"),
    "configuration_lacks_prob": (
        {"configurations": [{"bits": [0], "prob": 0.5}, {"bits": [1]}]}, "configuration 1 lacks field 'prob'"),
    "top_level_list": ([0.5, 0.5], "coupling specification must be a JSON object"),
    # a bit of 2 would count twice in the sum, and one past n would index outside the tables
    "configuration_bits_not_binary": (
        {"configurations": [{"bits": [0, 2], "prob": 0.5}, {"bits": [0, 0], "prob": 0.5}]},
        "configuration [0, 2] has bits other than 0 and 1"),
    "configuration_bit_past_n": (
        {"configurations": [{"bits": [0, 5], "prob": 0.5}, {"bits": [1, 1], "prob": 0.5}]},
        "configuration [0, 5] has bits other than 0 and 1"),
    "independent_not_boolean": (
        {"p": [0.5, 0.5], "independent": "no"},
        "coupling specification field 'independent' must be a JSON boolean, got 'no'"),
}
# whole-number fields of a measure payload
FRACTIONAL_BOUND = {**gs.poisson(1.0).to_dict(), "truncation": {"bound": 16.9, "tail_mass": 1e-15, "tolerance": 1e-14}}
FRACTIONAL_N = {**gs.binomial(10, 0.3).to_dict(), "params": {"n": 10.5, "p": 0.3}}


CASES = {
    # stein
    "solve_unknown_method": (lambda: gs.solve(M, np.zeros(5), method="bogus"), "unknown method 'bogus'"),
    "residual_index_out_of_range": (lambda: SOLUTION.residual(6), "residual defined for 0 <= k <= 4"),
    "solve_extended_domain_within_support": (
        lambda: solve_extended(M, np.zeros(5), 4), "domain_max must exceed the measure's support bound"),
    "apply_generator_short_g": (lambda: apply_generator(M, np.zeros(5), 0), "g must be defined on 0..N+1"),
    "stationarity_defect_short_g": (lambda: stationarity_defect(M, np.zeros(5)), "g must be defined on 0..N+1"),
    "extremal_indicator_unknown_quantity": (
        lambda: extremal_indicator(M, 1, "bogus"), "quantity must be 'increment' or 'solution'"),
    "test_function_empty": (lambda: gs.TestFunction([]), "test function must be a non-empty 1-d table"),
    "test_function_2d": (lambda: gs.TestFunction([[0.5]]), "test function must be a non-empty 1-d table"),
    # measures
    "measure_omega_zero": (
        lambda: gs.GibbsMeasure(0.0, [0.0]), "activity omega must be a positive finite real, got 0.0"),
    "measure_potential_2d": (
        lambda: gs.GibbsMeasure(1.0, [[0.0]]), "potential table must be one-dimensional and non-empty"),
    "measure_potential_empty": (
        lambda: gs.GibbsMeasure(1.0, []), "potential table must be one-dimensional and non-empty"),
    "measure_potential_inf": (
        lambda: gs.GibbsMeasure(1.0, [0.0, math.inf]), "potential must be finite on the whole support"),
    "reparametrized_alpha": (lambda: M.reparametrized(0.0), "alpha must be positive"),
    "restricted_bound": (lambda: M.restricted(5), "restriction bound must lie in the support, got 5"),
    "binomial_p": (lambda: gs.binomial(10, 1.5), "binomial needs 0 < p < 1"),
    "hypergeometric_no_successes": (lambda: gs.hypergeometric(10, 0, 3), "hypergeometric parameters out of range"),
    "hypergeometric_draws_all": (lambda: gs.hypergeometric(10, 3, 10), "hypergeometric parameters out of range"),
    "discrete_uniform_negative": (lambda: gs.discrete_uniform(-1), "discrete uniform needs n >= 0"),
    # counts must be finite whole numbers
    "binomial_n_fractional": (lambda: gs.binomial(10.5, 0.3), "binomial needs a finite whole number n, got 10.5"),
    "binomial_n_inf": (lambda: gs.binomial(math.inf, 0.3), "binomial needs a finite whole number n, got inf"),
    "binomial_n_nan": (lambda: gs.binomial(math.nan, 0.3), "binomial needs a finite whole number n, got nan"),
    "hypergeometric_population_fractional": (
        lambda: gs.hypergeometric(20.5, 5, 6), "hypergeometric needs a finite whole number population, got 20.5"),
    "hypergeometric_successes_fractional": (
        lambda: gs.hypergeometric(20, 5.5, 6), "hypergeometric needs a finite whole number successes, got 5.5"),
    "hypergeometric_draws_inf": (
        lambda: gs.hypergeometric(20, 5, math.inf), "hypergeometric needs a finite whole number draws, got inf"),
    "discrete_uniform_fractional": (
        lambda: gs.discrete_uniform(2.5), "discrete uniform needs a finite whole number n, got 2.5"),
    "discrete_uniform_nan": (
        lambda: gs.discrete_uniform(math.nan), "discrete uniform needs a finite whole number n, got nan"),
    # a finite law's table holds at most measures._MAX_TERMS = 2**20 entries, as a truncated one does
    "binomial_n_above_the_table_ceiling": (
        lambda: gs.binomial(2**20, 0.5), "binomial needs n <= 1048575, got 1048576"),
    "discrete_uniform_above_the_table_ceiling": (
        lambda: gs.discrete_uniform(10**12), "discrete uniform needs n <= 1048575, got 1000000000000"),
    "hypergeometric_above_the_table_ceiling": (
        lambda: gs.hypergeometric(2**22, 2**20, 2**21),
        "hypergeometric needs min(successes, draws) <= 1048575, got 1048576"),
    "measure_truncation_bound_fractional": (
        lambda: gs.GibbsMeasure.from_dict(FRACTIONAL_BOUND),
        "measure field 'truncation.bound': truncation needs a finite whole number bound, got 16.9"),
    "measure_binomial_n_fractional": (
        lambda: gs.GibbsMeasure.from_dict(FRACTIONAL_N),
        "measure field 'params': binomial needs a finite whole number n, got 10.5"),
    # an explicit truncation is a whole number in range and tail_tol a real number in (0, 1), on every path
    "truncation_fractional": (
        lambda: gs.poisson(3.0, truncation=16.9), "truncation bound must be a finite whole number, got 16.9"),
    "truncation_negative_fraction": (
        lambda: gs.poisson(3.0, truncation=-0.5), "truncation bound must be a finite whole number, got -0.5"),
    "truncation_nan": (
        lambda: gs.geometric(0.5, truncation=math.nan), "truncation bound must be a finite whole number, got nan"),
    "truncation_inf": (
        lambda: gs.negative_binomial(2.0, 0.5, truncation=math.inf),
        "truncation bound must be a finite whole number, got inf"),
    "truncation_text": (
        lambda: gs.poisson(3.0, truncation="eight"), "truncation bound must be a finite whole number, got 'eight'"),
    "limit_truncation_fractional": (
        lambda: limit_measure(gs.repelling_model(1.0), truncation=9.5),
        "truncation bound must be a finite whole number, got 9.5"),
    "poisson_sum_truncation_fractional": (
        lambda: gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli([0.1, 0.2]), truncation=7.5),
        "truncation bound must be a finite whole number, got 7.5"),
    "truncation_negative": (lambda: gs.poisson(3.0, truncation=-3), "truncation bound must lie in 0..524286, got -3"),
    "truncation_above_the_table_ceiling": (
        lambda: gs.geometric(0.5, truncation=524287), "truncation bound must lie in 0..524286, got 524287"),
    "tail_tol_none": (lambda: gs.poisson(3.0, tail_tol=None), "tail_tol must be a real number, got None"),
    "tail_tol_text": (lambda: gs.poisson(3.0, tail_tol="0.1"), "tail_tol must be a real number, got '0.1'"),
    "limit_tail_tol_text": (
        lambda: limit_measure(gs.product_model(1.0), tail_tol="0.1"), "tail_tol must be a real number, got '0.1'"),
    "tail_tol_zero": (
        lambda: gs.poisson(3.0, tail_tol=0.0), "tail tolerance must lie strictly between 0 and 1, got 0.0"),
    "tail_tol_one": (
        lambda: gs.geometric(0.5, tail_tol=1), "tail tolerance must lie strictly between 0 and 1, got 1"),
    # from_pmf checks the activity before taking its log
    "from_pmf_omega_zero": (
        lambda: gs.from_pmf([1.0, 2.0], omega=0), "activity omega must be a positive finite real, got 0.0"),
    "from_pmf_omega_negative": (
        lambda: gs.from_pmf([1.0, 2.0], omega=-1), "activity omega must be a positive finite real, got -1.0"),
    # size_bias
    "size_bias_empty": (lambda: size_bias([]), "base law must be a non-empty 1-d table"),
    "size_bias_2d": (lambda: size_bias([[1.0]]), "base law must be a non-empty 1-d table"),
    "bernoulli_means_empty": (
        lambda: gs.CouplingSpec.independent_bernoulli([]), "p must be a non-empty vector of Bernoulli means"),
    "conditional_sums_shape": (
        lambda: gs.CouplingSpec([0.5, 0.5], conditional_sums=[[1.0]], independent=False),
        "conditional sums must be an 2x2 table (rows on 0..n-1)"),
    "configurations_empty": (lambda: gs.CouplingSpec.from_configurations([]), "empty configuration list"),
    "configurations_ragged": (
        lambda: gs.CouplingSpec.from_configurations([((0, 1), 0.5), ((1,), 0.5)]),
        "configurations must share one length"),
    "coupling_index_out_of_range": (lambda: coupling_given_index(DEPENDENT, 2), "index out of range"),
    # coupling specs read from JSON
    **{f"spec_{name}": (lambda payload=payload: gs.CouplingSpec.from_dict(payload), message)
       for name, (payload, message) in SPEC_PAYLOADS.items()},
    "sum_size_bias_mismatch": (
        lambda: sum_size_bias(gs.CouplingSpec(
            [0.5, 0.5], conditional_sums=[[0.5, 0.5], [0.5, 0.5]], independent=False, sum_law=[0.5, 0.0, 0.5])),
        "mixture law differs from the size-biased sum law by 5.000e-01; the conditional tables are inconsistent"),
    "size_bias_residual_W_too_long": (
        lambda: stein_residual_via_size_bias(M, np.full(6, 1 / 6), np.array([1.0]), np.zeros(5)),
        "W must live inside the measure's support"),
    "size_bias_residual_Wstar_too_long": (
        lambda: stein_residual_via_size_bias(M, np.array([1.0]), np.full(7, 1 / 7), np.zeros(5)),
        "W* must live inside 0..N+1"),
    # compare, factors, lattice
    "tv_distance_2d": (
        lambda: gs.tv_distance(np.array([[1.0]]), np.array([1.0])), "tv_distance expects 1-d probability tables"),
    "comparison_unknown_source": (
        lambda: gs.generator_comparison(M, M, "bogus"),
        "g_norm_source must be one of ('exact', 'rate_spread', 'user')"),
    "solution_norm_unknown_source": (
        lambda: compare.solution_norm(M, "user"), "g_norm_source must be 'exact' or 'rate_spread'"),
    "comparison_user_without_values": (
        lambda: gs.generator_comparison(M, M, "user"), "user-supplied norms require g_norm_values"),
    "condition_unknown_name": (lambda: factors.condition(M, "bogus"), "unknown condition 'bogus'"),
    "grid_points_unknown_rule": (lambda: grid_points(3, "bogus"), "unknown point rule 'bogus'"),
    "lattice_no_cells": (lambda: gs.lattice_measure(gs.ideal_gas_model(1.0), 0), "need at least one cell"),
    "lattice_cells_above_the_table_ceiling": (
        lambda: gs.lattice_measure(gs.ideal_gas_model(1.0), 10**11), "need at most 1048575 cells, got 100000000000"),
    "lattice_weights_vanish": (
        lambda: gs.lattice_measure(_model("vanishing", log_Wn_fn=lambda n, k: -math.inf), 3),
        "lattice weights vanish inside {0..n}; support must be contiguous"),
    "limit_of_unregistered_kind": (
        lambda: limit_measure(_model("attracting")),
        "model kind 'attracting' has no limit law with a proved tail"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("payload, message", SPEC_PAYLOADS.values(), ids=SPEC_PAYLOADS.keys())
def test_poisson_sum_spec_payload_exits_two_naming_the_field(payload, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    code = main(["poisson-sum", "--spec", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: argument --spec: {message}\n")
