import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import gibbs_stein as gs
from gibbs_stein.lattice import grid_points, lattice_weight_brute

RNG = np.random.default_rng(60221023)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_grid_rules():
    assert grid_points(2, "midpoint") == [0.25, 0.75]
    assert grid_points(4, "left_endpoint") == [0.0, 0.25, 0.5, 0.75]


def test_repelling_lattice_weight_small_case():
    # direct 2-fold sum over the midpoints (1/4, 3/4)
    model = gs.repelling_model(1.0)
    brute = lattice_weight_brute(model, 2, 2)
    assert brute == pytest.approx(0.25, abs=1e-15)
    assert model.Wn(2, 2) == pytest.approx(0.25, rel=1e-12)


def test_product_lattice_weight_small_case():
    # n^{-k^2} (sum i^{k-1})^k at n = 3, k = 2 is (0+1+2)^2/81 = 1/9
    model = gs.product_model(1.0)
    assert model.Wn(3, 2) == pytest.approx(1 / 9, rel=1e-12)
    assert lattice_weight_brute(model, 3, 2) == pytest.approx(1 / 9, rel=1e-12)


def test_closed_form_weights_match_brute_force():
    for model in (gs.repelling_model(1.0), gs.product_model(1.0)):
        for n in range(2, 9):
            if model.kind == "product" and n < 3:
                continue
            for k in range(2, min(n, 5) + 1):
                closed = model.Wn(n, k)
                brute = lattice_weight_brute(model, n, k)
                assert closed == pytest.approx(brute, rel=1e-10)


def test_custom_model_brute_force_and_guard():
    model = gs.custom_model(lambda pts: 1.0, z=1.0)
    assert model.Wn(4, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="guard"):
        lattice_weight_brute(model, 40, 5)


def test_continuum_weights_match_quadrature_oracle():
    # repelling: int of 2(x-y)^2 over the unit square
    val, _ = dblquad(lambda x, y: 2 * (x - y) ** 2, 0, 1, 0, 1)
    assert gs.repelling_model(1.0).W(2) == pytest.approx(val, rel=1e-10)
    assert gs.repelling_model(1.0).W(2) == pytest.approx(1 / 3, rel=1e-12)
    # product: (int x^{k-1})^k = k^{-k}
    for k in (2, 3, 4):
        base, _ = quad(lambda x: x ** (k - 1), 0, 1)
        assert gs.product_model(1.0).W(k) == pytest.approx(base**k, rel=1e-10)


def test_weight_boundary_values():
    for model in (gs.ideal_gas_model(1.0), gs.repelling_model(2.0), gs.product_model(1.0)):
        assert model.W(0) == 1.0 and model.W(1) == 1.0
        assert model.Wn(5, 0) == 1.0 and model.Wn(5, 1) == 1.0


def test_repelling_ratio_identity_holds_from_three_up():
    model = gs.repelling_model(1.0)
    for n in range(3, 11):
        for k in range(3, n + 1):
            lhs = model.Wn(n, k) / model.Wn(n, k - 1)
            rhs = model.W(k) / model.W(k - 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_repelling_ratio_mismatch_at_two_is_exactly_the_volume_factor():
    # the k = 2 ratio carries (n^2-1)/n^2, which is what breaks the
    # conditioned-law identity for this family
    model = gs.repelling_model(1.0)
    for n in range(2, 11):
        lhs = model.Wn(n, 2) / model.Wn(n, 1)
        rhs = model.W(2) / model.W(1)
        assert lhs / rhs == pytest.approx((n * n - 1) / (n * n), rel=1e-12)


def test_product_weight_sandwich_strict():
    model = gs.product_model(1.0)
    for n in range(3, 9):
        for k in range(2, n + 1):
            w = model.Wn(n, k)
            lo = ((n - 1) / n) ** (k * k) * k ** (-float(k))
            hi = k ** (-float(k))
            assert lo < w < hi


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_ideal_gas_lattice_is_conditioned_poisson():
    mu_n = gs.lattice_measure(gs.ideal_gas_model(1.5), 6)
    ref = gs.poisson(1.5, truncation=6)
    assert np.max(np.abs(mu_n.pmf - ref.pmf)) <= 1e-13


def test_repelling_lattice_small_table():
    mu_2 = gs.lattice_measure(gs.repelling_model(1.0), 2)
    expected = np.array([1.0, 1.0, 0.125])
    expected /= expected.sum()
    assert np.allclose(mu_2.pmf, expected, atol=1e-14)


def test_repelling_limit_partition_and_head():
    # substitution at lam = 1: partition 2 + e/6, head value 1/(2 + e/6)
    mu = gs.limit_measure(gs.repelling_model(1.0))
    z_val = gs.repelling_limit_partition(1.0)
    assert z_val == pytest.approx(2.0 + math.e / 6.0, rel=1e-15)
    assert mu.pmf[0] == pytest.approx(1.0 / z_val, abs=1e-12)
    assert mu.pmf[1] == pytest.approx(1.0 / z_val, abs=1e-12)
    # mu(k) proportional to lam^k/(6 (k-2)!) for k >= 2
    for k in (2, 3, 5):
        assert mu.pmf[k] == pytest.approx(
            1.0 / (6.0 * math.factorial(k - 2) * z_val), abs=1e-12
        )


def test_product_limit_partition_regression():
    # independent series oracle: Z = sum k^-k / k! (the e^(1/e) cap quoted
    # alongside this family is false; 1 <= Z is all that survives)
    mu = gs.limit_measure(gs.product_model(1.0), truncation=40)
    z_val = math.fsum(
        math.exp((0.0 if k <= 1 else -k * math.log(k)) - math.lgamma(k + 1))
        for k in range(41)
    )
    assert z_val == pytest.approx(2.1313382966006262, abs=1e-12)
    assert z_val > math.exp(1 / math.e)
    assert mu.pmf[0] == pytest.approx(1.0 / z_val, abs=1e-12)


def test_limit_measure_truncation_policy():
    mu = gs.limit_measure(gs.repelling_model(1.0), tail_tol=1e-10)
    assert mu.truncation is not None
    assert mu.truncation.tail_mass <= 1e-10
    mu60 = gs.limit_measure(gs.repelling_model(1.0), truncation=60)
    assert mu60.support_max == 60


def test_divergent_custom_series_rejected():
    grower = gs.custom_model(
        lambda pts: 1.0, z=1.0, log_W_fn=lambda k: float(k * k)
    )
    with pytest.raises(ValueError, match="geometric|divergent"):
        gs.limit_measure(grower)


def test_product_lattice_needs_three_cells():
    with pytest.raises(ValueError, match="n >= 3"):
        gs.lattice_measure(gs.product_model(1.0), 2)


def test_custom_without_continuum_weights_rejected():
    model = gs.custom_model(lambda pts: 1.0, z=1.0)
    with pytest.raises(ValueError, match="continuum"):
        gs.limit_measure(model)


def test_custom_separable_quadrature():
    # same integrand family as the product model, so the weights must agree
    model = gs.custom_model(
        _product_fk, z=1.0, point_rule="left_endpoint",
        separable_integrand=lambda k: (lambda x: x ** (k - 1)),
    )
    ref = gs.product_model(1.0)
    for k in (2, 3, 4):
        assert model.W(k) == pytest.approx(ref.W(k), rel=1e-9)


def _product_fk(points):
    k = len(points)
    if k <= 1:
        return 1.0
    return math.prod(x ** (k - 1) for x in points)


def test_lattice_measure_normalizer_independent():
    model = gs.repelling_model(2.0)
    mu = gs.lattice_measure(model, 5)
    re = mu.reparametrized(3.0)
    assert np.max(np.abs(re.pmf - mu.pmf)) <= 1e-13


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

def test_ideal_gas_report_reduces_to_tail():
    rep = gs.lattice_comparison_report(gs.ideal_gas_model(1.0), 4)
    assert rep.omega_term == 0.0
    assert rep.ratio_term == pytest.approx(0.0, abs=1e-14)
    assert rep.generator_bound == pytest.approx(rep.tail_term, abs=1e-13)
    assert rep.exact_tv == pytest.approx(rep.tail_term, abs=1e-13)


def test_generator_bound_dominates_exact_tv_for_all_models():
    for model, ns in (
        (gs.ideal_gas_model(1.0), (2, 5, 9)),
        (gs.repelling_model(0.5), (2, 4, 8)),
        (gs.repelling_model(1.0), (2, 4, 8)),
        (gs.product_model(1.0), (3, 6, 10)),
    ):
        for n in ns:
            rep = gs.lattice_comparison_report(model, n)
            assert rep.generator_bound >= rep.exact_tv - 1e-10


def test_per_branch_norms_never_looser():
    for model in (gs.repelling_model(1.0), gs.product_model(1.0)):
        n = 4 if model.kind == "repelling" else 5
        loose = gs.lattice_comparison_report(model, n)
        tight = gs.lattice_comparison_report(model, n, per_branch_norms=True)
        assert tight.generator_bound <= loose.generator_bound + 1e-12
        assert tight.generator_bound >= tight.exact_tv - 1e-10


def test_product_ratio_term_capped():
    # exact ratio sum stays under 2 e^e / n
    model = gs.product_model(1.0)
    for n in range(3, 10):
        rep = gs.lattice_comparison_report(model, n)
        assert rep.ratio_term <= 2.0 * math.exp(math.e) / n


def test_repelling_ratio_term_is_the_k2_defect():
    # only the k = 2 ratio contributes: 2 mu_n(2) / (n^2 - 1)
    model = gs.repelling_model(1.0)
    for n in (2, 4, 7):
        rep = gs.lattice_comparison_report(model, n)
        mu_n = gs.lattice_measure(model, n)
        expected = 2.0 * mu_n.pmf[2] / (n * n - 1)
        assert rep.ratio_term == pytest.approx(expected, rel=1e-9)


def test_report_components_nonnegative_and_csv_row():
    rep = gs.lattice_comparison_report(gs.product_model(1.0), 5)
    assert rep.omega_term >= 0 and rep.ratio_term >= 0 and rep.tail_term >= 0
    row = rep.to_csv_row()
    assert row[0] == 5 and len(row) == 7


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_repelling_closed_form_values():
    # substitution: lam = 1, n = 2 gives e/(12 + e)
    model = gs.repelling_model(1.0)
    assert gs.closed_form_bound(model, 2) == pytest.approx(
        math.e / (12.0 + math.e), rel=1e-12
    )
    values = [gs.closed_form_bound(model, n) for n in range(2, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_product_closed_form_regression():
    # frozen from the formula 2 e^(e+1/e)/n + e^(1/n) n^-(n+1)/(n+1)!
    model = gs.product_model(1.0)
    expected = 2.0 * math.exp(math.e + 1.0 / math.e) / 3.0 + math.exp(1.0 / 3.0) / (
        3.0**4 * math.factorial(4)
    )
    got = gs.closed_form_bound(model, 3)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(14.595968319345346, rel=1e-10)


def test_closed_form_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        gs.closed_form_bound(gs.product_model(1.0), 2)
    with pytest.raises(ValueError, match="activity 1"):
        gs.closed_form_bound(gs.product_model(0.5), 4)
    with pytest.raises(ValueError, match="no closed-form"):
        gs.closed_form_bound(gs.ideal_gas_model(1.0), 4)


# ---------------------------------------------------------------------------
# coupling bounds for Bernoulli sums
# ---------------------------------------------------------------------------

def test_harmonic_partial_sum():
    assert gs.harmonic_between(3, 1) == pytest.approx(1 / 2 + 1 / 3)
    assert gs.harmonic_between(1, 3) == pytest.approx(1 / 2 + 1 / 3)
    assert gs.harmonic_between(4, 4) == 0.0


def test_coupling_bound_poisson_target_drops_norm_part():
    p = [0.3, 0.2, 0.25, 0.15]
    spec = gs.CouplingSpec.independent_bernoulli(p)
    target = gs.poisson(sum(p))
    cb = gs.sum_coupling_bound(target, spec)
    assert cb.norm_part == 0.0
    assert cb.licensed
    # never looser than the first-moment coupling form
    rep = gs.poisson_sum_bounds(spec)
    assert cb.value <= rep.linear_coupling_bound + 1e-12
    assert rep.exact_tv <= cb.value + 1e-10


def test_coupling_bound_flags_nonmonotone_rates():
    spec = gs.CouplingSpec.independent_bernoulli([0.2, 0.2])
    target = gs.geometric(0.5, truncation=30)
    cb = gs.sum_coupling_bound(target, spec)
    assert not cb.licensed
    assert cb.conditions[0].name == "rates_nonincreasing"


def test_coupling_bound_dominates_for_gibbs_targets():
    # binomial target has nonincreasing rates, so the certificate is licensed
    spec = gs.CouplingSpec.independent_bernoulli([0.25, 0.3, 0.2])
    target = gs.binomial(8, 0.1)
    cb = gs.sum_coupling_bound(target, spec)
    assert cb.licensed
    tv = gs.tv_distance(spec.sum_law(), target.pmf)
    assert cb.value >= tv - 1e-10


def test_coupling_bound_requires_nested_support():
    spec = gs.CouplingSpec.independent_bernoulli([0.5] * 10)
    with pytest.raises(ValueError, match="support"):
        gs.sum_coupling_bound(gs.poisson(1.0, truncation=4), spec)


# ---------------------------------------------------------------------------
# Poisson sums
# ---------------------------------------------------------------------------

def test_poisson_sum_point_mass_example():
    # p = (1, 0, ..., 0): the sum is the point mass at 1
    spec = gs.CouplingSpec.independent_bernoulli([1.0, 0.0, 0.0, 0.0])
    rep = gs.poisson_sum_bounds(spec)
    assert rep.exact_tv == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert rep.independent_bound >= rep.exact_tv - 1e-10
    assert rep.improved_bound >= rep.exact_tv - 1e-10


def test_poisson_sum_single_bernoulli():
    spec = gs.CouplingSpec.independent_bernoulli([0.4])
    rep = gs.poisson_sum_bounds(spec)
    lam = 0.4
    target = gs.poisson(lam)
    direct = gs.tv_distance(np.array([0.6, 0.4]), target.pmf)
    assert rep.exact_tv == pytest.approx(direct, abs=1e-14)
    assert rep.improved_bound >= rep.exact_tv - 1e-10


def test_poisson_sum_bound_ordering():
    for _ in range(10):
        n = int(RNG.integers(2, 13))
        p = RNG.uniform(0.02, 0.95, n)
        rep = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli(p))
        assert rep.exact_tv <= rep.improved_bound + 1e-10
        assert rep.improved_bound <= rep.independent_bound + 1e-12
        assert rep.exact_tv <= rep.harmonic_coupling_bound + 1e-10
        assert rep.harmonic_coupling_bound <= rep.linear_coupling_bound + 1e-12


def test_poisson_sum_iid_improved_equals_plain():
    rep = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli([0.2] * 8))
    assert rep.improved_bound == pytest.approx(rep.independent_bound, abs=1e-15)


def test_poisson_sum_inhomogeneous_improvement():
    # strongly inhomogeneous means with small total activity benefit from
    # the conditional-vacancy branch
    p = [0.95] + [0.01] * 4
    rep = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli(p))
    assert rep.improved_bound < rep.independent_bound


def test_poisson_sum_tiny_means_give_positive_bounds():
    # the laws differ, so no bound may collapse to 0 through cancellation
    rep = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli([1e-17, 1e-17]), truncation=5)
    for value in (rep.harmonic_coupling_bound, rep.linear_coupling_bound,
                  rep.independent_bound, rep.improved_bound):
        assert value > 0.0
        assert value >= rep.exact_tv - 1e-10


def test_poisson_sum_dependent_spec_has_no_independent_forms():
    spec = gs.CouplingSpec.from_configurations([((0, 0), 0.6), ((1, 1), 0.4)])
    rep = gs.poisson_sum_bounds(spec)
    assert rep.independent_bound is None
    assert rep.improved_bound is None
    assert rep.exact_tv <= rep.linear_coupling_bound + 1e-10
    assert rep.exact_tv <= rep.harmonic_coupling_bound + 1e-10


def test_custom_model_full_lattice_pipeline():
    # a bounded pairwise attraction with no closed form: exercised through
    # the brute-force weight path end to end
    def attract(points):
        k = len(points)
        if k <= 1:
            return 1.0
        return math.prod(
            1.0 - 0.5 * abs(points[a] - points[b])
            for a in range(k)
            for b in range(a + 1, k)
        )

    model = gs.custom_model(attract, z=1.0, point_rule="midpoint")
    mu_n = gs.lattice_measure(model, 5)
    assert mu_n.support_max == 5
    assert mu_n.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # weights agree with an independent recomputation over the same grid
    grid = grid_points(5, "midpoint")
    for k in (2, 3):
        direct = math.fsum(
            attract(points) for points in itertools.product(grid, repeat=k)
        ) / 5.0**k
        assert model.Wn(5, k) == pytest.approx(direct, rel=1e-12)
