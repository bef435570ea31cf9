import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import gibbs_stein as gs
from gibbs_stein import measures
from gibbs_stein.factors import uniform_increment
from gibbs_stein.compare import mismatch_terms, solution_norm
from gibbs_stein import lattice
from gibbs_stein.lattice import InteractionModel, limit_measure, repelling_limit_partition
from gibbs_stein.stein import sup_solution_table
from gibbs_stein.oracle import (
    bernoulli_convolution, coupling_given_index, grid_points, harmonic_between, lattice_weight_brute,
)

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


def test_brute_force_weight_and_guard():
    model = gs.ideal_gas_model(1.0)
    assert lattice_weight_brute(model, 4, 3) == pytest.approx(1.0)
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


def _product_log_weights_per_k(n):
    """log W_n(k) for k = 0..n, one max-shifted log-sum-exp per k."""
    logs = np.log(np.arange(1.0, n))
    return np.array([0.0, 0.0][: n + 1] + [
        -k * k * math.log(n) + k * measures._logsumexp((k - 1) * logs) for k in range(2, n + 1)
    ])


def test_product_weight_table_is_the_per_k_reference_bit_for_bit():
    models = [gs.product_model(z) for z in (0.5, 1.0, 2.0)]
    for n in range(1, 301):
        expected = _product_log_weights_per_k(n)
        for model in models:
            assert model.log_Wn_table(n).tobytes() == expected.tobytes(), (model.z, n)
            if 3 <= n <= 80:
                mu_n = gs.lattice_measure(model, n)
                reference = gs.GibbsMeasure(model.z, expected, kind="product_lattice",
                                            params={"n": n, "z": model.z})
                assert mu_n.pmf.tobytes() == reference.pmf.tobytes(), (model.z, n)
    # n = 300 fills 3 blocks of rows; n = 1500 fills 72, of 21 rows each but the last
    assert 299 * 299 > 2 * lattice._BLOCK
    table = gs.product_model(1.0).log_Wn_table(1500)
    assert table.tobytes() == _product_log_weights_per_k(1500).tobytes()
    assert gs.product_model(1.0).log_Wn(1500, 700) == table[700]


def test_product_weight_table_works_in_bounded_blocks():
    # the whole (k, i) table at n = 3000 would take 72 MB
    model = gs.product_model(1.0)
    tracemalloc.start()
    try:
        model.log_Wn_table(3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * lattice._BLOCK * 8


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
    mu = limit_measure(gs.repelling_model(1.0))
    z_val = repelling_limit_partition(1.0)
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
    mu = limit_measure(gs.product_model(1.0), truncation=40)
    z_val = math.fsum(
        math.exp((0.0 if k <= 1 else -k * math.log(k)) - math.lgamma(k + 1))
        for k in range(41)
    )
    assert z_val == pytest.approx(2.1313382966006262, abs=1e-12)
    assert z_val > math.exp(1 / math.e)
    assert mu.pmf[0] == pytest.approx(1.0 / z_val, abs=1e-12)


def test_limit_measure_truncation_policy():
    mu = limit_measure(gs.repelling_model(1.0), tail_tol=1e-10)
    assert mu.truncation is not None
    assert mu.truncation.tail_mass <= 1e-10
    mu60 = limit_measure(gs.repelling_model(1.0), truncation=60)
    assert mu60.support_max == 60


def test_series_too_slow_for_the_term_ceiling_rejected():
    # ratio 1 - 1e-7: a tail below the default tolerance needs far more than 2^20 terms
    with pytest.raises(ValueError, match="^no truncation within 1048576 terms .* divergent$"):
        gs.geometric(1e-7)


def test_product_lattice_needs_three_cells():
    with pytest.raises(ValueError, match="n >= 3"):
        gs.lattice_measure(gs.product_model(1.0), 2)


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
    assert rep.terms[0] == 0.0
    assert rep.terms[1] == pytest.approx(0.0, abs=1e-14)
    assert rep.certified_bound == pytest.approx(rep.tail_term, abs=1e-13)
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
            assert rep.certified_bound >= rep.exact_tv - 1e-10


@pytest.mark.parametrize("make", [gs.product_model, gs.repelling_model, gs.ideal_gas_model],
                         ids=["product", "repelling", "ideal_gas"])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_report_keeps_the_comparisons_certificate(make, z):
    # the report is generator_comparison(limit, lattice law) itself, as a dataclass
    model = make(z)
    limit = limit_measure(model)
    for n in range(max(model.min_cells, 3), 40, 6):
        assert gs.lattice_comparison_report(model, n, limit) == gs.generator_comparison(
            limit, gs.lattice_measure(model, n)), n


def _hex_fields(rep):
    def hexed(value):
        if isinstance(value, tuple):
            return tuple(map(hexed, value))
        return value.hex() if isinstance(value, float) else value

    return {key: hexed(value) for key, value in vars(rep).items()}


@pytest.mark.parametrize("model", [gs.ideal_gas_model(2.0), gs.repelling_model(1.0), gs.product_model(1.0)],
                         ids=lambda m: m.kind)
def test_report_without_a_limit_law_builds_the_default_one(model):
    limit = limit_measure(model)
    big_n = limit.support_max
    for n in (max(big_n // 2, model.min_cells), big_n, big_n + 3):
        rep = gs.lattice_comparison_report(model, n)
        given = gs.lattice_comparison_report(model, n, limit=limit)
        assert _hex_fields(rep) == _hex_fields(given), n


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_every_model_rejects_an_activity_that_is_not_positive(bad):
    for make in (gs.ideal_gas_model, gs.repelling_model, gs.product_model):
        with pytest.raises(ValueError, match="^activity must be positive$"):
            make(bad)


def _former_branches(model, n):
    """The branch terms, norms and tail of the former lattice-local certificate.

    It always extended the lattice law and charged the limit's mass above n,
    whichever support was the larger.
    """
    mu_n, mu = gs.lattice_measure(model, n), limit_measure(model)
    norm_limit = solution_norm(mu, f_support=n)
    norm_lattice = solution_norm(mu_n, extended=True)
    tail = math.fsum(mu.pmf[n + 1 :].tolist())
    return mismatch_terms(mu, mu_n), mismatch_terms(mu_n, mu), norm_limit, norm_lattice, tail


def per_branch_reference(model, n):
    """(branch, bound, terms, norm) with each norm attached to its own branch.

    The branch is named as `generator_comparison` lists the pair: the limit
    law first unless N > n.
    """
    a, b, norm_limit, norm_lattice, tail = _former_branches(model, n)
    value_a, value_b = norm_limit * (a[0] + a[1]), norm_lattice * (b[0] + b[1])
    limit_solves = value_a <= value_b
    limit_first = limit_measure(model).support_max <= n
    branch = "direction_1_to_2" if limit_solves == limit_first else "direction_2_to_1"
    if limit_solves:
        return branch, value_a + tail, a, norm_limit
    return branch, value_b + tail, b, norm_lattice


def max_norm_reference(model, n):
    """The bound with the larger norm times the smaller branch sum."""
    a, b, norm_limit, norm_lattice, tail = _former_branches(model, n)
    comps = a if a[0] + a[1] <= b[0] + b[1] else b
    return max(norm_limit, norm_lattice) * (comps[0] + comps[1]) + tail


REFERENCE_MODELS = (gs.ideal_gas_model(1.0), gs.repelling_model(1.0), gs.product_model(1.0))


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.kind)
@pytest.mark.parametrize("offset", [-3, 0, 4], ids=["below_N", "at_N", "above_N"])
def test_report_matches_the_per_branch_reference(model, offset):
    N = limit_measure(model).support_max
    n = N + offset
    rep = gs.lattice_comparison_report(model, n)
    branch, bound, terms, norm = per_branch_reference(model, n)
    mu_n, mu = gs.lattice_measure(model, n), limit_measure(model)
    assert rep.exact_tv == gs.tv_distance(mu_n.pmf, mu.pmf)
    if n <= N:
        assert rep.branch_used == branch
        assert rep.certified_bound == bound
        assert (rep.terms, rep.g_norms[0 if branch == "direction_1_to_2" else 1]) == (terms, norm)
        assert rep.tail_term == math.fsum(mu.pmf[n + 1 :].tolist())
        assert rep.certified_bound <= max_norm_reference(model, n)
    else:
        # the limit law is the one extended, so the lattice mass above N is charged
        assert rep.tail_term == math.fsum(mu_n.pmf[N + 1 :].tolist())
        assert rep.certified_bound >= bound
    assert rep.certified_bound >= rep.exact_tv - 1e-10


@pytest.mark.parametrize(
    "model",
    [gs.ideal_gas_model(2.0), gs.repelling_model(1.0)],
    ids=lambda m: m.kind,
)
def test_limit_truncated_below_n_still_dominates(model):
    rep = gs.lattice_comparison_report(model, 10, limit=limit_measure(model, truncation=5))
    mu_n = gs.lattice_measure(model, 10)
    assert rep.tail_term == math.fsum(mu_n.pmf[6:].tolist())
    assert rep.certified_bound >= rep.exact_tv - 1e-10


@pytest.mark.parametrize(
    "model, n",
    [
        (gs.ideal_gas_model(0.6524698737873694), 117),
        (gs.repelling_model(0.6965633921780648), 18),
        (gs.product_model(1.0), 30),
    ],
    ids=lambda v: getattr(v, "kind", str(v)),
)
def test_default_truncation_below_n_charges_the_lattice_tail(model, n):
    N = limit_measure(model).support_max
    assert N < n
    rep = gs.lattice_comparison_report(model, n)
    mu_n = gs.lattice_measure(model, n)
    assert rep.tail_term == math.fsum(mu_n.pmf[N + 1 :].tolist())
    assert rep.certified_bound >= rep.exact_tv - 1e-10


def test_product_ratio_term_capped():
    # exact ratio sum stays under 2 e^e / n
    model = gs.product_model(1.0)
    for n in range(3, 10):
        rep = gs.lattice_comparison_report(model, n)
        assert rep.terms[1] <= 2.0 * math.exp(math.e) / n


def test_repelling_ratio_term_is_the_k2_defect():
    # only the k = 2 ratio contributes: 2 mu_n(2) / (n^2 - 1)
    model = gs.repelling_model(1.0)
    for n in (2, 4, 7):
        rep = gs.lattice_comparison_report(model, n)
        mu_n = gs.lattice_measure(model, n)
        expected = 2.0 * mu_n.pmf[2] / (n * n - 1)
        assert rep.terms[1] == pytest.approx(expected, rel=1e-9)


def test_report_components_nonnegative():
    rep = gs.lattice_comparison_report(gs.product_model(1.0), 5)
    assert rep.terms[0] >= 0 and rep.terms[1] >= 0 and rep.tail_term >= 0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_repelling_closed_form_values():
    # substitution: lam = 1, n = 2 gives e/(12 + e)
    model = gs.repelling_model(1.0)
    assert model.closed_form(2) == pytest.approx(
        math.e / (12.0 + math.e), rel=1e-12
    )
    values = [model.closed_form(n) for n in range(2, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_product_closed_form_regression():
    # frozen from the formula 2 e^(e+1/e)/n + e^(1/n) n^-(n+1)/(n+1)!
    model = gs.product_model(1.0)
    expected = 2.0 * math.exp(math.e + 1.0 / math.e) / 3.0 + math.exp(1.0 / 3.0) / (
        3.0**4 * math.factorial(4)
    )
    got = model.closed_form(3)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(14.595968319345346, rel=1e-10)


def test_closed_form_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        gs.product_model(1.0).closed_form(2)
    with pytest.raises(ValueError, match="activity 1"):
        gs.product_model(0.5).closed_form(4)


# ---------------------------------------------------------------------------
# coupling bounds for Bernoulli sums
# ---------------------------------------------------------------------------

def test_harmonic_partial_sum():
    assert harmonic_between(3, 1) == pytest.approx(1 / 2 + 1 / 3)
    assert harmonic_between(1, 3) == pytest.approx(1 / 2 + 1 / 3)
    assert harmonic_between(4, 4) == 0.0
    for x, y in ((-2, 3), (3, -2), (-3, -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            harmonic_between(x, y)


def mixture_spec(rng, n, mean, zero_at=()):
    """Dependent spec: the coordinates are independent given a fair two-way label.

    Coordinates in zero_at are always 0, and their rows (never read) uniform.
    """
    a = np.clip(mean * 1.6 * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
    b = np.clip(mean * 0.6 * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
    a[list(zero_at)] = b[list(zero_at)] = 0.0
    p = 0.5 * a + 0.5 * b
    cond = np.array([
        0.5 * a[i] * bernoulli_convolution(np.delete(a, i))
        + 0.5 * b[i] * bernoulli_convolution(np.delete(b, i))
        for i in range(n)
    ]) / np.where(p > 0.0, p, 1.0)[:, None]
    cond[list(zero_at)] = 1.0 / n
    return gs.CouplingSpec(p, conditional_sums=cond)


def tuple_loop_increment(m, spec):
    """The increment part of sum_coupling_bound, one coupled pair at a time."""
    b = m.birth_rates
    family_cap = uniform_increment(m.kind, m.params)
    pieces = []
    for i in range(spec.n):
        if spec.p[i] <= 0.0:
            continue
        for pr, s, s_hat in coupling_given_index(spec, i):
            if s == s_hat or pr == 0.0:
                continue
            rate_weight = b[s] / m.omega
            if rate_weight == 0.0:
                continue
            low = min(s, s_hat)
            cap = 1.0 / b[low] if b[low] > 0 else math.inf
            if family_cap is not None:
                cap = min(cap, family_cap)
            term = min(harmonic_between(s, s_hat), abs(s - s_hat) * cap)
            pieces.append((spec.p[i] / spec.lam) * pr * rate_weight * term)
    return m.omega * math.fsum(pieces)


COUPLING_SPECS = {
    "independent": gs.CouplingSpec.independent_bernoulli([0.3, 0.2, 0.25, 0.15, 0.4]),
    "independent_p0_p1": gs.CouplingSpec.independent_bernoulli([1.0, 0.0, 0.4, 0.7, 0.2]),
    "mixture_9": mixture_spec(np.random.default_rng(17), 9, 0.2),
    "mixture_14": mixture_spec(np.random.default_rng(18), 14, 0.05),
    "mixture_40": mixture_spec(np.random.default_rng(19), 40, 0.1),  # several blocks of indices
    "mixture_p0": mixture_spec(np.random.default_rng(20), 8, 0.2, zero_at=(0, 3)),
    "configurations": gs.CouplingSpec.from_configurations(
        [((0, 0, 0), 0.2), ((1, 0, 1), 0.3), ((1, 1, 1), 0.1), ((0, 1, 0), 0.4)]
    ),
    "configurations_p0_p1": gs.CouplingSpec.from_configurations(
        [((1, 0, 0), 0.5), ((1, 1, 0), 0.25), ((1, 0, 1), 0.25)]
    ),
}


@pytest.mark.parametrize("name", sorted(COUPLING_SPECS))
def test_coupling_bound_slabs_equal_tuple_loop(name):
    spec = COUPLING_SPECS[name]
    n, lam = spec.n, spec.lam
    # poisson and geometric carry a family increment cap, the others do not;
    # the *_n targets end at N = n, where b[N] = 0
    targets = {
        "poisson": gs.poisson(lam, truncation=n + 15),
        "poisson_n": gs.poisson(lam, truncation=n),
        "geometric": gs.geometric(0.5, truncation=n + 5),
        "geometric_n": gs.geometric(0.4, truncation=n),
        "binomial": gs.binomial(n + 3, lam / (n + 3)),
        "binomial_n": gs.binomial(n, min(lam / n, 0.9)),
        "uniform_n": gs.discrete_uniform(n),
    }
    for target_name, m in targets.items():
        cb = gs.sum_coupling_bound(m, spec)
        reference = tuple_loop_increment(m, spec)
        assert cb.increment_part.hex() == reference.hex(), target_name
        assert cb.value == cb.increment_part + cb.norm_part


@pytest.mark.parametrize("name", sorted(COUPLING_SPECS))
def test_poisson_sum_bounds_equal_the_tuple_loop(name):
    spec = COUPLING_SPECS[name]
    rep = gs.poisson_sum_bounds(spec)
    target = gs.poisson(spec.lam, truncation=max(spec.n, gs.poisson(spec.lam).support_max))
    cb = gs.sum_coupling_bound(target, spec)
    assert rep.harmonic_coupling_bound.hex() == (tuple_loop_increment(target, spec) + cb.norm_part).hex()
    # independent coordinates take E_i |S - Shat_i| = p_i in closed form
    gaps = [
        spec.p[i] * (spec.p[i] if spec.independent else math.fsum(
            pr * abs(s - s_hat) for pr, s, s_hat in coupling_given_index(spec, i)))
        for i in range(spec.n)
        if spec.p[i] > 0.0
    ]
    factor = uniform_increment(target.kind, target.params)
    assert rep.linear_coupling_bound.hex() == (factor * math.fsum(gaps)).hex()


def _independent_specs():
    rng = np.random.default_rng(1729)
    specs = [spec for spec in COUPLING_SPECS.values() if spec.independent]
    for _ in range(300):
        p = rng.uniform(0.0, 1.0, int(rng.integers(1, 40)))
        p[1:][rng.uniform(size=p.size - 1) < 0.1] = 0.0  # p[0] > 0 keeps lambda positive
        specs.append(gs.CouplingSpec.independent_bernoulli(p.tolist()))
    return specs


def test_independent_bound_is_the_linear_coupling_bound():
    # factor * sum p_i^2 is the linear form with E_i |S - Shat_i| = p_i, bit for bit
    for spec in _independent_specs():
        rep = gs.poisson_sum_bounds(spec)
        target = gs.poisson(spec.lam, truncation=max(spec.n, gs.poisson(spec.lam).support_max))
        closed_form = uniform_increment(target.kind, target.params) * math.fsum((spec.p**2).tolist())
        assert rep.independent_bound.hex() == rep.linear_coupling_bound.hex() == closed_form.hex(), spec.p


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
    with pytest.raises(ValueError, match=r"target support \(n = 10 > N = 4\)"):
        gs.sum_coupling_bound(gs.poisson(1.0, truncation=4), spec)


# exact suprema overflow to inf at j = 1, 2, 3; the solution's also at its arguments 1 and 2
OVERFLOWING = gs.from_pmf([1, 1e-300, 2e-310, 2e-310, 1e-300, 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [[0.5] * 3, [1.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
def test_pointwise_bound_is_inf_where_an_overflowed_supremum_meets_a_gap(p):
    cb = gs.sum_coupling_bound(OVERFLOWING, gs.CouplingSpec.independent_bernoulli(p))
    assert cb.pointwise_bound == cb.certified_bound == math.inf


@pytest.mark.filterwarnings("error")
def test_overflowed_suprema_at_zero_gaps_add_nothing():
    # S = 4 and Shat_i = 3 surely: the one CDF gap is at j = 4 and all mass at s = 4
    w, G = gs.sup_increment_table(OVERFLOWING), sup_solution_table(OVERFLOWING)
    assert np.isinf(w[:3]).all() and np.isinf(G[1:3]).all()
    cb = gs.sum_coupling_bound(OVERFLOWING, gs.CouplingSpec.independent_bernoulli([1.0] * 4))
    expected = math.fsum([float(w[3])] * 4) + abs(OVERFLOWING.birth_rates[4] - 4.0) * G[4]
    assert cb.pointwise_bound == expected < math.inf


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


@pytest.mark.parametrize(
    "spec",
    [
        gs.CouplingSpec.independent_bernoulli([0.05] * 60),
        mixture_spec(np.random.default_rng(19), 40, 0.03),
    ],
    ids=["iid_60", "mixture_40"],
)
def test_poisson_sum_target_reaches_past_the_sum(spec):
    # the tail-mass truncation of Poisson(lam) alone stops short of n
    assert gs.poisson(spec.lam).support_max < spec.n
    rep = gs.poisson_sum_bounds(spec)
    assert rep.exact_tv > 0.0
    for name in ("harmonic_coupling_bound", "linear_coupling_bound",
                 "independent_bound", "improved_bound"):
        value = getattr(rep, name)
        if value is not None:
            assert value >= rep.exact_tv, name
    with pytest.raises(ValueError, match="must live inside the target support"):
        gs.poisson_sum_bounds(spec, truncation=spec.n - 1)


@pytest.mark.parametrize("lam, n", [(0.5, 4), (0.5, 30), (3.0, 10), (1.9, 60), (20.0, 40), (40.0, 300)])
def test_poisson_target_with_a_floor_equals_the_two_step_build(lam, n):
    # the automatic truncation raised to n is the explicit truncation n, bit for bit
    expected = gs.poisson(lam)
    if expected.support_max < n:
        expected = gs.poisson(lam, truncation=n)
    got = measures._poisson(lam, None, measures.DEFAULT_TAIL_TOL, least=n)
    assert got.support_max == max(n, gs.poisson(lam).support_max)
    assert got.V.tobytes() == expected.V.tobytes() and got.omega == expected.omega
    assert got.truncation == expected.truncation and got.params == expected.params


def test_poisson_sum_bounds_build_the_target_once(monkeypatch):
    searches = []
    truncated = measures._truncated
    monkeypatch.setattr(measures, "_truncated", lambda *a, **k: searches.append(1) or truncated(*a, **k))
    for p in ([0.05] * 60, [0.3, 0.2]):
        searches.clear()
        gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli(p))
        assert len(searches) == 1


def test_poisson_sum_dependent_spec_has_no_independent_forms():
    spec = gs.CouplingSpec.from_configurations([((0, 0), 0.6), ((1, 1), 0.4)])
    rep = gs.poisson_sum_bounds(spec)
    assert rep.independent_bound is None
    assert rep.improved_bound is None
    assert rep.exact_tv <= rep.linear_coupling_bound + 1e-10
    assert rep.exact_tv <= rep.harmonic_coupling_bound + 1e-10


def test_custom_model_full_lattice_pipeline():
    # a bounded pairwise attraction with no closed form, built directly as an
    # InteractionModel whose lattice weights are explicit grid sums
    def attract(points):
        k = len(points)
        if k <= 1:
            return 1.0
        return math.prod(
            1.0 - 0.5 * abs(points[a] - points[b])
            for a in range(k)
            for b in range(a + 1, k)
        )

    def direct(n, k):
        grid = grid_points(n, "midpoint")
        return math.fsum(attract(points) for points in itertools.product(grid, repeat=k)) / float(n) ** k

    def no_continuum_weights(k):
        raise AssertionError("the lattice law must not ask for continuum weights")

    z = 1.5
    def log_wn(n):
        return [math.log(direct(n, k)) for k in range(2, n + 1)]

    model = InteractionModel("attract", z, log_wn, no_continuum_weights)
    mu_n = gs.lattice_measure(model, 5)
    assert mu_n.kind == "attract_lattice" and mu_n.support_max == 5
    assert mu_n.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    weights = np.array([z**k / math.factorial(k) * direct(5, k) for k in range(6)])
    np.testing.assert_allclose(mu_n.pmf, weights / weights.sum(), rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="'attract' has no limit law"):
        limit_measure(model)


@pytest.mark.parametrize("p, truncation", [
    ([0.95] + [0.01] * 4, None),
    ([1.0, 0.0, 0.4, 0.7, 0.2], None),
    ([0.4], None),
    ([1e-17, 1e-17], 5),
    (list(np.random.default_rng(23).uniform(0.0, 0.08, 30)), None),
    # p ** 2 goes through C pow, which gives 0.48564131276226014 here, half an ulp off p * p
    ([0.6968796974817534], None),
], ids=["inhomogeneous", "p0_p1", "n1", "tiny", "uniform_30", "pow_misrounds"])
def test_improved_bound_equals_product_form(p, truncation):
    spec = gs.CouplingSpec.independent_bernoulli(p)
    rep = gs.poisson_sum_bounds(spec, truncation=truncation)
    target = gs.poisson(spec.lam, truncation=truncation)
    if truncation is None and target.support_max < spec.n:
        target = gs.poisson(spec.lam, truncation=spec.n)
    factor = uniform_increment(target.kind, target.params)
    terms = []
    for i in range(spec.n):
        if spec.p[i] == 0.0:
            continue
        none_else = math.prod(1.0 - pj for j, pj in enumerate(spec.p) if j != i)
        terms.append(spec.p[i] * spec.p[i] * min(0.5 * (1.0 + none_else), factor))
    assert rep.improved_bound.hex() == math.fsum(terms).hex()


def spread_means(n, lo, hi, step):
    """n means in [lo, hi) spread by an irrational rotation, with no random draw."""
    return lo + (hi - lo) * ((np.arange(n) * step) % 1.0)


def pinned_mixture_spec(n):
    a = spread_means(n, 0.02, 0.3, 0.6180339887498949)
    b = spread_means(n, 0.01, 0.12, 0.4142135623730951)
    p = 0.4 * a + 0.6 * b
    cond = np.array([
        0.4 * a[i] * bernoulli_convolution(np.delete(a, i))
        + 0.6 * b[i] * bernoulli_convolution(np.delete(b, i))
        for i in range(n)
    ]) / p[:, None]
    return gs.CouplingSpec(p, conditional_sums=cond)


# hex values at n = 120, as the fsum-per-piece implementation computes them on targets
# built by the numpy log-Gamma and log-sum-exp of `measures`; the dependent spec takes
# the monotone coupling, the independent one the perfect coupling
PINNED_120 = {
    "dependent": {
        "coupling": {"value": "0x1.30fa26c3b80dfp+1", "increment_part": "0x1.232912a427d58p+1",
                     "norm_part": "0x1.ba2283f2070d2p-4", "g_norm": "0x1.5a4875670716fp-3",
                     "pointwise_bound": "0x1.192e7f63c484ep+1"},
        "poisson_sum": {"lam": "0x1.8994d7b127518p+3", "exact_tv": "0x1.b745d8f0b83a8p-2",
                        "harmonic_coupling_bound": "0x1.24b55594c846cp+1",
                        "linear_coupling_bound": "0x1.539cd664e9256p+1",
                        "independent_bound": None, "improved_bound": None,
                        "pointwise_bound": "0x1.138dec3e24f8dp+1"},
    },
    "independent": {
        "coupling": {"value": "0x1.57119c1e0f0dap-3", "increment_part": "0x1.ddee2da380d5bp-4",
                     "norm_part": "0x1.a06a15313a8b0p-5", "g_norm": "0x1.58ec235704d1dp-3",
                     "pointwise_bound": "0x1.39570762f26bfp-3"},
        "poisson_sum": {"lam": "0x1.8c10ba72a65a5p+3", "exact_tv": "0x1.1d4ad0e7b6ff8p-5",
                        "harmonic_coupling_bound": "0x1.e69e7fc72d788p-4",
                        "linear_coupling_bound": "0x1.0ffdbc38642eep-3",
                        "independent_bound": "0x1.0ffdbc38642eep-3",
                        "improved_bound": "0x1.0ffdbc38642eep-3",
                        "pointwise_bound": "0x1.cc5ff29844d22p-4"},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_120))
def test_bernoulli_sum_values_pinned_at_n_120(name):
    n = 120
    if name == "dependent":
        spec = pinned_mixture_spec(n)
    else:
        spec = gs.CouplingSpec.independent_bernoulli(spread_means(n, 0.01, 0.2, 0.7548776662466927))
    cb = gs.sum_coupling_bound(gs.binomial(n, spec.lam / n), spec)
    assert cb.licensed
    assert {key: getattr(cb, key).hex() for key in PINNED_120[name]["coupling"]} == PINNED_120[name]["coupling"]
    rep = gs.poisson_sum_bounds(spec).to_dict()
    assert {key: None if value is None else value.hex() for key, value in rep.items()} == (
        PINNED_120[name]["poisson_sum"]
    )
