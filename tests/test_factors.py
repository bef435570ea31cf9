import math

import numpy as np
import pytest

import gibbs_stein as gs

RNG = np.random.default_rng(911)


def test_condition_names_and_shapes():
    checks = gs.check_conditions(gs.poisson(1.0))
    assert [c.name for c in checks] == [
        "rate_sandwich",
        "rates_nonincreasing",
        "rate_tail_lower",
    ]


def test_poisson_rates_nonincreasing_holds():
    checks = {c.name: c for c in gs.check_conditions(gs.poisson(2.0))}
    assert checks["rates_nonincreasing"].holds
    assert checks["rate_sandwich"].holds


def test_geometric_sandwich_holds_despite_increasing_rates():
    # b_k - b_{k-1} = 1 - p <= 1, which is enough for the sandwich
    checks = {c.name: c for c in gs.check_conditions(gs.geometric(0.3))}
    assert checks["rate_sandwich"].holds
    assert not checks["rates_nonincreasing"].holds
    assert checks["rates_nonincreasing"].first_violation == 1


def test_first_violation_reported():
    m = gs.from_pmf(np.array([0.1, 0.1, 0.6, 0.2]))
    bad = [c for c in gs.check_conditions(m) if not c.holds]
    assert all(c.first_violation is not None for c in bad)


# ---------------------------------------------------------------------------
# rate ranges
# ---------------------------------------------------------------------------

def test_rate_ranges_analytic():
    rr = gs.rate_range(gs.poisson(2.0))
    assert (rr.inf_rate, rr.sup_rate) == (2.0, 2.0)
    rr = gs.rate_range(gs.binomial(10, 0.5))
    assert rr.inf_rate == pytest.approx(1.0) and rr.sup_rate == pytest.approx(10.0)
    rr = gs.rate_range(gs.geometric(0.5))
    assert rr.inf_rate == pytest.approx(0.5) and math.isinf(rr.sup_rate)
    assert not rr.window_limited
    rr = gs.rate_range(gs.negative_binomial(2.0, 0.4))
    assert math.isinf(rr.sup_rate)


def test_rate_range_window_flag_for_truncated_custom_law():
    from gibbs_stein.measures import TailPolicy

    m = gs.from_pmf(
        0.5 ** np.arange(30), truncation=TailPolicy(29, 2**-30, 1e-9)
    )
    assert gs.rate_range(m).window_limited
    assert not gs.rate_range(gs.from_pmf(np.ones(5))).window_limited


def test_rate_range_reparametrization_invariant():
    m = gs.from_pmf(RNG.uniform(0.05, 1.0, 25), omega=1.7)
    rr = gs.rate_range(m)
    for alpha in (0.1, 2.0, 10.0):
        rr2 = gs.rate_range(m.reparametrized(alpha))
        assert rr2.inf_rate == pytest.approx(rr.inf_rate, rel=1e-12)
        assert rr2.sup_rate == pytest.approx(rr.sup_rate, rel=1e-12)


# ---------------------------------------------------------------------------
# increment bounds
# ---------------------------------------------------------------------------

def test_increment_bound_geometric_values():
    # substitution oracle: (j+1-(1-p)^j)/(j(j+1))
    m = gs.geometric(0.5, truncation=80)
    exact, simple = gs.increment_bound(m, 1)
    assert exact.value == pytest.approx(0.75, abs=1e-12)
    assert exact.exactness == "exact_equality"
    exact2, _ = gs.increment_bound(m, 2)
    assert exact2.value == pytest.approx((3 - 0.25) / 6, abs=1e-12)
    assert simple.value == pytest.approx(min(1.0, 1.0 / m.birth_rate(1)), rel=1e-12)


def test_increment_bound_rejects_j_zero():
    with pytest.raises(ValueError):
        gs.increment_bound(gs.poisson(1.0), 0)


def test_increment_equality_matches_exact_supremum_when_licensed():
    for m in (gs.poisson(0.5), gs.poisson(5.0), gs.geometric(0.25), gs.binomial(12, 0.4)):
        exact_ok = gs.condition(m, "rate_sandwich").holds
        assert exact_ok
        for j in range(1, min(m.support_max, 20) + 1):
            cert, _ = gs.increment_bound(m, j)
            assert cert.value == pytest.approx(
                gs.sup_increment_exact(m, j), abs=1e-10
            )


def test_poisson_increment_chain_on_grid():
    # exact <= min(1/k, (1-e^-lam)/lam) <= min(1/k, 1/lam), strict in the middle
    for lam in np.linspace(0.5, 5.0, 10):
        m = gs.poisson(float(lam), truncation=60)
        factor = (1.0 - math.exp(-lam)) / lam
        strict_somewhere = False
        for k in range(1, 51):
            exact = gs.sup_increment_exact(m, k)
            mid = min(1.0 / k, factor)
            outer = min(1.0 / k, 1.0 / lam)
            assert exact <= mid + 1e-10
            assert mid <= outer + 1e-15
            if mid < outer - 1e-15:
                strict_somewhere = True
        assert strict_somewhere


# ---------------------------------------------------------------------------
# solution bounds
# ---------------------------------------------------------------------------

def test_solution_bound_geometric_formula():
    p = 0.5
    q = 1.0 - p
    m = gs.geometric(p, truncation=90)
    for j in (1, 2, 5):
        cert = gs.solution_bound(m, j)
        mean = q / p
        expected = (min(math.log(j), mean) + 1.0 / q) / q**j
        assert cert.value == pytest.approx(expected, rel=1e-9)
        assert cert.licensed


def test_solution_bound_uses_log_branch_at_one():
    m = gs.poisson(2.0)
    cert = gs.solution_bound(m, 1)
    b0 = m.birth_rate(0)
    assert cert.value == pytest.approx((1.0 / b0) / m.cumulatives().Fbar[1], rel=1e-12)


def test_solution_bound_binomial_formula():
    n, p = 30, 0.5
    m = gs.binomial(n, p)
    j = 2
    cert = gs.solution_bound(m, j)
    expected = (min(math.log(j), m.mean()) + (1 - p) / (n * p)) / m.cumulatives().Fbar[j]
    assert cert.value == pytest.approx(expected, rel=1e-10)


def test_solution_bound_dominates_exact_supremum():
    for m in (gs.poisson(1.0), gs.poisson(5.0), gs.geometric(0.5), gs.binomial(10, 0.3)):
        for j in range(1, min(m.support_max, 15) + 1):
            cert = gs.solution_bound(m, j)
            if cert.licensed:
                assert cert.value >= gs.sup_solution_exact(m, j) - 1e-10


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------

def test_supnorm_poisson_equals_two():
    cert = gs.supnorm_bound(gs.poisson(3.0))
    assert cert.value == 2.0
    assert cert.applicable


def test_supnorm_binomial_value():
    # spread form with inf = 1, sup = 10: 2 + (1/2) 5^7
    cert = gs.supnorm_bound(gs.binomial(10, 0.5))
    assert cert.value == pytest.approx(39064.5, rel=1e-12)
    assert cert.value >= gs.sup_solution_norm(gs.binomial(10, 0.5))


def test_supnorm_geometric_inapplicable():
    cert = gs.supnorm_bound(gs.geometric(0.5))
    assert not cert.applicable
    assert cert.value is None
    assert "infinite" in cert.notes


def test_supnorm_dominance_across_binomial_grid():
    for p in np.linspace(0.1, 0.9, 9):
        m = gs.binomial(10, float(p))
        cert = gs.supnorm_bound(m)
        assert cert.applicable
        assert cert.value >= gs.sup_solution_norm(m) - 1e-10


def test_extended_supnorm_adds_tail_ceiling():
    m = gs.poisson(0.05, truncation=3)
    assert gs.extended_supnorm_bound(m).value >= 0.25


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_poisson_closed_form_at_k():
    certs = gs.closed_form_bounds("poisson", {"lam": 1.0}, j=2)
    at_k = next(c for c in certs if c.j == 2)
    assert at_k.value == pytest.approx(0.5, abs=1e-15)


def test_geometric_closed_forms():
    certs = gs.closed_form_bounds("geometric", {"p": 0.5})
    uniform = next(c for c in certs if c.quantity == "increment_uniform")
    assert uniform.value == pytest.approx(min(1.0, 1.5), abs=0)
    norm = next(c for c in certs if c.quantity == "solution_norm")
    assert norm.value == pytest.approx(2.0)
    norm4 = next(
        c
        for c in gs.closed_form_bounds("geometric", {"p": 0.25})
        if c.quantity == "solution_norm"
    )
    assert norm4.value == pytest.approx(4.0)


def test_binomial_closed_form_rate_normalized():
    certs = gs.closed_form_bounds("binomial", {"n": 10, "p": 0.3}, j=4)
    cert = certs[0]
    assert cert.value == pytest.approx(min(1 / (0.7 * 4), 1 / (0.3 * 6)), rel=1e-12)


def test_closed_forms_dominate_exact(subtests=None):
    m = gs.poisson(1.0, truncation=60)
    for k in range(1, 30):
        cert = next(c for c in gs.closed_form_bounds(m, j=k) if c.j == k)
        assert cert.value >= gs.sup_increment_exact(m, k) - 1e-10
    mg = gs.geometric(0.5)
    for k in range(1, 30):
        cert = next(c for c in gs.closed_form_bounds(mg, j=k) if c.j == k)
        assert cert.value >= gs.sup_increment_exact(mg, k) - 1e-10
    mb = gs.binomial(10, 0.3)
    for k in range(1, 10):
        cert = next(c for c in gs.closed_form_bounds(mb, j=k) if c.j == k)
        assert cert.value >= gs.sup_increment_exact(mb, k) - 1e-10


@pytest.mark.parametrize("lam", [1e-20, 1e-8])
def test_poisson_closed_forms_dominate_at_small_lambda(lam):
    # (1 - e^-lam)/lam loses its digits to cancellation here; the bound must not
    m = gs.poisson(lam, truncation=3)
    exact = gs.sup_increment_exact(m, 1)
    for cert in gs.closed_form_bounds(m, j=1):
        if cert.licensed:
            assert cert.value >= exact - 1e-10


def test_closed_forms_reject_other_kinds():
    with pytest.raises(ValueError):
        gs.closed_form_bounds("discrete_uniform", {"n": 3})


def test_certificate_serialization_carries_conditions():
    cert, _ = gs.increment_bound(gs.poisson(1.0), 1)
    payload = cert.to_dict()
    assert payload["conditions"][0]["name"] == "rate_sandwich"
    assert payload["licensed"] is True
    assert payload["exactness"] == "exact_equality"


def test_certificates_invariant_under_reparametrization():
    m = gs.from_pmf(RNG.uniform(0.05, 1.0, 20), omega=0.9)
    base_inc = gs.increment_bound(m, 3)[0].value
    base_sol = gs.solution_bound(m, 3).value
    base_norm = gs.supnorm_bound(m)
    for alpha in (0.1, 2.0, 10.0):
        m2 = m.reparametrized(alpha)
        assert gs.increment_bound(m2, 3)[0].value == pytest.approx(base_inc, rel=1e-12)
        assert gs.solution_bound(m2, 3).value == pytest.approx(base_sol, rel=1e-12)
        cert2 = gs.supnorm_bound(m2)
        assert cert2.applicable == base_norm.applicable
        if base_norm.applicable:
            assert cert2.value == pytest.approx(base_norm.value, rel=1e-12)
