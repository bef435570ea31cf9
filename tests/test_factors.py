import json
import math

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein.compare import solution_norm
from gibbs_stein.factors import (
    CONDITION_NAMES, BoundCertificate, ConditionCheck, bound_rows, closed_form_bounds, condition,
    solution_bound, supnorm_bound,
)
from gibbs_stein.lattice import CouplingBound, limit_measure
from gibbs_stein.measures import FAMILIES
from gibbs_stein.stein import sup_increment_exact, sup_solution_norm, sup_solution_table

RNG = np.random.default_rng(911)


def test_condition_names_and_shapes():
    m = gs.poisson(1.0)
    assert [condition(m, name).name for name in CONDITION_NAMES] == [
        "rate_sandwich",
        "rates_nonincreasing",
        "rate_tail_lower",
    ]


def test_poisson_rates_nonincreasing_holds():
    checks = {name: condition(gs.poisson(2.0), name) for name in CONDITION_NAMES}
    assert checks["rates_nonincreasing"].holds
    assert checks["rate_sandwich"].holds


def test_geometric_sandwich_holds_despite_increasing_rates():
    # b_k - b_{k-1} = 1 - p <= 1, which is enough for the sandwich
    checks = {name: condition(gs.geometric(0.3), name) for name in CONDITION_NAMES}
    assert checks["rate_sandwich"].holds
    assert not checks["rates_nonincreasing"].holds
    assert checks["rates_nonincreasing"].first_violation == 1


def test_first_violation_reported():
    m = gs.from_pmf(np.array([0.1, 0.1, 0.6, 0.2]))
    bad = [c for c in (condition(m, name) for name in CONDITION_NAMES) if not c.holds]
    assert all(c.first_violation is not None for c in bad)


def _condition_loop(m, name):
    """Reference: the per-k loop, with the same operation order as the vectorized check."""
    b, t = m.birth_rates, m.cumulatives()

    def ge(lhs, rhs):
        return lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))

    for k in range(1, m.support_max):
        lower = ge(b[k], k * t.Fbar[k + 1] / t.Fbar[k])
        if name == "rate_sandwich":
            ok = ge(k * t.F[k] / t.F[k - 1], b[k]) and lower
        elif name == "rates_nonincreasing":
            ok = ge(b[k - 1], b[k])
        else:
            ok = lower
        if not ok:
            return False, k
    return True, None


def test_condition_equals_loop_reference():
    laws = [gs.poisson(lam) for lam in (0.05, 2.0, 300.0)]
    laws += [gs.binomial(n, p) for n in (1, 2, 10, 150) for p in (0.1, 0.5, 0.9)]
    laws += [gs.geometric(0.3), gs.negative_binomial(0.5, 0.4), gs.hypergeometric(235, 59, 129),
             gs.discrete_uniform(0), gs.discrete_uniform(1), gs.poisson(1.0, truncation=2)]
    laws += [gs.lattice_measure(model, n) for model in (gs.repelling_model(1.0), gs.product_model(0.5))
             for n in (3, 8, 80)]
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        laws.append(gs.from_pmf(rng.uniform(0.01, 1.0, n + 1), omega=float(rng.uniform(0.2, 5.0))))
    for m in laws:
        for name in ("rate_sandwich", "rates_nonincreasing", "rate_tail_lower"):
            check = condition(m, name)
            assert (check.holds, check.first_violation) == _condition_loop(m, name), (m.label(), name)


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

    law = gs.from_pmf(0.5 ** np.arange(30))
    m = gs.GibbsMeasure(law.omega, law.V, kind=law.kind, truncation=TailPolicy(29, 2**-30, 1e-9))
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
    assert simple.value == pytest.approx(min(1.0, 1.0 / m.birth_rates[1]), rel=1e-12)


def test_increment_bound_rejects_j_zero():
    with pytest.raises(ValueError):
        gs.increment_bound(gs.poisson(1.0), 0)


def test_increment_equality_matches_exact_supremum_when_licensed():
    for m in (gs.poisson(0.5), gs.poisson(5.0), gs.geometric(0.25), gs.binomial(12, 0.4)):
        exact_ok = condition(m, "rate_sandwich").holds
        assert exact_ok
        exact = gs.sup_increment_table(m)
        for j in range(1, min(m.support_max, 20) + 1):
            cert, _ = gs.increment_bound(m, j)
            assert cert.value == pytest.approx(exact[j - 1], abs=1e-10)


def test_poisson_increment_chain_on_grid():
    # exact <= min(1/k, (1-e^-lam)/lam) <= min(1/k, 1/lam), strict in the middle
    for lam in np.linspace(0.5, 5.0, 10):
        m = gs.poisson(float(lam), truncation=60)
        factor = (1.0 - math.exp(-lam)) / lam
        strict_somewhere = False
        table = gs.sup_increment_table(m)
        for k in range(1, 51):
            exact = table[k - 1]
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
        cert = solution_bound(m, j)
        mean = q / p
        expected = (min(math.log(j), mean) + 1.0 / q) / q**j
        assert cert.value == pytest.approx(expected, rel=1e-9)
        assert cert.licensed


def test_solution_bound_uses_log_branch_at_one():
    m = gs.poisson(2.0)
    cert = solution_bound(m, 1)
    b0 = m.birth_rates[0]
    assert cert.value == pytest.approx((1.0 / b0) / m.cumulatives().Fbar[1], rel=1e-12)


def test_solution_bound_binomial_formula():
    n, p = 30, 0.5
    m = gs.binomial(n, p)
    j = 2
    cert = solution_bound(m, j)
    expected = (min(math.log(j), m.mean()) + (1 - p) / (n * p)) / m.cumulatives().Fbar[j]
    assert cert.value == pytest.approx(expected, rel=1e-10)


def test_solution_bound_dominates_exact_supremum():
    for m in (gs.poisson(1.0), gs.poisson(5.0), gs.geometric(0.5), gs.binomial(10, 0.3)):
        exact = sup_solution_table(m)
        for j in range(1, min(m.support_max, 15) + 1):
            cert = solution_bound(m, j)
            if cert.licensed:
                assert cert.value >= exact[j - 1] - 1e-10


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------

def test_supnorm_poisson_equals_two():
    cert = supnorm_bound(gs.poisson(3.0))
    assert cert.value == 2.0
    assert cert.applicable


def test_supnorm_binomial_value():
    # spread form with inf = 1, sup = 10: 2 + (1/2) 5^7
    cert = supnorm_bound(gs.binomial(10, 0.5))
    assert cert.value == pytest.approx(39064.5, rel=1e-12)
    assert cert.value >= sup_solution_norm(gs.binomial(10, 0.5))


def test_supnorm_geometric_inapplicable():
    cert = supnorm_bound(gs.geometric(0.5))
    assert not cert.applicable
    assert cert.value is None
    assert "infinite" in cert.notes


def test_supnorm_dominance_across_binomial_grid():
    for p in np.linspace(0.1, 0.9, 9):
        m = gs.binomial(10, float(p))
        cert = supnorm_bound(m)
        assert cert.applicable
        assert cert.value >= sup_solution_norm(m) - 1e-10


def test_extended_supnorm_adds_tail_ceiling():
    # above N = 3 the pure-death extension's solution reaches 1/(N+1) = 0.25,
    # past the exact supremum on {0..3}
    m = gs.poisson(10.0, truncation=3)
    assert sup_solution_norm(m) < 0.25 == solution_norm(m, extended=True)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _family_rows(m, js):
    """The family's per-j increment rows of a `bounds` report on the ladder js."""
    return [row for row in bound_rows(m, js) if row["formula"] == f"{m.kind}_increment_at_j"]


def test_poisson_closed_form_at_k():
    (at_k,) = _family_rows(gs.poisson(1.0), [2])
    assert at_k["j"] == 2
    assert at_k["value"] == pytest.approx(0.5, abs=1e-15)


def test_geometric_closed_forms():
    certs = closed_form_bounds(gs.geometric(0.5))
    uniform = next(c for c in certs if c.quantity == "increment_uniform")
    assert uniform.value == pytest.approx(min(1.0, 1.5), abs=0)
    norm = next(c for c in certs if c.quantity == "solution_norm")
    assert norm.value == pytest.approx(2.0)
    norm4 = next(
        c
        for c in closed_form_bounds(gs.geometric(0.25))
        if c.quantity == "solution_norm"
    )
    assert norm4.value == pytest.approx(4.0)


def test_binomial_closed_form_rate_normalized():
    (row,) = _family_rows(gs.binomial(10, 0.3), [4])
    assert row["value"] == pytest.approx(min(1 / (0.7 * 4), 1 / (0.3 * 6)), rel=1e-12)


def test_closed_forms_dominate_exact(subtests=None):
    for m, top in ((gs.poisson(1.0, truncation=60), 30), (gs.geometric(0.5), 30), (gs.binomial(10, 0.3), 10)):
        exact = gs.sup_increment_table(m)
        rows = _family_rows(m, list(range(1, top)))
        assert [row["j"] for row in rows] == list(range(1, top))
        for row in rows:
            assert row["value"] >= exact[row["j"] - 1] - 1e-10


@pytest.mark.parametrize("lam", [1e-20, 1e-8])
def test_poisson_closed_forms_dominate_at_small_lambda(lam):
    # (1 - e^-lam)/lam loses its digits to cancellation here; the bound must not
    m = gs.poisson(lam, truncation=3)
    exact = gs.sup_increment_table(m).tolist()
    uniform = closed_form_bounds(m)
    assert [c.formula for c in uniform] == ["poisson_increment"]
    for cert in uniform:
        assert cert.licensed
        assert cert.value >= max(exact) - 1e-10
    (row,) = _family_rows(m, [1])
    assert row["licensed"]
    assert row["value"] >= exact[0] - 1e-10


def test_closed_forms_are_empty_for_other_kinds():
    for m in (gs.discrete_uniform(3), gs.negative_binomial(2.0, 0.45), gs.from_pmf([1.0, 2.0, 3.0])):
        assert closed_form_bounds(m) == []
        assert _family_rows(m, [1]) == []
    # the binomial has a per-j form only
    assert closed_form_bounds(gs.binomial(10, 0.3)) == []


def _reference_rows(m, js):
    """The `bounds` rows for the ladder js, rendered one certificate at a time.

    Each per-j certificate comes from the single-j API, or from the family
    registry's per-j increment, and its value is checked bit for bit against
    the formula evaluated on scalars; a row is the certificate's fields with
    its conditions as `name=T;name=F` text.
    """
    tables, b, mean = m.cumulatives(), m.birth_rates, m.mean()
    family = FAMILIES.get(m.kind)
    at = family.increment_at if family is not None else None
    certs = [supnorm_bound(m), *closed_form_bounds(m)]
    for j in js:
        exact, simple = gs.increment_bound(m, j)
        solution = solution_bound(m, j)
        tail_over_rate = tables.Fbar[j + 1] / b[j] if j < m.support_max else 0.0
        assert exact.value == float(tail_over_rate + tables.F[j - 1] / j)
        assert simple.value == float(min(1.0 / j, 1.0 / b[j]) if b[j] > 0 else 1.0 / j)
        assert solution.value == float((min(math.log(j), mean) + 1.0 / b[0]) / tables.Fbar[j])
        certs += [exact, simple, solution]
        if at is not None:
            certs.append(BoundCertificate("increment_at_j", at(j, **family.values(m.params)),
                                          f"{m.kind}_increment_at_j", j=j, notes=family.notes))
    certs.append(BoundCertificate("solution_norm", sup_solution_norm(m), "exact_supremum",
                                  exactness="exact_equality"))
    certs += [BoundCertificate("increment_at_j", sup_increment_exact(m, j), "exact_supremum", j=j,
                               exactness="exact_equality") for j in js]
    return [
        {
            "quantity": cert.quantity, "j": cert.j, "value": cert.value, "formula": cert.formula,
            "conditions": ";".join(f"{c.name}={'T' if c.holds else 'F'}" for c in cert.conditions),
            "exactness": cert.exactness, "applicable": cert.applicable, "licensed": cert.licensed,
            "notes": cert.notes,
        }
        for cert in certs
    ]


def _assert_rows_are_the_certificates(m, js):
    rows = bound_rows(m, js)
    expected = _reference_rows(m, js)
    assert rows == expected
    # key order and float bits, as the JSON report writes them
    assert json.dumps(rows) == json.dumps(expected)


# every family, the lattice limit laws, and a law failing both conditions
FAMILY_LAWS = {
    "poisson": lambda: gs.poisson(3.0),
    "binomial": lambda: gs.binomial(12, 0.3),
    "geometric": lambda: gs.geometric(0.5),
    "negative_binomial": lambda: gs.negative_binomial(2.5, 0.4),
    "hypergeometric": lambda: gs.hypergeometric(30, 8, 11),
    "discrete_uniform": lambda: gs.discrete_uniform(9),
    "discrete_uniform_0": lambda: gs.discrete_uniform(0),
    "repelling_limit": lambda: limit_measure(gs.repelling_model(1.5)),
    "product_limit": lambda: limit_measure(gs.product_model(1.0)),
    "product_lattice": lambda: gs.lattice_measure(gs.product_model(1.0), 12),
    "pmf_unlicensed": lambda: gs.from_pmf([3.0, 1.0, 2.0, 0.5, 4.0]),
}


@pytest.mark.parametrize("make", FAMILY_LAWS.values(), ids=FAMILY_LAWS.keys())
def test_bound_rows_are_the_per_j_certificates(make):
    m = make()
    top = m.support_max
    _assert_rows_are_the_certificates(m, list(range(1, top + 1)))
    # unsorted, with repeats, and reaching N
    _assert_rows_are_the_certificates(m, [top, 1, top, 2, 1][: 2 * top + 1] if top else [])


def test_bound_rows_are_the_per_j_certificates_on_random_laws():
    rng = np.random.default_rng(4027)
    sandwich = set()
    for _ in range(20):
        m = gs.from_pmf(rng.uniform(0.02, 1.0, int(rng.integers(2, 40))), omega=float(rng.uniform(0.3, 3.0)))
        sandwich.add(condition(m, "rate_sandwich").holds)
        js = rng.integers(1, m.support_max + 1, int(rng.integers(1, 3 * m.support_max))).tolist()
        _assert_rows_are_the_certificates(m, js)
    assert sandwich == {True, False}


def test_bound_rows_reject_the_first_j_outside_the_support_in_ladder_order():
    m = gs.binomial(10, 0.3)
    with pytest.raises(ValueError, match=r"^increment bound defined for 1 <= j <= 10, got 11$"):
        bound_rows(m, [2, 11, 0, 12])
    with pytest.raises(ValueError, match=r"^increment bound defined for 1 <= j <= 10, got 0$"):
        bound_rows(m, [3, 0, 11])
    with pytest.raises(ValueError, match=r"^increment bound defined for 1 <= j <= 10, got 11$"):
        bound_rows(m, [3, 11])
    # an empty ladder evaluates no per-j formula, so 1/b_0 = 1/0 is never met
    assert [row["formula"] for row in bound_rows(gs.discrete_uniform(0), [])] == [
        "norm_rate_spread", "exact_supremum"
    ]


def test_licence_flags_follow_the_value_and_the_checks():
    # a check holds exactly when it names no violation
    assert ConditionCheck("rates_nonincreasing", None).holds
    assert not ConditionCheck("rates_nonincreasing", 3).holds
    # a certificate without a value is neither applicable nor licensed
    empty = BoundCertificate("solution_norm", None, "norm_rate_spread")
    assert not empty.applicable and not empty.licensed
    failing = (ConditionCheck("rate_sandwich", 2),)
    assert not BoundCertificate("increment_at_j", 0.5, "increment_exact_form", failing, 1).licensed
    # a coupling bound whose conditions fail certifies its pointwise bound, not its value
    unlicensed = CouplingBound(value=0.1, increment_part=0.1, norm_part=0.0,
                               conditions=(ConditionCheck("rates_nonincreasing", 3),),
                               g_norm=1.0, pointwise_bound=0.5)
    assert not unlicensed.licensed and unlicensed.certified_bound == 0.5
    licensed = CouplingBound(value=0.1, increment_part=0.1, norm_part=0.0,
                             conditions=(ConditionCheck("rates_nonincreasing", None),),
                             g_norm=1.0, pointwise_bound=0.5)
    assert licensed.licensed and licensed.certified_bound == 0.1


def test_certificates_invariant_under_reparametrization():
    m = gs.from_pmf(RNG.uniform(0.05, 1.0, 20), omega=0.9)
    base_inc = gs.increment_bound(m, 3)[0].value
    base_sol = solution_bound(m, 3).value
    base_norm = supnorm_bound(m)
    for alpha in (0.1, 2.0, 10.0):
        m2 = m.reparametrized(alpha)
        assert gs.increment_bound(m2, 3)[0].value == pytest.approx(base_inc, rel=1e-12)
        assert solution_bound(m2, 3).value == pytest.approx(base_sol, rel=1e-12)
        cert2 = supnorm_bound(m2)
        assert cert2.applicable == base_norm.applicable
        if base_norm.applicable:
            assert cert2.value == pytest.approx(base_norm.value, rel=1e-12)


def test_rate_spread_norm_finite_while_half_the_power_fits():
    import mpmath

    # x^e overflows a double here, but 2 + x^e / 2 does not
    m = gs.hypergeometric(235, 59, 129)
    rr = gs.rate_range(m)
    x, e = rr.sup_rate / (rr.inf_rate + 1.0), rr.sup_rate - rr.inf_rate - 2.0
    with mpmath.workdps(40):
        exact = 2 + mpmath.mpf(x) ** e / 2
    cert = supnorm_bound(m)
    assert cert.licensed and math.isfinite(cert.value)
    assert abs(cert.value - float(exact)) <= 1e-15 * float(exact)
    assert cert.value >= sup_solution_norm(m)
    # where the power itself is finite the value is the plain formula, bit for bit
    for m in (gs.binomial(40, 0.7), gs.hypergeometric(60, 12, 20), gs.discrete_uniform(40)):
        rr = gs.rate_range(m)
        lo, hi = rr.inf_rate, rr.sup_rate
        assert supnorm_bound(m).value == 2.0 + 0.5 * (hi / (lo + 1.0)) ** (hi - lo - 2.0)
