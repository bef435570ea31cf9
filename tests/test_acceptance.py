"""Acceptance gate: one test (or test group) per criterion, each printing a
pass/fail line, every tolerance pinned.

Criteria 1-6 and 8-12 pass.  Criterion 7 asserts that the repelling-family
lattice law is exactly the conditioned limit law (distance = tail mass,
dominated by the closed-form bound).  That claim is provably false for the
midpoint-grid weights this family is defined with:

    W_n(k) = k(k-1)(n+1)(n-1)/(6 n^2)  =  (1 - 1/n^2) * W(k)   for k >= 2,

so successive-weight ratios match the continuum family only from k = 3 on;
at k = 2 they differ by (1 - 1/n^2).  Consequently the lattice law is not
proportional to the limit law across the k = 1 -> 2 boundary, the exact
distance exceeds the tail mass, and the closed-form bound is violated from
n = 3 on (lam = 1: exact TV 5.57e-2 vs bound 4.62e-2 at n = 3; by n = 10
the exact TV is ~1.5e-3 against a bound of ~2.8e-8, because the k = 2
mismatch contributes ~2 mu_n(2)/(n^2-1) ~ 1/n^2 while the tail decays
factorially).  Both sub-claims are therefore encoded as strict expected
failures rather than weakened: they document the defect at full assertion
strength.  The certified generator-comparison bound (which charges the
k = 2 ratio mismatch honestly) does dominate the exact distance for this
family; that is asserted in criterion 11's lattice companion and in the
module tests.
"""

import itertools
import math

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein.factors import solution_bound, supnorm_bound
from gibbs_stein.lattice import limit_measure
from gibbs_stein.size_bias import size_bias, sum_size_bias
from gibbs_stein.stein import sup_solution_norm

SEED = 20250810


def _report(cid: str, message: str):
    print(f"[criterion {cid}] PASS: {message}")


def _measure_suite():
    return [
        gs.poisson(1.0),
        gs.poisson(5.0),
        gs.binomial(10, 0.3),
        gs.geometric(0.4),
        limit_measure(gs.repelling_model(1.0)),
        limit_measure(gs.product_model(1.0)),
    ]


# ---------------------------------------------------------------------------
# 1. Stein residual on the six reference measures
# ---------------------------------------------------------------------------

def test_criterion_1_stein_residual():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in _measure_suite():
        for _ in range(100):
            f = rng.uniform(0.0, 1.0, m.support_max + 1)
            sol = gs.solve(m, f)
            for k in range(m.support_max + 1):
                target = f[k] - sol.mu_f
                rel = abs(sol.residual(k)) / max(1.0, abs(target))
                worst = max(worst, rel)
    assert worst <= 1e-10
    _report("1", f"max relative Stein residual {worst:.2e} <= 1e-10 "
                 "(6 measures x 100 random test functions)")


# ---------------------------------------------------------------------------
# 2. increment-supremum identity
# ---------------------------------------------------------------------------

def test_criterion_2_increment_identity():
    worst_formula = 0.0
    for lam in (0.5, 1.0, 5.0):
        m = gs.poisson(lam, truncation=60)
        exact = gs.sup_increment_table(m).tolist()
        for j in range(1, 51):
            gap = abs(exact[j - 1] - gs.increment_bound(m, j)[0].value)
            worst_formula = max(worst_formula, gap)
    worst_closed = 0.0
    for p, bound in ((0.25, 140), (0.5, 70), (0.75, 60)):
        m = gs.geometric(p, truncation=bound)
        q = 1.0 - p
        table = gs.sup_increment_table(m).tolist()
        for j in range(1, 51):
            exact = table[j - 1]
            worst_formula = max(worst_formula, abs(exact - gs.increment_bound(m, j)[0].value))
            closed = (j + 1 - q**j) / (j * (j + 1))
            worst_closed = max(worst_closed, abs(exact - closed))
    assert worst_formula <= 1e-10
    assert worst_closed <= 1e-12
    _report("2", f"identity gap {worst_formula:.2e} <= 1e-10; geometric closed form "
                 f"gap {worst_closed:.2e} <= 1e-12 (j <= 50)")


# ---------------------------------------------------------------------------
# 3. Poisson increment chain
# ---------------------------------------------------------------------------

def test_criterion_3_poisson_increment_chain():
    worst_margin = math.inf
    for lam in np.linspace(0.5, 5.0, 10):
        m = gs.poisson(float(lam), truncation=60)
        factor = (1.0 - math.exp(-lam)) / lam
        strict = False
        table = gs.sup_increment_table(m).tolist()
        for k in range(1, 51):
            exact = table[k - 1]
            mid = min(1.0 / k, factor)
            outer = min(1.0 / k, 1.0 / lam)
            worst_margin = min(worst_margin, mid - exact, outer - mid)
            if mid < outer - 1e-15:
                strict = True
        assert strict, f"no strict improvement found for lam={lam}"
    assert worst_margin >= -1e-10
    _report("3", f"exact <= min(1/k, (1-e^-lam)/lam) <= min(1/k, 1/lam) with min "
                 f"margin {worst_margin:.2e}; middle strictly sharper for every lam <= 5")


# ---------------------------------------------------------------------------
# 4. geometric solution norm
# ---------------------------------------------------------------------------

def test_criterion_4_geometric_norm():
    worst = -math.inf
    for p in np.arange(0.1, 0.95, 0.1):
        m = gs.geometric(float(p))
        excess = sup_solution_norm(m) - 1.0 / p
        worst = max(worst, excess)
    assert worst <= 1e-10
    _report("4", f"max_j sup_f |g(j)| <= 1/p for p in 0.1..0.9 (max excess {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. rate-spread norm bound
# ---------------------------------------------------------------------------

def test_criterion_5_rate_spread_norm():
    for lam in (0.5, 1.0, 5.0):
        m = gs.poisson(lam)
        cert = supnorm_bound(m)
        assert cert.applicable and cert.value == 2.0
        assert cert.value >= sup_solution_norm(m) - 1e-10
    min_margin = math.inf
    for p in np.linspace(0.1, 0.9, 9):
        m = gs.binomial(10, float(p))
        cert = supnorm_bound(m)
        assert cert.applicable
        min_margin = min(min_margin, cert.value - sup_solution_norm(m))
    assert min_margin >= -1e-10
    geo = supnorm_bound(gs.geometric(0.4))
    assert not geo.applicable and geo.value is None
    _report("5", f"Poisson value 2 dominates exact norm; binomial margin "
                 f">= {min_margin:.2e} across the p-grid; geometric reported inapplicable")


# ---------------------------------------------------------------------------
# 6. conditioning sharpness
# ---------------------------------------------------------------------------

def test_criterion_6_conditioning_sharpness():
    rng = np.random.default_rng(SEED)
    laws = [gs.poisson(1.0), gs.geometric(0.4)]
    for _ in range(20):
        size = int(rng.integers(12, 41))
        laws.append(gs.from_pmf(rng.uniform(0.05, 1.0, size), omega=float(rng.uniform(0.3, 3))))
    worst = 0.0
    for m in laws:
        for n in range(1, 11):
            if n >= m.support_max:
                continue
            tv = gs.tv_distance(m.restricted(n).pmf, m.pmf)
            tail = float(np.sum(m.pmf[n + 1 :]))
            worst = max(worst, abs(tv - tail))
    assert worst <= 1e-12
    concrete = gs.tv_distance(gs.poisson(1.0).restricted(2).pmf, gs.poisson(1.0).pmf)
    assert concrete == pytest.approx(1.0 - 2.5 * math.exp(-1.0), abs=1e-12)
    _report("6", f"TV(conditioned, full) = tail mass within {worst:.2e} over 22 laws, "
                 f"n = 1..10; Poisson(1), n=2 value 1 - 2.5/e reproduced")


# ---------------------------------------------------------------------------
# 7. repelling family (known defect; see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_7_bound_formula_value():
    model = gs.repelling_model(1.0)
    value = model.closed_form(2)
    assert value == pytest.approx(math.e / (12.0 + math.e), rel=1e-12)
    _report("7 (formula)", f"closed-form value at n=2, lam=1 is e/(12+e) = {value:.5f}")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="midpoint lattice weights differ from the conditioned limit law at "
    "k=2 by (1-1/n^2); the exact distance provably exceeds the tail mass "
    "(see module docstring and the decisions ledger)",
)
def test_criterion_7_repelling_distance_equals_tail():
    model = gs.repelling_model(1.0)
    worst = 0.0
    for n in range(2, 11):
        rep = gs.lattice_comparison_report(model, n)
        worst = max(worst, abs(rep.exact_tv - rep.tail_term))
    print(f"[criterion 7] FAIL (expected): max |TV - tail| = {worst:.3e} > 1e-12")
    assert worst <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the closed-form bound presumes the conditioned-law identity; the "
    "k=2 weight mismatch makes the exact distance exceed it from n = 3 on",
)
def test_criterion_7_repelling_closed_form_dominates():
    model = gs.repelling_model(1.0)
    min_margin = math.inf
    for n in range(2, 11):
        rep = gs.lattice_comparison_report(model, n)
        min_margin = min(min_margin, model.closed_form(n) - rep.exact_tv)
    print(f"[criterion 7] FAIL (expected): min closed-form margin = {min_margin:.3e}")
    assert min_margin >= -1e-10


# ---------------------------------------------------------------------------
# 8. product family
# ---------------------------------------------------------------------------

def test_criterion_8_product_family():
    model = gs.product_model(1.0)
    mu = limit_measure(model, truncation=60)
    min_margin = math.inf
    max_ratio_frac = 0.0
    for n in range(3, 13):
        mu_n = gs.lattice_measure(model, n)
        tv = gs.tv_distance(mu_n.pmf, mu.pmf)
        closed = model.closed_form(n)
        min_margin = min(min_margin, closed - tv)
        rep = gs.lattice_comparison_report(model, n, limit=mu)
        max_ratio_frac = max(max_ratio_frac, rep.terms[1] / (2.0 * math.exp(math.e) / n))
    assert min_margin >= -1e-10
    assert max_ratio_frac <= 1.0
    for n in range(3, 9):
        for k in range(2, n + 1):
            w = model.Wn(n, k)
            assert ((n - 1) / n) ** (k * k) * k ** (-float(k)) < w < k ** (-float(k))
    _report("8", f"closed form dominates exact TV for n = 3..12 (margin >= {min_margin:.2e}); "
                 f"ratio sum <= 2e^e/n (max fraction {max_ratio_frac:.3f}); strict weight sandwich")


# ---------------------------------------------------------------------------
# 9. size-bias identities and the sum construction
# ---------------------------------------------------------------------------

def test_criterion_9_size_bias():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for base in (gs.poisson(1.0).pmf, gs.binomial(9, 0.35).pmf, rng.dirichlet(np.ones(14))):
        law = size_bias(base)
        k = np.arange(base.size)
        for _ in range(50):
            f = rng.uniform(0.0, 1.0, base.size)
            lhs = float(np.sum(k * base * f))
            rhs = law.mean * float(np.sum(law.biased * f))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    for p in (0.2, 0.7, 1.0):
        assert size_bias(np.array([1 - p, p])).biased[1] == pytest.approx(1.0, abs=1e-14)
    worst_sum = 0.0
    for n in (2, 5, 8, 12):
        p = rng.uniform(0.05, 0.95, n)
        spec = gs.CouplingSpec.independent_bernoulli(p)
        law = np.zeros(n + 1)
        for bits in itertools.product((0, 1), repeat=n):
            pr = math.prod(p[i] if b else 1 - p[i] for i, b in enumerate(bits))
            law[sum(bits)] += pr
        direct = size_bias(law).biased
        worst_sum = max(worst_sum, float(np.max(np.abs(sum_size_bias(spec) - direct))))
    assert worst_sum <= 1e-12
    _report("9", f"mean identity gap {worst:.2e} <= 1e-12 (50 f per law); Bernoulli point "
                 f"mass; sum construction matches enumeration up to n=12 ({worst_sum:.2e})")


# ---------------------------------------------------------------------------
# 10. Poisson approximation of Bernoulli sums
# ---------------------------------------------------------------------------

def test_criterion_10_poisson_sums():
    rng = np.random.default_rng(SEED)
    min_margin = math.inf
    for _ in range(30):
        n = int(rng.integers(2, 13))
        p = rng.uniform(0.02, 0.95, n)
        rep = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli(p))
        min_margin = min(
            min_margin,
            rep.improved_bound - rep.exact_tv,
            rep.independent_bound - rep.improved_bound,
        )
    assert min_margin >= -1e-10
    iid = gs.poisson_sum_bounds(gs.CouplingSpec.independent_bernoulli([0.15] * 10))
    assert iid.improved_bound == pytest.approx(iid.independent_bound, abs=1e-14)
    _report("10", f"exact TV <= improved <= plain independent bound over 30 seeded "
                  f"vectors (min margin {min_margin:.2e}); improved = plain in the iid case")


# ---------------------------------------------------------------------------
# 11. dominance corpus for generator comparisons
# ---------------------------------------------------------------------------

def test_criterion_11_dominance_corpus():
    rng = np.random.default_rng(SEED)
    min_margin = math.inf
    for trial in range(50):
        big = int(rng.integers(8, 61))
        w2 = rng.uniform(0.05, 1.0, big + 1)
        m2 = gs.from_pmf(w2, omega=float(rng.uniform(0.3, 3.0)))
        if trial % 2 == 0:
            m1 = gs.from_pmf(rng.uniform(0.05, 1.0, big + 1), omega=float(rng.uniform(0.3, 3.0)))
            rep = gs.generator_comparison_bound(m1, m2)
        else:
            small = int(rng.integers(2, big))
            m1 = gs.from_pmf(rng.uniform(0.05, 1.0, small + 1), omega=float(rng.uniform(0.3, 3.0)))
            rep = gs.generator_comparison_extended(m1, m2)
        min_margin = min(min_margin, rep.certified_bound - rep.exact_tv)
    assert min_margin >= -1e-10
    _report("11", f"certified bound >= exact TV on 50 seeded pairs "
                  f"(min margin {min_margin:.2e})")


# ---------------------------------------------------------------------------
# 12. reparametrization invariance
# ---------------------------------------------------------------------------

def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_12_reparametrization_invariance():
    rng = np.random.default_rng(SEED)
    suite = [
        gs.poisson(1.0),
        gs.geometric(0.4),
        gs.binomial(10, 0.3),
        gs.from_pmf(rng.uniform(0.05, 1.0, 30), omega=1.3),
    ]
    worst = 0.0
    for m in suite:
        rr = gs.rate_range(m)
        j_probe = min(3, m.support_max)
        inc = gs.increment_bound(m, j_probe)[0].value
        sol = solution_bound(m, j_probe).value
        norm = supnorm_bound(m)
        for alpha in (0.1, 2.0, 10.0):
            m2 = m.reparametrized(alpha)
            worst = max(worst, float(np.max(np.abs(m2.pmf - m.pmf))))
            scale = np.maximum(m.birth_rates, 1.0)
            worst = max(worst, float(np.max(np.abs(m2.birth_rates - m.birth_rates) / scale)))
            rr2 = gs.rate_range(m2)
            worst = max(worst, _rel_gap(rr2.inf_rate, rr.inf_rate))
            if math.isfinite(rr.sup_rate):
                worst = max(worst, _rel_gap(rr2.sup_rate, rr.sup_rate))
            worst = max(worst, _rel_gap(gs.increment_bound(m2, j_probe)[0].value, inc))
            worst = max(worst, _rel_gap(solution_bound(m2, j_probe).value, sol))
            norm2 = supnorm_bound(m2)
            assert norm2.applicable == norm.applicable
            if norm.applicable:
                worst = max(worst, _rel_gap(norm2.value, norm.value))
    assert worst <= 1e-12
    _report("12", f"pmf, rates, rate ranges, and certificates invariant under "
                  f"activity rescaling by 0.1/2/10 (max drift {worst:.2e})")
