import itertools
import math

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein.lattice import limit_measure
from gibbs_stein.stein import sup_solution_norm

RNG = np.random.default_rng(271828)


def test_tv_trivial_cases():
    assert gs.tv_distance(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    assert gs.tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_tv_pads_supports():
    p = np.array([1.0])
    q = np.array([0.5, 0.25, 0.25])
    assert gs.tv_distance(p, q) == pytest.approx(0.5)


def test_tv_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        gs.tv_distance(np.array([0.5, 0.4]), np.array([0.5, 0.5]))


def test_tv_equals_subset_supremum():
    # enumeration oracle over all events on a small support
    for _ in range(10):
        p = RNG.dirichlet(np.ones(7))
        q = RNG.dirichlet(np.ones(7))
        tv = gs.tv_distance(p, q)
        best = max(
            abs(p[list(s)].sum() - q[list(s)].sum())
            for r in range(8)
            for s in itertools.combinations(range(7), r)
        )
        assert tv == pytest.approx(best, abs=1e-12)


def test_tv_poisson_conditioned_tail_value():
    # tail-sum oracle: 1 - 2.5 e^{-1}
    m = gs.poisson(1.0)
    cond = m.restricted(2)
    tv = gs.tv_distance(cond.pmf, m.pmf)
    assert tv == pytest.approx(1.0 - 2.5 * math.exp(-1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# equal-support comparisons
# ---------------------------------------------------------------------------

def test_identical_measures_give_zero_bound():
    m = gs.poisson(1.0, truncation=30)
    rep = gs.generator_comparison_bound(m, m)
    assert rep.bound_value == 0.0
    assert rep.exact_tv == 0.0
    assert rep.tail_term == 0.0


def test_poisson_pair_reduces_to_activity_gap():
    # constant potentials cancel, leaving ||g|| E(X2) |a1-a2|/a2 per branch
    m1 = gs.poisson(1.0, truncation=40)
    m2 = gs.poisson(1.1, truncation=40)
    rep = gs.generator_comparison_bound(m1, m2)
    n1 = sup_solution_norm(m1)
    n2 = sup_solution_norm(m2)
    v1 = n1 * m2.mean() * abs(1.0 - 1.1) / 1.1
    v2 = n2 * m1.mean() * abs(1.1 - 1.0) / 1.0
    assert rep.bound_value == pytest.approx(min(v1, v2), rel=1e-10)
    assert rep.certified_bound >= rep.exact_tv - 1e-10


def test_min_branch_invariant_under_swap():
    m1 = gs.from_pmf(RNG.uniform(0.05, 1.0, 21), omega=1.0)
    m2 = gs.from_pmf(RNG.uniform(0.05, 1.0, 21), omega=2.0)
    a = gs.generator_comparison_bound(m1, m2)
    b = gs.generator_comparison_bound(m2, m1)
    assert a.bound_value == pytest.approx(b.bound_value, rel=1e-12)
    assert a.exact_tv == pytest.approx(b.exact_tv, abs=1e-15)


def test_dominance_on_random_pairs():
    for _ in range(20):
        n = int(RNG.integers(4, 40))
        m1 = gs.from_pmf(RNG.uniform(0.05, 1.0, n + 1), omega=float(RNG.uniform(0.5, 3)))
        m2 = gs.from_pmf(RNG.uniform(0.05, 1.0, n + 1), omega=float(RNG.uniform(0.5, 3)))
        rep = gs.generator_comparison_bound(m1, m2)
        assert rep.certified_bound >= rep.exact_tv - 1e-10


def test_support_mismatch_directs_to_extended():
    m1 = gs.poisson(1.0, truncation=5)
    m2 = gs.poisson(1.0, truncation=9)
    with pytest.raises(ValueError, match="generator_comparison_extended"):
        gs.generator_comparison_bound(m1, m2)


def test_rate_spread_source_flagged_when_inapplicable():
    m1 = gs.geometric(0.5, truncation=30)
    m2 = gs.geometric(0.6, truncation=30)
    rep = gs.generator_comparison_bound(m1, m2, g_norm_source="rate_spread")
    assert math.isinf(rep.bound_value)
    assert "inapplicable" in rep.notes


def test_user_norms_respected():
    m1 = gs.poisson(1.0, truncation=30)
    m2 = gs.poisson(1.2, truncation=30)
    rep = gs.generator_comparison_bound(m1, m2, "user", (0.5, 0.5))
    assert rep.g_norms == (0.5, 0.5)


# ---------------------------------------------------------------------------
# nested-support comparisons
# ---------------------------------------------------------------------------

def test_extended_rejects_wrong_nesting():
    m = gs.poisson(1.0, truncation=10)
    with pytest.raises(ValueError, match="strictly smaller"):
        gs.generator_comparison_extended(m, m.restricted(4))


def test_conditioned_law_bound_is_sharp():
    # equal rates on the shared support: the mismatch branch vanishes and
    # the certificate equals the tail, which equals the exact distance
    m2 = gs.poisson(1.0)
    for n in (1, 2, 4, 7):
        m1 = m2.restricted(n)
        rep = gs.generator_comparison_extended(m1, m2)
        assert rep.bound_value == pytest.approx(0.0, abs=1e-14)
        assert rep.tail_term == pytest.approx(float(m2.pmf[n + 1 :].sum()), abs=1e-14)
        assert rep.certified_bound == pytest.approx(rep.exact_tv, abs=1e-12)


def test_tail_term_nonnegative_and_reported_separately():
    m2 = gs.geometric(0.4)
    m1 = gs.from_pmf(RNG.uniform(0.05, 1.0, 6), omega=m2.omega)
    rep = gs.generator_comparison_extended(m1, m2)
    assert rep.tail_term >= 0.0
    assert rep.certified_bound == rep.bound_value + rep.tail_term
    assert rep.certified_bound >= rep.exact_tv - 1e-10


def test_extended_dominance_on_random_nested_pairs():
    for _ in range(20):
        big = int(RNG.integers(8, 40))
        small = int(RNG.integers(2, big - 1))
        m2 = gs.from_pmf(RNG.uniform(0.05, 1.0, big + 1), omega=float(RNG.uniform(0.5, 3)))
        m1 = gs.from_pmf(RNG.uniform(0.05, 1.0, small + 1), omega=float(RNG.uniform(0.5, 3)))
        rep = gs.generator_comparison_extended(m1, m2)
        assert rep.certified_bound >= rep.exact_tv - 1e-10


def test_report_serialization_row():
    m1 = gs.poisson(1.0, truncation=20)
    rep = gs.generator_comparison_bound(m1, gs.poisson(1.3, truncation=20))
    payload = rep.to_dict()
    assert payload["certified_bound"] == rep.certified_bound


# ---------------------------------------------------------------------------
# the comparison kernel against a 50-digit recomputation of the display
# ---------------------------------------------------------------------------

def _display_mp(solver, averaged):
    """(activity term, ratio term) recomputed from omega and V in 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        log_w = [
            mpmath.mpf(float(v)) + k * mpmath.log(averaged.omega) - mpmath.loggamma(k + 1)
            for k, v in enumerate(averaged.V)
        ]
        weights = [mpmath.exp(v) for v in log_w]
        total = mpmath.fsum(weights)
        pmf = [w / total for w in weights]
        w_s, w_a = mpmath.mpf(solver.omega), mpmath.mpf(averaged.omega)
        activity = mpmath.fsum(k * p for k, p in enumerate(pmf)) * abs(w_s - w_a) / w_a
        v_s = [mpmath.mpf(float(v)) for v in solver.V]
        v_a = [mpmath.mpf(float(v)) for v in averaged.V]
        terms = []
        for x in range(1, averaged.support_max + 1):
            if x > solver.support_max:
                gap = 1  # the pure-death extension has no births here
            else:
                gap = abs(mpmath.expm1((v_s[x] - v_s[x - 1]) - (v_a[x] - v_a[x - 1])))
            terms.append(x * pmf[x] * gap)
        return activity, w_s / w_a * mpmath.fsum(terms)


@pytest.mark.parametrize(
    "m1, m2",
    [
        (gs.poisson(1.3, truncation=25), gs.negative_binomial(3.0, 0.6, truncation=25)),
        (gs.binomial(6, 0.3), gs.poisson(1.8, truncation=20)),
        (gs.lattice_measure(gs.repelling_model(1.0), 6), limit_measure(gs.repelling_model(1.0))),
    ],
    ids=["equal_support", "nested", "lattice_limit"],
)
def test_mismatch_terms_match_mpmath_display(m1, m2):
    from gibbs_stein.compare import mismatch_terms

    assert m1.support_max <= m2.support_max
    for solver, averaged in ((m1, m2), (m2, m1)):
        got, want = mismatch_terms(solver, averaged), _display_mp(solver, averaged)
        assert want[1] > 0  # equal activities make only the activity term vanish
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w


def _mismatch_loop(solver, averaged):
    """Reference: the display summed term by term in a Python loop."""
    terms = []
    for x in range(1, averaged.support_max + 1):
        gap = 1.0
        if x <= solver.support_max:
            d = float(solver.V[x] - solver.V[x - 1]) - float(averaged.V[x] - averaged.V[x - 1])
            gap = abs(math.expm1(d)) if d < 700.0 else math.inf
        terms.append(x * averaged.pmf[x] * gap)
    w_s, w_a = solver.omega, averaged.omega
    return averaged.mean() * abs(w_s - w_a) / w_a, (w_s / w_a) * math.fsum(terms)


def test_mismatch_terms_equal_loop_reference():
    from gibbs_stein.compare import mismatch_terms

    rng = np.random.default_rng(1729)
    for _ in range(30):
        n1, n2 = (int(v) for v in rng.integers(1, 40, 2))
        m1 = gs.from_pmf(rng.uniform(0.05, 1.0, n1 + 1), omega=float(rng.uniform(0.5, 3)))
        m2 = gs.from_pmf(rng.uniform(0.05, 1.0, n2 + 1), omega=float(rng.uniform(0.5, 3)))
        for solver, averaged in ((m1, m2), (m2, m1)):
            assert mismatch_terms(solver, averaged) == _mismatch_loop(solver, averaged)
