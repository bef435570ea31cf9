"""Bernoulli-sum certificates on dependent specs, under the monotone coupling.

Derandomized property suites over two-label mixtures of independent
coordinates and over configuration-level specs, with Poisson and binomial
targets: every bound dominates the exact TV, the monotone pairs have the
laws of S and Shat_i as marginals and equal the tuple loop bit for bit.
One n = 300 mixture is checked against a 50-digit exact TV.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_stein as gs
from gibbs_stein.oracle import coupling_given_index
from gibbs_stein.size_bias import _leave_one_out_laws

# how a coordinate's means are drawn in both labels of a mixture
KINDS = ("regular", "regular", "regular", "zero", "one", "near_zero", "near_one")


def mixture_spec(kinds, seed, w):
    """The two-label mixture whose coordinate i has means (a_i, b_i) of kind kinds[i]."""
    rng = np.random.default_rng(seed)
    n = len(kinds)
    a, b = rng.uniform(0.01, 0.9, n), rng.uniform(0.01, 0.9, n)
    for i, kind in enumerate(kinds):
        if kind == "zero":
            a[i] = b[i] = 0.0
        elif kind == "one":
            a[i] = b[i] = 1.0
        elif kind == "near_zero":
            a[i], b[i] = rng.uniform(1e-12, 1e-8, 2)
        elif kind == "near_one":
            a[i], b[i] = 1.0 - rng.uniform(1e-12, 1e-8, 2)
    p = w * a + (1.0 - w) * b
    p[a == 1.0] = 1.0
    cond = np.full((n, n), 1.0 / n)  # rows of indices with p_i = 0 are never read
    live = p > 0.0
    mixed = w * a[:, None] * _leave_one_out_laws(a)[:n, :n] + (1.0 - w) * b[:, None] * _leave_one_out_laws(b)[:n, :n]
    cond[live] = mixed[live] / p[live, None]
    return gs.CouplingSpec(p, conditional_sums=cond)


@st.composite
def mixtures(draw):
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    kinds[0] = "regular"  # a positive mean, large enough that no target underflows
    return mixture_spec(kinds, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.2, 0.8)))


@st.composite
def configuration_specs(draw):
    """A joint law on {0,1}^n with dyadic probabilities, which add to 1 exactly.

    A mean is then 1 exactly when every configuration of positive
    probability has its bit set.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = sorted({tuple(int(x) for x in rng.integers(0, 2, n)) for _ in range(draw(st.integers(1, 3 * n + 2)))})
    counts = rng.integers(0, 8, len(bits))  # some configurations get probability 0
    anchor = next((k for k, config in enumerate(bits) if any(config)), None)
    if anchor is None:  # only the empty configuration: add one with a positive mean
        bits.append((1,) * n)
        counts = np.append(counts, 0)
        anchor = len(bits) - 1
    counts[anchor] += 1
    total = 1 << int(counts.sum() - 1).bit_length()
    counts[anchor] += total - counts.sum()
    return gs.CouplingSpec.from_configurations(zip(bits, counts / total))


def assert_pairs_are_the_coupling(spec):
    s, t, mass = spec.monotone_pairs()
    n = spec.n
    law = spec.sum_law()
    for k, i in enumerate(np.flatnonzero(spec.p > 0.0)):
        assert np.max(np.abs(np.bincount(s[k], mass[k], n + 1) - law)) <= 1e-12, i
        assert np.max(np.abs(np.bincount(t[k], mass[k], n) - spec.conditional_sums[i])) <= 1e-12, i
        pairs = [(pr, a, b) for pr, a, b in zip(mass[k].tolist(), s[k].tolist(), t[k].tolist()) if pr != 0.0]
        assert pairs == coupling_given_index(spec, i), i


def assert_bounds_dominate(spec, extra):
    rep = gs.poisson_sum_bounds(spec)
    for name in ("pointwise_bound", "harmonic_coupling_bound", "linear_coupling_bound", "certified_bound"):
        assert getattr(rep, name) >= rep.exact_tv - 1e-10, name
    assert rep.certified_bound <= rep.pointwise_bound
    top = spec.n + extra
    target = gs.binomial(top, spec.lam / top)
    cb = gs.sum_coupling_bound(target, spec)
    exact = gs.tv_distance(spec.sum_law(), target.pmf)
    assert cb.licensed
    assert cb.pointwise_bound >= exact - 1e-10
    assert cb.value >= exact - 1e-10
    assert cb.certified_bound == min(cb.value, cb.pointwise_bound)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=mixtures(), extra=st.integers(1, 5))
def test_mixture_bounds_dominate_and_pairs_are_the_monotone_coupling(spec, extra):
    assert_pairs_are_the_coupling(spec)
    assert_bounds_dominate(spec, extra)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=configuration_specs(), extra=st.integers(1, 5))
def test_configuration_bounds_dominate_and_pairs_are_the_monotone_coupling(spec, extra):
    assert_pairs_are_the_coupling(spec)
    assert_bounds_dominate(spec, extra)


def test_linear_bound_never_exceeds_the_independent_redraw():
    # E_i |S - Shat_i| is a Wasserstein-1 distance under the monotone coupling, so
    # no other coupling of the same laws, such as the product of S given X_i = 0
    # with Shat_i on X_i = 0, has a smaller mean gap
    spec = mixture_spec(["regular"] * 12, 5, 0.4)
    s_law = spec.sum_law()
    for i in range(spec.n):
        cond = spec.conditional_sums[i]
        zero = s_law.copy()
        zero[1:] -= spec.p[i] * cond
        zero /= 1.0 - spec.p[i]
        gap = np.abs(np.subtract.outer(np.arange(spec.n + 1), np.arange(spec.n)))
        redraw = spec.p[i] + (1.0 - spec.p[i]) * float(zero @ gap @ cond)
        assert spec.mean_abs_gaps()[i] <= redraw + 1e-12


def _mp_bernoulli_law(p):
    law = [mpmath.mpf(1)]
    for x in p:
        x = mpmath.mpf(float(x))
        law = [(law[k] if k < len(law) else 0) * (1 - x) + (law[k - 1] * x if k else 0) for k in range(len(law) + 1)]
    return law


def test_n300_mixture_bounds_dominate_a_50_digit_exact_tv():
    n, w = 300, 0.5
    # means near 0.105, so lam is about 31 and P(S = 300) under either target stays
    # far above the double underflow ceiling
    a = 0.09 + 0.06 * ((np.arange(n) * 0.6180339887498949) % 1.0)
    b = 0.07 + 0.04 * ((np.arange(n) * 0.4142135623730951) % 1.0)
    p = w * a + (1.0 - w) * b
    cond = (w * a[:, None] * _leave_one_out_laws(a)[:n, :n] + (1.0 - w) * b[:, None] * _leave_one_out_laws(b)[:n, :n])
    spec = gs.CouplingSpec(p, conditional_sums=cond / p[:, None])
    rep = gs.poisson_sum_bounds(spec)
    top = gs.poisson(spec.lam).support_max
    assert top < n  # the target is truncated at n

    with mpmath.workdps(50):
        law = [w * x + (1 - w) * y for x, y in zip(_mp_bernoulli_law(a), _mp_bernoulli_law(b))]
        lam = mpmath.mpf(spec.lam)
        weights = [lam**k / mpmath.factorial(k) for k in range(n + 1)]
        total = mpmath.fsum(weights)
        poisson_tv = mpmath.fsum(abs(x - y / total) for x, y in zip(law, weights)) / 2
        q = mpmath.mpf(spec.lam / n)
        binom = [mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)]
        binomial_tv = mpmath.fsum(abs(x - y) for x, y in zip(law, binom)) / 2

    assert rep.exact_tv == pytest.approx(float(poisson_tv), rel=1e-12)
    for name in ("pointwise_bound", "harmonic_coupling_bound", "linear_coupling_bound"):
        assert getattr(rep, name) >= poisson_tv, name
    cb = gs.sum_coupling_bound(gs.binomial(n, spec.lam / n), spec)
    assert cb.licensed
    assert cb.value >= binomial_tv and cb.pointwise_bound >= binomial_tv
    assert rep.certified_bound >= poisson_tv
