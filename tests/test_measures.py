import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom, nbinom

import gibbs_stein as gs
from gibbs_stein.lattice import limit_measure
from gibbs_stein.measures import _fsum, _log_gamma_run, _logsumexp, builtin


def test_from_pmf_normalizes_simple_table():
    m = gs.from_pmf(np.array([1.0, 1.0, 0.5]), omega=1.0)
    assert np.allclose(m.pmf, [0.4, 0.4, 0.2], atol=1e-12)


def test_from_pmf_rejects_degenerate_support():
    with pytest.raises(ValueError, match="non-contiguous or degenerate"):
        gs.from_pmf(np.array([1.0, 0.0, 0.5]))
    with pytest.raises(ValueError, match="non-contiguous or degenerate"):
        gs.from_pmf(np.array([1.0, -0.1, 0.5]))
    with pytest.raises(ValueError):
        gs.from_pmf(np.array([]))


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_from_pmf_names_a_weight_that_is_not_finite(bad):
    with pytest.raises(ValueError, match=f"^weight 1 is {bad}; weights must be finite$"):
        gs.from_pmf(np.array([1.0, bad, 0.0, bad]))


def test_poisson_uses_flat_potential_and_activity_lambda():
    lam = 2.5
    m = gs.poisson(lam, truncation=40)
    assert m.omega == lam
    assert np.allclose(m.V, -lam)
    # pmf equals the Poisson weights renormalized over the window
    k = np.arange(41)
    factorials = np.array([float(math.factorial(int(j))) for j in k])
    ref = np.exp(-lam) * lam ** k.astype(float) / factorials
    assert np.allclose(m.pmf, ref / ref.sum(), atol=1e-14)


def test_geometric_truncation_matches_series_oracle():
    # geometric series oracle: pmf(k) = 0.4*0.6^k / (1 - 0.6^51), tail 0.6^51
    p, n = 0.4, 50
    m = gs.geometric(p, truncation=n)
    q = 1.0 - p
    norm = 1.0 - q ** (n + 1)
    ref = p * q ** np.arange(n + 1) / norm
    assert np.allclose(m.pmf, ref, atol=1e-15)
    assert m.truncation.tail_mass == pytest.approx(q ** (n + 1), rel=1e-12)


def test_default_truncation_tail_below_tolerance():
    for m in (gs.poisson(5.0), gs.geometric(0.25), gs.negative_binomial(2.0, 0.4)):
        assert m.truncation.tail_mass <= 1e-14


def test_builtin_dispatch_and_param_validation():
    assert builtin("discrete_uniform", 3).pmf == pytest.approx([0.25] * 4)
    with pytest.raises(ValueError):
        gs.poisson(-1.0)
    with pytest.raises(ValueError):
        gs.geometric(1.0)
    with pytest.raises(ValueError):
        gs.binomial(0, 0.5)
    with pytest.raises(ValueError):
        builtin("cauchy", 1.0)


def test_negative_binomial_matches_scipy_weights():
    r, p = 2.5, 0.45
    m = gs.negative_binomial(r, p, truncation=60)
    k = np.arange(61)
    ref = nbinom.pmf(k, r, p)
    assert np.allclose(m.pmf, ref / ref.sum(), atol=1e-13)


def test_hypergeometric_matches_scipy_and_rejects_shifted_support():
    m = gs.hypergeometric(20, 6, 7)
    k = np.arange(m.support_max + 1)
    ref = hypergeom.pmf(k, 20, 6, 7)
    assert np.allclose(m.pmf, ref, atol=1e-12)
    with pytest.raises(ValueError, match="non-contiguous"):
        gs.hypergeometric(10, 6, 7)  # zero successes unreachable


def test_binomial_birth_rates():
    m = gs.binomial(10, 0.3)
    for k in range(10):
        assert m.birth_rates[k] == pytest.approx(0.3 * (10 - k) / 0.7, rel=1e-12)
    assert m.birth_rates[10] == 0.0


def test_geometric_birth_rates():
    m = gs.geometric(0.5)
    for k in range(0, 20):
        assert m.birth_rates[k] == pytest.approx(0.5 * (k + 1), rel=1e-12)


def test_poisson_birth_rates_constant():
    m = gs.poisson(2.0)
    assert np.allclose(m.birth_rates[:-1], 2.0, rtol=1e-13)


def test_detailed_balance_identity():
    for m in (gs.poisson(1.0), gs.binomial(10, 0.5), gs.geometric(0.4),
              gs.discrete_uniform(6), gs.hypergeometric(20, 6, 7)):
        for k in range(m.support_max):
            # death rate d_(k+1) = k + 1
            lhs = m.pmf[k] * m.birth_rates[k]
            rhs = m.pmf[k + 1] * (k + 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pmf_recursion_through_rates():
    for m in (gs.poisson(3.0), gs.binomial(8, 0.25), gs.negative_binomial(2.0, 0.5)):
        for k in range(m.support_max):
            assert m.pmf[k + 1] == pytest.approx(
                m.pmf[k] * m.birth_rates[k] / (k + 1), rel=1e-12
            )


def test_mean_two_ways_poisson():
    m = gs.poisson(3.0, truncation=60)
    assert m.mean() == pytest.approx(3.0, abs=1e-10)
    # E b_X = E X, the pmf-weighted birth rate
    assert _fsum(m.pmf * m.birth_rates) == pytest.approx(m.mean(), abs=1e-10)


def test_mean_two_ways_geometric():
    m = gs.geometric(0.5, truncation=80)
    assert m.mean() == pytest.approx(1.0, abs=1e-10)
    assert _fsum(m.pmf * m.birth_rates) == pytest.approx(m.mean(), abs=1e-10)


def test_expectation_of_one_is_one():
    m = gs.binomial(6, 0.3)
    assert _fsum(np.ones(7) * m.pmf) == pytest.approx(1.0, abs=1e-12)


def test_cumulative_tables_invariants():
    for m in (gs.poisson(2.0), gs.geometric(0.3), gs.discrete_uniform(9)):
        t = m.cumulatives()
        assert t.F[-1] == pytest.approx(1.0, abs=1e-12)
        assert t.Fbar[0] == pytest.approx(1.0, abs=1e-12)
        for k in range(m.support_max):
            assert t.F[k] + t.Fbar[k + 1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=25),
    omega=st.floats(min_value=0.1, max_value=10.0),
    alpha=st.sampled_from([0.1, 2.0, 10.0]),
)
def test_reparametrization_leaves_everything_invariant(weights, omega, alpha):
    m = gs.from_pmf(np.array(weights), omega=omega)
    m2 = m.reparametrized(alpha)
    assert np.max(np.abs(m2.pmf - m.pmf)) <= 1e-12
    assert np.max(np.abs(m2.birth_rates - m.birth_rates)) <= 1e-12 * max(1.0, m.birth_rates.max())
    t, t2 = m.cumulatives(), m2.cumulatives()
    assert np.max(np.abs(t.F - t2.F)) <= 1e-12
    assert np.max(np.abs(t.Fbar - t2.Fbar)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30))
def test_from_pmf_roundtrip_identity(weights):
    m = gs.from_pmf(np.array(weights), omega=2.0)
    again = gs.from_pmf(m.pmf, omega=2.0)
    assert np.max(np.abs(again.pmf - m.pmf)) <= 1e-12


def test_serialization_roundtrip_is_value_exact():
    m = gs.geometric(0.37)
    payload = m.to_json()
    m2 = gs.GibbsMeasure.from_json(payload)
    assert m2.omega == m.omega
    assert np.array_equal(m2.V, m.V)
    assert np.array_equal(m2.pmf, m.pmf)
    assert m2.truncation == m.truncation
    # emitted decimals parse back to the same doubles
    raw = json.loads(payload)
    assert raw["omega"] == m.omega
    assert all(a == b for a, b in zip(raw["V"], m.V.tolist()))


def test_measure_is_immutable():
    m = gs.poisson(1.0, truncation=5)
    with pytest.raises(AttributeError):
        m.omega = 2.0
    with pytest.raises(ValueError):
        m.pmf[0] = 0.5


def test_restricted_is_conditioned_law():
    m = gs.poisson(1.0, truncation=20)
    cond = m.restricted(2)
    assert cond.support_max == 2
    expected = m.pmf[:3] / m.pmf[:3].sum()
    assert np.allclose(cond.pmf, expected, atol=1e-14)
    # same birth rates on the shared range (except the boundary)
    assert cond.birth_rates[0] == pytest.approx(m.birth_rates[0], rel=1e-12)
    assert cond.birth_rates[1] == pytest.approx(m.birth_rates[1], rel=1e-12)


def test_overwide_truncation_rejected_at_construction():
    with pytest.raises(ValueError, match="underflows"):
        gs.poisson(0.5, truncation=400)


def _truncated_laws():
    for t in (None, 0, 3, 60):
        yield gs.poisson(0.5, truncation=t)
        yield gs.poisson(100.0, truncation=t)
        yield gs.geometric(0.3, truncation=t)
        yield gs.negative_binomial(2.5, 0.4, truncation=t)
        for model in (gs.ideal_gas_model(1.5), gs.repelling_model(1.0), gs.product_model(2.0)):
            yield limit_measure(model, truncation=t)
    yield gs.poisson(3.0, tail_tol=1e-6)
    yield gs.geometric(0.9, tail_tol=0.5)
    yield gs.poisson(2.0, truncation=25).reparametrized(3.0)


def test_library_built_truncation_records_fit_their_tables_and_reload():
    for m in _truncated_laws():
        record = m.truncation
        assert record.bound == m.support_max, m.label()
        assert 0.0 <= record.tail_mass <= record.tolerance < math.inf, m.label()
        assert list(record.to_dict().items()) == [
            ("bound", record.bound), ("tail_mass", record.tail_mass), ("tolerance", record.tolerance)]
        if m.kind in ("repelling_limit", "product_limit"):  # their params cannot rebuild them
            again = gs.GibbsMeasure(m.omega, m.V, m.kind, m.params, record)
        else:
            again = gs.GibbsMeasure.from_json(m.to_json())
        assert again.truncation == record and np.array_equal(again.V, m.V), m.label()
    # a declared tail is not capped at 1: poisson(100) truncated at 0, which reloads above, declares more
    assert gs.poisson(100.0, truncation=0).truncation.tail_mass > 1.0


def test_from_dict_rebuilds_registered_kinds_from_params():
    for m in (gs.poisson(2.0, truncation=25).reparametrized(3.0), gs.binomial(10, 0.3),
              gs.negative_binomial(2.5, 0.3), gs.hypergeometric(20, 5, 6)):
        again = gs.GibbsMeasure.from_dict(m.to_dict())
        assert again.kind == m.kind and np.array_equal(again.V, m.V)
    spoofed = gs.poisson(0.5, truncation=30).to_dict()
    spoofed["params"] = {"lam": 10.0}
    with pytest.raises(ValueError, match="poisson params"):
        gs.GibbsMeasure.from_dict(spoofed)
    wider = gs.binomial(10, 0.3).to_dict()
    wider["params"] = {"n": 20, "p": 0.3}
    with pytest.raises(ValueError, match="binomial params"):
        gs.GibbsMeasure.from_dict(wider)
    for model in (gs.repelling_model(1.0), gs.product_model(1.0)):
        limit = limit_measure(model).to_dict()
        with pytest.raises(ValueError, match="cannot be rebuilt"):
            gs.GibbsMeasure.from_dict(limit)
    # kinds outside the registry load as before
    restricted = gs.poisson(1.0, truncation=20).restricted(3)
    assert gs.GibbsMeasure.from_dict(restricted.to_dict()).kind == "poisson:restricted"


def test_indicator_rejects_points_outside_the_table():
    assert gs.TestFunction.indicator([0, 3], 4).values.tolist() == [1.0, 0.0, 0.0, 1.0]
    for points in ([4], [-1], [0, 9]):
        with pytest.raises(ValueError, match="indicator points must lie in 0..3"):
            gs.TestFunction.indicator(points, 4)


def _ulps(value: float, exact) -> float:
    return float(abs(mpmath.mpf(value) - exact) / mpmath.mpf(np.spacing(abs(value))))


def test_log_factorials_within_one_ulp_of_40_digits():
    table = _log_gamma_run(1.0, 20_001)
    assert table[0] == table[1] == 0.0
    with mpmath.workdps(40):
        for k in [*range(2, 2_001), *range(2_001, 20_001, 37), 20_000]:
            assert _ulps(table[k], mpmath.loggamma(k + 1)) <= 1.0, k


@pytest.mark.parametrize("r", [1e-3, 0.1, 0.5, 2.5, 7.3, 33.3, 480.82818734978434])
def test_log_gamma_runs_at_non_integer_starts_within_a_few_ulps(r):
    # log Gamma(r + k) - log Gamma(r): within one ulp of the summed |log(r + i)|, and
    # within two of the value itself unless the running sum crosses zero (r < 1/2)
    table = _log_gamma_run(r, 1_001)
    magnitude = np.cumsum(np.abs(np.log(r + np.arange(1_000.0))))
    with mpmath.workdps(40):
        base = mpmath.loggamma(mpmath.mpf(r))
        for k in range(1, 1_001):
            exact = mpmath.loggamma(mpmath.mpf(r) + k) - base
            error = abs(mpmath.mpf(table[k]) - exact)
            assert error <= np.spacing(magnitude[k - 1]), (r, k)
            if r >= 0.5:
                assert _ulps(table[k], exact) <= 2.0, (r, k)


def test_logsumexp_matches_40_digits_and_keeps_infinities():
    rng = np.random.default_rng(12)
    with mpmath.workdps(40):
        for size in (1, 2, 7, 300):
            x = rng.uniform(-800.0, 50.0, size)
            exact = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in x))
            assert _ulps(_logsumexp(x), exact) <= 2.0
    assert _logsumexp(np.array([-math.inf, 0.0, -math.inf])) == 0.0
    assert _logsumexp(np.array([-math.inf, -math.inf])) == -math.inf


def _exact_tail(first_term, ratio, n):
    """Share beyond n of a law with term(0) = first_term and term(k+1) = term(k) ratio(k), to 50 digits."""
    head = tail = mpmath.mpf(0)
    term, k = mpmath.mpf(first_term), 0
    while k <= n or term > tail * mpmath.mpf(10) ** -45 or k < 2 * n + 10:
        if k <= n:
            head += term
        else:
            tail += term
        term *= ratio(k)
        k += 1
    return tail / (head + tail)


def _tail_cases():
    mp = mpmath.mpf
    for lam in np.geomspace(1e-3, 740.0, 19):
        lam = float(lam)
        for tol in (1e-14, 1e-6):
            yield gs.poisson(lam, tail_tol=tol), tol, lambda k, lam=lam: mp(lam) / (k + 1)
    for p in (0.01, 0.1, 0.37, 0.5, 0.9, 0.99):
        yield gs.geometric(p), 1e-14, lambda k, p=p: 1 - mp(p)
    # at r = 480.8 and p = 0.1 the weight p^r of 0 underflows
    for r, p in [*((r, p) for r in (0.3, 1.0, 2.5, 40.0) for p in (0.1, 0.45, 0.9)),
                 (480.82818734978434, 0.45), (480.82818734978434, 0.9)]:
        yield (gs.negative_binomial(r, p), 1e-14,
               lambda k, r=r, p=p: (1 - mp(p)) * (mp(r) + k) / (k + 1))
    for lam in (0.1, 1.0, 5.0, 30.0):
        weight = lambda k: mp(1) if k < 2 else mp(k) * (k - 1) / 6
        yield (limit_measure(gs.repelling_model(lam)), 1e-14,
               lambda k, lam=lam, weight=weight: mp(lam) * weight(k + 1) / (weight(k) * (k + 1)))
    for z in (0.5, 1.0, 2.0, 5.0):
        weight = lambda k: mp(1) if k == 0 else mp(k) ** -k
        yield (limit_measure(gs.product_model(z)), 1e-14,
               lambda k, z=z, weight=weight: mp(z) * weight(k + 1) / (weight(k) * (k + 1)))


def test_declared_tails_bound_the_exact_tail_with_zero_slack():
    with mpmath.workdps(50):
        for m, tol, ratio in _tail_cases():
            exact = _exact_tail(1, ratio, m.support_max)
            declared = m.truncation.tail_mass
            assert mpmath.mpf(declared) >= exact, (m.label(), declared, exact)
            assert declared <= tol, m.label()


def test_family_parameters_must_be_finite_and_proper():
    for make, message in (
        (lambda: gs.poisson(math.inf), "finite"),
        (lambda: gs.poisson(math.nan), "positive"),
        (lambda: gs.negative_binomial(math.inf, 0.5), "positive finite r"),
        (lambda: gs.geometric(1e-300), "1 - p < 1"),
        (lambda: gs.negative_binomial(2.0, 1e-17), "1 - p < 1"),
        (lambda: gs.geometric(math.nan), "0 < p < 1"),
        (lambda: gs.poisson(1.0, tail_tol=0.0), "tail tolerance"),
        (lambda: gs.poisson(1.0, tail_tol=math.nan), "tail tolerance"),
        (lambda: gs.geometric(0.5, tail_tol=1.0), "tail tolerance"),
        (lambda: gs.poisson(1.0, truncation=-1), "truncation bound"),
        (lambda: gs.poisson(1e300), "no truncation"),
    ):
        with pytest.raises(ValueError, match=message):
            make()


def test_underflow_error_names_the_state_and_its_log_weight():
    with pytest.raises(ValueError) as info:
        gs.poisson(0.5, truncation=400)
    message = str(info.value)
    assert message.startswith("support weight underflows double precision: pmf(")
    k = int(message.split("pmf(")[1].split(")")[0])
    log_pmf = k * math.log(0.5) - math.lgamma(k + 1) - 0.5
    assert log_pmf < -745.0 < (k - 1) * math.log(0.5) - math.lgamma(k) - 0.5
    assert f"exp({log_pmf:.6g})" in message


def test_measure_file_whose_potential_moved_a_few_ulps_loads():
    # another log-Gamma may round V differently; rates of a table whose |V| reaches
    # 4551 agree to 2 ulps of 4551 (1.8e-12 relative) only
    payload = gs.binomial(800, 0.5).to_dict()
    V = np.array(payload["V"])
    payload["V"] = np.where(np.arange(V.size) % 2 == 0, np.nextafter(V, np.inf), np.nextafter(V, -np.inf)).tolist()
    m = gs.GibbsMeasure.from_dict(payload)
    assert m.kind == "binomial" and m.support_max == 800


def test_overflowing_birth_rate_names_the_state():
    with pytest.raises(ValueError, match=r"birth rate b_2 = exp\(737\.\d+\) overflows double precision"):
        gs.from_pmf(np.array([1.0, 1.0, 1e-320, 1.0]))
