import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_stein as gs
from gibbs_stein.measures import _SORTED_FROM, _fsum, _fsum_rows, _sortable
from gibbs_stein.oracle import bernoulli_convolution, coupling_given_index
from gibbs_stein.size_bias import _check_pmf, size_bias, stein_residual_via_size_bias, sum_size_bias

RNG = np.random.default_rng(31415)
# a long table: far past _SORTED_FROM
_LONG = 1 << 15


def enumerate_sum_law(p):
    """Brute-force law of a Bernoulli sum over all configurations."""
    n = len(p)
    law = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        pr = math.prod(p[i] if b else 1 - p[i] for i, b in enumerate(bits))
        law[sum(bits)] += pr
    return law


def test_size_bias_simple_table():
    out = size_bias(np.array([0.5, 0.25, 0.25]))
    assert np.allclose(out.biased, [0.0, 1 / 3, 2 / 3], atol=1e-15)
    assert out.mean == pytest.approx(0.75)


def test_size_bias_poisson_is_shift():
    m = gs.poisson(2.0)
    biased = size_bias(m.pmf).biased
    assert np.max(np.abs(biased[1:] - m.pmf[:-1])) <= 1e-12


def test_size_bias_bernoulli_is_point_mass():
    for p in (0.1, 0.5, 1.0):
        biased = size_bias(np.array([1 - p, p])).biased
        assert biased[1] == pytest.approx(1.0, abs=1e-15)


def test_size_bias_rejects_zero_mean():
    with pytest.raises(ValueError, match="positive mean"):
        size_bias(np.array([1.0]))


def test_size_bias_identity_random_f():
    for base in (gs.poisson(1.0).pmf, gs.binomial(7, 0.4).pmf, RNG.dirichlet(np.ones(9))):
        law = size_bias(base)
        k = np.arange(base.size)
        for _ in range(50):
            f = RNG.uniform(0.0, 1.0, base.size)
            lhs = float(np.sum(k * base * f))
            rhs = law.mean * float(np.sum(law.biased * f))
            assert abs(lhs - rhs) <= 1e-12


def test_size_bias_stochastically_dominates_base():
    for base in (gs.poisson(1.5).pmf, RNG.dirichlet(np.ones(12))):
        law = size_bias(base)
        for k in range(base.size):
            assert law.biased[k:].sum() >= law.base[k:].sum() - 1e-12


# ---------------------------------------------------------------------------
# coupling specifications and the sum construction
# ---------------------------------------------------------------------------

def test_sum_size_bias_two_fair_coins():
    spec = gs.CouplingSpec.independent_bernoulli([0.5, 0.5])
    assert np.allclose(sum_size_bias(spec), [0.0, 0.5, 0.5], atol=1e-15)


def test_sum_size_bias_single_variable_is_point_mass():
    spec = gs.CouplingSpec.independent_bernoulli([0.37])
    assert np.allclose(sum_size_bias(spec), [0.0, 1.0], atol=1e-15)


def test_sum_size_bias_iid_shifts_to_smaller_binomial():
    n, p = 7, 0.3
    spec = gs.CouplingSpec.independent_bernoulli([p] * n)
    star = sum_size_bias(spec)
    expected = bernoulli_convolution([p] * (n - 1))
    assert np.max(np.abs(star[1:] - expected)) <= 1e-12


def test_sum_size_bias_equals_size_biased_sum_by_enumeration():
    for trial in range(5):
        n = int(RNG.integers(2, 9))
        p = RNG.uniform(0.05, 0.95, n)
        spec = gs.CouplingSpec.independent_bernoulli(p)
        direct = size_bias(enumerate_sum_law(p)).biased
        assert np.max(np.abs(sum_size_bias(spec) - direct)) <= 1e-12


def test_dependent_configurations_roundtrip():
    # a correlated pair: both coordinates forced equal
    configs = [((0, 0), 0.6), ((1, 1), 0.4)]
    spec = gs.CouplingSpec.from_configurations(configs)
    assert not spec.independent
    assert np.allclose(spec.p, [0.4, 0.4])
    # given X_i = 1 the other is 1, so the leftover sum is always 1
    assert np.allclose(spec.conditional_sums, [[0.0, 1.0], [0.0, 1.0]])
    assert np.allclose(spec.sum_law(), [0.6, 0.0, 0.4])
    star = sum_size_bias(spec)
    assert np.allclose(star, size_bias(np.array([0.6, 0.0, 0.4])).biased, atol=1e-14)


def test_configurations_adding_to_just_over_one_keep_means_in_range():
    probs = [0.33447075301917856, 0.001122687042822074, 0.35150506188686553, 0.013768883651057343,
             0.2991326144000766]
    assert math.fsum(probs) == 1.0 and sum(probs) > 1.0
    spec = gs.CouplingSpec.from_configurations([((1, k % 2), pr) for k, pr in enumerate(probs)])
    assert spec.p[0] == 1.0
    assert gs.poisson_sum_bounds(spec).exact_tv > 0.0


def test_inconsistent_conditionals_flagged():
    # conditional tables whose implied sum law would need negative mass at 0
    p = np.array([0.9, 0.9])
    cond = np.array([[1.0, 0.0], [1.0, 0.0]])  # claims the other is always 0
    spec = gs.CouplingSpec(p, conditional_sums=cond)
    with pytest.raises(ValueError, match="inconsistent"):
        spec.sum_law()


def test_independent_flag_cross_checks_tables():
    p = [0.5, 0.5]
    wrong = np.array([[0.2, 0.8], [0.5, 0.5]])
    with pytest.raises(ValueError, match="independence"):
        gs.CouplingSpec(np.array(p), conditional_sums=wrong, independent=True)
    # a spec file carrying the flag and tables gets the same check
    payload = {"p": p, "independent": True, "conditional_sums": wrong.tolist()}
    with pytest.raises(ValueError, match="independence"):
        gs.CouplingSpec.from_dict(payload)


def test_spec_validation():
    with pytest.raises(ValueError):
        gs.CouplingSpec.independent_bernoulli([0.0, 0.0])
    with pytest.raises(ValueError):
        gs.CouplingSpec.independent_bernoulli([1.2])
    with pytest.raises(ValueError, match="conditional"):
        gs.CouplingSpec(np.array([0.5, 0.5]), conditional_sums=None)


def test_spec_json_ingestion():
    spec = gs.CouplingSpec.from_dict({"p": [0.2, 0.3], "independent": True})
    assert spec.independent
    spec2 = gs.CouplingSpec.from_dict(
        {"p": [0.4, 0.4], "conditional_sums": [[0.0, 1.0], [0.0, 1.0]]}
    )
    assert not spec2.independent
    spec3 = gs.CouplingSpec.from_dict(
        {"configurations": [{"bits": [0, 0], "prob": 0.6}, {"bits": [1, 1], "prob": 0.4}]}
    )
    assert np.allclose(spec3.p, [0.4, 0.4])


def _tuple_gap(spec, i):
    """E_i |S - Shat_i| as math.fsum over the pairs coupling_given_index(i) lists."""
    return math.fsum(pr * abs(s - s_hat) for pr, s, s_hat in coupling_given_index(spec, i))


def test_mean_abs_gaps_perfect_coupling():
    p = [0.3, 0.6, 0.1]
    spec = gs.CouplingSpec.independent_bernoulli(p)
    assert spec.mean_abs_gaps().tolist() == p
    for i, pi in enumerate(p):
        assert _tuple_gap(spec, i) == pytest.approx(pi)


def random_configurations(rng, n, count):
    bits = {tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(count)}
    weights = rng.uniform(0.1, 1.0, len(bits))
    return list(zip(sorted(bits), weights / weights.sum()))


def test_mean_abs_gaps_equal_tuple_loop():
    rng = np.random.default_rng(2718)
    specs = [gs.CouplingSpec.from_configurations(random_configurations(rng, n, 3 * n))
             for n in (2, 4, 6, 7)]
    # p = (1, 1/2, 1/4): an index that is always on, next to dependent ones
    specs.append(gs.CouplingSpec.from_configurations(
        [((1, 0, 0), 0.5), ((1, 1, 0), 0.25), ((1, 1, 1), 0.25)]))
    # a dependent spec given by its tables, with a zero mean at index 1
    specs.append(gs.CouplingSpec(
        np.array([0.5, 0.0, 0.5]),
        conditional_sums=np.array([[0.2, 0.8, 0.0], [1.0, 0.0, 0.0], [0.2, 0.8, 0.0]]),
    ))
    for spec in specs:
        assert not spec.independent
        gaps = spec.mean_abs_gaps().tolist()
        for i in range(spec.n):
            if spec.p[i] <= 0.0:
                assert gaps[i] == 0.0
                with pytest.raises(ValueError, match="zero mean"):
                    coupling_given_index(spec, i)
                continue
            assert gaps[i].hex() == _tuple_gap(spec, i).hex()


def mixture_tables(rng, n, zero_at=()):
    """Conditional tables of a two-label mixture of independent coordinates.

    Coordinates in zero_at are always 0; their own rows are left uniform,
    which no check reads since their mean is 0.
    """
    a = np.clip(0.3 * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
    b = np.clip(0.1 * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
    a[list(zero_at)] = b[list(zero_at)] = 0.0
    p = 0.5 * a + 0.5 * b
    cond = np.full((n, n), 1.0 / n)
    for i in np.flatnonzero(p > 0.0):
        cond[i] = (0.5 * a[i] * bernoulli_convolution(np.delete(a, i))
                   + 0.5 * b[i] * bernoulli_convolution(np.delete(b, i))) / p[i]
    return p, cond


def _assert_gaps_equal_the_tuple_loop(spec, indices=None):
    """mean_abs_gaps() against the tuple loop (p_i itself when independent), bit for bit."""
    gaps = spec.mean_abs_gaps()
    assert np.all(gaps[spec.p == 0.0] == 0.0)
    for i in np.flatnonzero(spec.p > 0.0) if indices is None else indices:
        reference = spec.p[i] if spec.independent else _tuple_gap(spec, i)
        assert gaps[i].hex() == reference.hex(), i


def _assert_pairs_hold_the_tuple_probabilities(spec):
    """Row k of monotone_pairs, for the k-th index with p_i > 0, against coupling_given_index(i).

    A dependent spec's pairs of positive mass are the tuple loop's, in its
    order and bit for bit.  An independent spec's monotone pairs are its
    perfect coupling up to rounding: the same pairs (t + 1, t) and (t, t).
    """
    s, t, mass = spec.monotone_pairs()
    assert s.shape == t.shape == mass.shape == (np.count_nonzero(spec.p), 2 * spec.n + 1)
    for k, i in enumerate(np.flatnonzero(spec.p > 0.0)):
        got = [(pr, a, b) for pr, a, b in zip(mass[k].tolist(), s[k].tolist(), t[k].tolist()) if pr != 0.0]
        expected = coupling_given_index(spec, i)
        if not spec.independent:
            assert got == expected, i
            continue
        joint = np.zeros((spec.n + 1, spec.n))
        np.add.at(joint, (s[k], t[k]), mass[k])
        for pr, a, b in expected:
            joint[a, b] -= pr
        assert np.max(np.abs(joint)) <= 1e-15, i


def test_mean_abs_gaps_and_monotone_pairs_equal_the_tuple_loop():
    rng = np.random.default_rng(4242)
    specs = [
        gs.CouplingSpec(*mixture_tables(rng, 40)),
        gs.CouplingSpec(*mixture_tables(rng, 12, zero_at=(0, 5))),
        gs.CouplingSpec.from_configurations([((1, 0, 0), 0.5), ((1, 1, 0), 0.25), ((1, 1, 1), 0.25)]),
        gs.CouplingSpec.from_configurations(random_configurations(rng, 9, 40)),
        gs.CouplingSpec.independent_bernoulli([1.0, 0.0, 0.4, 0.7]),
    ]
    assert specs[2].p[0] == 1.0 and specs[1].p[5] == 0.0
    for spec in specs:
        mix = np.zeros(spec.n + 1)  # the index mixture, added index by index
        for i in np.flatnonzero(spec.p > 0.0):
            mix[1:] += (spec.p[i] / spec.lam) * spec.conditional_sums[i]
        assert spec.mixture_law().tobytes() == mix.tobytes()
        _assert_gaps_equal_the_tuple_loop(spec)
        _assert_pairs_hold_the_tuple_probabilities(spec)


def test_mean_abs_gaps_at_n_190_equal_the_tuple_loop():
    n = 190
    spec = gs.CouplingSpec(*mixture_tables(np.random.default_rng(190), n))
    _assert_gaps_equal_the_tuple_loop(spec, indices=(0, 1, n // 2, n - 1))


def _check_outcome(p, cond):
    """The error of CouplingSpec(p, cond), or None."""
    try:
        gs.CouplingSpec(p, conditional_sums=cond)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def _row_loop_outcome(p, cond):
    """The same check one row at a time, as _check_pmf per row."""
    try:
        for i in range(p.size):
            if p[i] > 0.0:
                _check_pmf(cond[i], f"conditional sum law {i}", tol=1e-12 * p.size)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("bad, raises", [
    ({}, False),
    ({3: ("negative", 2)}, True),
    ({3: ("scale", 1.5)}, True),
    ({2: ("scale", 1.5), 4: ("negative", 1)}, True),
    ({2: ("negative", 0), 4: ("scale", 0.5)}, True),
    ({1: ("negative", 0), 0: ("scale", 2.0)}, True),  # row 0 has p_0 = 0 and is never checked
    ({0: ("scale", 2.0)}, False),
    ({3: ("scale", 1.0 + 1e-9)}, True),
    ({3: ("overflow", 0)}, True),
    ({2: ("scale", 3.0), 3: ("overflow", 0)}, True),
    ({3: ("nan", 0)}, True),  # a nan sum is not within tol of 1
], ids=["consistent", "negative", "sum", "sum_before_negative", "negative_before_sum", "p0_row_skipped",
        "only_p0_row_bad", "just_off", "overflow", "sum_before_overflow", "nan_fails"])
def test_dependent_table_checks_name_the_first_bad_row(bad, raises):
    p, cond = mixture_tables(np.random.default_rng(7), 6, zero_at=(0,))
    for row, (kind, arg) in bad.items():
        if kind == "negative":
            cond[row, arg] = -1e-3
        elif kind == "scale":
            cond[row] *= arg
        elif kind == "overflow":
            cond[row, :2] = 1e308
        else:
            cond[row, arg] = math.nan
    outcome = _check_outcome(p, cond)
    assert outcome == _row_loop_outcome(p, cond)
    assert (outcome is not None) == raises


def test_given_zero_laws_flag_tables_inconsistent_with_the_sum_law():
    spec = gs.CouplingSpec(np.array([0.5, 0.5]), conditional_sums=np.array([[0.0, 1.0], [0.0, 1.0]]),
                           sum_law=np.array([0.9, 0.0, 0.1]))
    with pytest.raises(ValueError, match="inconsistent with the law of the sum"):
        coupling_given_index(spec, 0)
    with pytest.raises(ValueError, match="inconsistent with the law of the sum"):
        spec.mean_abs_gaps()


def test_monotone_pairs_hold_the_tuple_probabilities():
    rng = np.random.default_rng(1618)
    specs = [
        gs.CouplingSpec.independent_bernoulli([1.0, 0.0, 0.4, 0.7]),
        gs.CouplingSpec.from_configurations(random_configurations(rng, 6, 18)),
        gs.CouplingSpec.from_configurations(random_configurations(rng, 7, 30)),
        gs.CouplingSpec.from_configurations([((1, 0, 0), 0.5), ((1, 1, 0), 0.25), ((1, 1, 1), 0.25)]),
    ]
    for spec in specs:
        _assert_pairs_hold_the_tuple_probabilities(spec)


@pytest.mark.parametrize("p", [
    [0.4],
    [1.0],
    [0.0, 0.5],
    [0.3, 0.2, 0.25, 0.15, 0.4],
    [1.0, 0.0, 0.4, 0.7, 0.2],
    [0.0, 1.0, 1.0, 0.0],
    [0.95] + [0.01] * 4,
    list(np.random.default_rng(5).uniform(0.0, 1.0, 40)),
], ids=["n1", "n1_p1", "p0_first", "five", "p0_p1", "only_p0_p1", "inhomogeneous", "uniform_40"])
def test_leave_one_out_rows_equal_convolutions(p):
    spec = gs.CouplingSpec.independent_bernoulli(p)
    n = len(p)
    for i in range(n):
        expected = np.zeros(n)
        law = bernoulli_convolution(np.delete(np.asarray(p), i))
        expected[: law.size] = law
        assert [x.hex() for x in spec.conditional_sums[i].tolist()] == [x.hex() for x in expected.tolist()]
        none_else = float(math.prod(1.0 - pj for j, pj in enumerate(spec.p) if j != i))
        assert spec.conditional_sums[i, 0].hex() == none_else.hex()
    whole = bernoulli_convolution(p)
    assert [x.hex() for x in spec.sum_law().tolist()] == [x.hex() for x in whole.tolist()]


def _fsum_outcome(total):
    """The float a sum returns, by hex (nan included), or the type of the error it raises."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.floats(-1e300, 1e300), st.sampled_from(SPECIAL_FLOATS)),
                    max_size=30),
    length=st.sampled_from([0, 1, 2, _SORTED_FROM - 1, _SORTED_FROM, _SORTED_FROM + 1, 1000, _LONG, _LONG + 3]),
    cancel=st.booleans(),
    tame=st.booleans(),
    nonnegative=st.booleans(),
)
@example(values=[], length=0, cancel=False, tame=False, nonnegative=False)
@example(values=[-0.0], length=_LONG, cancel=False, tame=False, nonnegative=False)
@example(values=[5e-324, 1e-310, -3e-320], length=_LONG + 3, cancel=False, tame=False, nonnegative=False)
@example(values=[5e-324, 1e-310, -3e-320], length=_SORTED_FROM, cancel=False, tame=False, nonnegative=True)
@example(values=[1.0, 1e-300, 1e300, 2.0**-1074], length=_LONG + 3, cancel=True, tame=False, nonnegative=False)
@example(values=[2.0**-1074, 1.0, 2.0**1010], length=_LONG + 3, cancel=False, tame=False, nonnegative=False)
@example(values=[2.0**-1074, 1.0, 2.0**1020], length=_LONG + 3, cancel=False, tame=False, nonnegative=True)
@example(values=[1e308, 1e308, -1e308], length=3, cancel=False, tame=False, nonnegative=False)
@example(values=[1e308], length=_LONG, cancel=False, tame=False, nonnegative=False)
@example(values=[0.1, math.inf], length=_LONG, cancel=False, tame=False, nonnegative=False)
@example(values=[0.1, math.inf, -math.inf], length=_SORTED_FROM, cancel=False, tame=False, nonnegative=False)
@example(values=[0.1, math.nan], length=_SORTED_FROM + 1, cancel=False, tame=False, nonnegative=True)
def test_exact_sum_kernel_equals_fsum(values, length, cancel, tame, nonnegative):
    base = np.resize(np.array(values, dtype=float), length) if values else np.zeros(length)
    if tame:  # finite and below 1e300, so that no partial sum overflows
        base[~(np.abs(base) < 1e300)] = 1.0
    if nonnegative:  # so that long tables can take the sorted path
        base = np.abs(base)
    # vary the pieces along the array so that repeats do not just scale one value
    base = base * np.ldexp(1.0, -(np.arange(length) % 7))
    if cancel:
        base = np.concatenate([base, -base[::-1]])
    assert _fsum_outcome(lambda: _fsum(base)) == _fsum_outcome(lambda: math.fsum(base.tolist()))


def _assert_sums_agree(x):
    expected = _fsum_outcome(lambda: math.fsum(x.tolist()))
    assert _fsum_outcome(lambda: _fsum(x)) == expected
    assert _fsum_outcome(lambda: _fsum_rows(x[None])[0]) == expected


def _sorted_path(x):
    return bool(x.size >= _SORTED_FROM and _sortable(x))


def test_exact_sum_kernel_returns_fsum_on_wide_pmf_tables():
    wide = [gs.poisson(500.0).pmf, gs.poisson(740.0).pmf, np.arange(681) * gs.poisson(500.0).pmf]
    assert wide[1].min() < np.finfo(float).tiny  # subnormal entries
    for x in wide:
        assert _sorted_path(x)
        _assert_sums_agree(x)
    _assert_sums_agree(np.abs(wide[0] - gs.poisson(505.0).pmf[: wide[0].size]))


def test_exact_sum_kernel_on_both_sides_of_the_shortcut():
    rising = np.ldexp(1.0, np.arange(-1000, 0, 10))
    sides = [
        (np.full(_SORTED_FROM - 1, 0.1), False),
        (np.full(_SORTED_FROM, 0.1), True),
        (np.concatenate([rising, rising]), True),
        (np.concatenate([rising, -rising]), False),  # signed: table order
        (np.concatenate([np.zeros(40), rising]), True),
    ]
    for x, sorted_ in sides:
        assert _sorted_path(x) == sorted_
        _assert_sums_agree(x)
    for x in (np.array([0.3]), np.zeros(1), np.zeros(5000), np.array([-0.0] * 40000), np.zeros(0),
              np.array([5e-324, -1e-310, 2.5e-320] * 2000)):
        _assert_sums_agree(x)


@pytest.mark.parametrize("tail", [[math.inf], [math.nan], [math.inf, -math.inf], [-math.inf], [1e308, 1e308]])
def test_exact_sum_kernel_falls_back_on_inf_nan_and_overflow(tail):
    x = np.concatenate([gs.poisson(500.0).pmf, tail])
    assert not _sortable(x)
    _assert_sums_agree(x)


ORDER_MATTERS = {
    # in table order the partial sum 2e308 overflows, so math.fsum raises
    "signed_overflows_in_table_order": np.concatenate([[1e308, 1e308, -1e308, -1e308], np.full(200, 0.5)]),
    # finite in table order; descending order would add every 1e308 first and overflow
    "signed_finite_in_table_order": np.concatenate([np.tile([1e308, -1e308], 100), np.full(200, 0.5)]),
    "nonnegative_total_overflows": np.full(200, 1e308),
    "nonnegative_total_near_overflow": np.full(200, 2.0**1013),
    "nan": np.concatenate([np.full(200, 0.1), [math.nan], np.full(20, 0.2)]),
    "inf_minus_inf": np.concatenate([[math.inf], np.full(200, 0.1), [-math.inf]]),
    "negative_zeros": np.full(200, -0.0),
    "signed_zeros": np.tile([-0.0, 0.0], 100),
    "negative_zero_head": np.concatenate([[-0.0], np.full(200, 1e-300)]),
}


@pytest.mark.parametrize("name", ORDER_MATTERS)
def test_exact_sum_kernel_keeps_fsums_outcome_where_order_matters(name):
    x = ORDER_MATTERS[name]
    assert x.size >= _SORTED_FROM
    _assert_sums_agree(x)
    table = np.stack([np.full(x.size, 0.25), x, np.arange(x.size, dtype=float)])
    if isinstance(_fsum_outcome(lambda: math.fsum(x.tolist())), str):
        assert _row_sums(table) == _fsum_hex(table)
    else:  # a row that makes math.fsum raise raises here too
        with pytest.raises((OverflowError, ValueError)):
            _fsum_rows(table)


def test_exact_sum_kernel_on_signed_whole_range_and_cancelling_pairs():
    rng = np.random.default_rng(2026)
    for case in range(6):
        size = int(rng.integers(_LONG, 3 * _LONG))
        # signed, with exponents over the whole range up to 2^1000, where no partial sum overflows
        x = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1001, size))
        if case % 2:  # the entries cancel in pairs but for a few tiny ones, which make the sum
            pairs = x[: size // 2 - 8]
            rest = size - 2 * pairs.size
            tiny = np.ldexp(rng.uniform(-1.0, 1.0, rest), rng.integers(-1074, -1000, rest))
            x = rng.permutation(np.concatenate([pairs, -pairs, tiny]))
        _assert_sums_agree(x)
        _assert_sums_agree(np.abs(x))


def _row_sums(table):
    return [x.hex() for x in _fsum_rows(table).tolist()]


def _fsum_hex(table):
    return [math.fsum(row).hex() for row in np.asarray(table).tolist()]


ROW_WIDTHS = [1, 2, 7, 61, _SORTED_FROM - 1, _SORTED_FROM, _SORTED_FROM + 1, 342, 1000, _LONG]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from(SPECIAL_FLOATS[3:8])), min_size=1, max_size=30),
    rows=st.integers(1, 5),
    width=st.sampled_from(ROW_WIDTHS),
    spread=st.booleans(),
    zero_row=st.booleans(),
    nonnegative=st.booleans(),
)
@example(values=[-0.0], rows=3, width=_LONG, spread=False, zero_row=True, nonnegative=False)
@example(values=[5e-324, 1e-310, -3e-320], rows=4, width=1000, spread=True, zero_row=False, nonnegative=False)
@example(values=[5e-324, 1e-310, -3e-320], rows=4, width=_SORTED_FROM, spread=True, zero_row=False, nonnegative=True)
@example(values=[1.0, 1e-300, 1e300, 2.0**-1074], rows=5, width=342, spread=True, zero_row=True, nonnegative=False)
@example(values=[0.25, -0.25], rows=2, width=1, spread=False, zero_row=False, nonnegative=False)
def test_row_kernel_equals_fsum_of_each_row(values, rows, width, spread, zero_row, nonnegative):
    base = np.resize(np.array(values, dtype=float), rows * width).reshape(rows, width)
    if spread:  # exponents over the whole range up to 2^1000, where no partial sum overflows
        exponents = np.arange(rows * width).reshape(rows, width) * 379 % 2075 - 1074
        base = np.ldexp(np.frexp(base)[0], exponents)
    else:  # vary the entries along each row so that repeats do not just scale one value
        base = base * np.ldexp(1.0, -(np.arange(width) % 7))
    if nonnegative:  # so that wide rows can take the sorted path
        base = np.abs(base)
    if zero_row:
        base[0] = 0.0
    assert _row_sums(base) == _fsum_hex(base)
    # a row is the same sum alone, as a column slice, and as one _fsum
    assert _row_sums(base[-1:]) == _fsum_hex(base[-1:])
    assert _fsum_rows(base[:, ::-1])[-1].hex() == math.fsum(base[-1, ::-1].tolist()).hex()
    assert _fsum_outcome(lambda: _fsum(base[-1])) == _fsum_hex(base[-1:])[0]


@pytest.mark.parametrize("width", [61, _SORTED_FROM, 1000, _LONG + 1])
@pytest.mark.parametrize("special", [[math.inf], [math.nan], [-math.inf, 1.0], [1.5e308, -1.5e308, 1e308]])
def test_row_kernel_keeps_other_rows_exact_beside_inf_nan_and_near_overflow(width, special):
    rng = np.random.default_rng(width)
    table = rng.standard_normal((4, width)) * np.ldexp(1.0, rng.integers(-1074, 900, (4, width)))
    table[1] = np.abs(table[1])  # a row that can take the sorted path
    table[2, : len(special)] = special
    assert _row_sums(table) == _fsum_hex(table)


@pytest.mark.parametrize("head", [[1e308, 1e308], [1e308, 1e308, -1e308]], ids=["sum", "partial_sum"])
def test_row_kernel_raises_where_fsum_overflows(head):
    table = np.tile(gs.poisson(200.0).pmf[:400], (3, 1))
    table[1, : len(head)] = head
    with pytest.raises(OverflowError):
        math.fsum(table[1].tolist())
    with pytest.raises(OverflowError):
        _fsum_rows(table)
    assert _row_sums(table[[0, 2]]) == _fsum_hex(table[[0, 2]])


def test_row_kernel_handles_empty_tables():
    assert _fsum_rows(np.zeros((0, 50))).shape == (0,)
    assert _fsum_rows(np.zeros((0, _SORTED_FROM))).shape == (0,)
    assert _row_sums(np.zeros((3, 0))) == [0.0.hex()] * 3


def test_sum_law_is_derived_once():
    for spec in (gs.CouplingSpec.independent_bernoulli([0.3, 0.6, 0.1]),
                 gs.CouplingSpec(np.array([0.4, 0.4]), conditional_sums=np.array([[0.0, 1.0], [0.0, 1.0]]))):
        law = spec.sum_law()
        assert spec.sum_law() is law
        assert not law.flags.writeable


@pytest.mark.parametrize("spec", [
    gs.CouplingSpec.independent_bernoulli([0.3, 0.2, 0.25]),
    gs.CouplingSpec(np.array([0.4, 0.4]), conditional_sums=np.array([[0.0, 1.0], [0.0, 1.0]])),
    gs.CouplingSpec.from_configurations([((0, 0), 0.6), ((1, 1), 0.4)]),
], ids=["independent", "dependent", "configurations"])
def test_spec_dict_roundtrip(spec):
    again = gs.CouplingSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.independent == spec.independent
    assert np.array_equal(again.p, spec.p)
    assert np.array_equal(again.conditional_sums, spec.conditional_sums)


# ---------------------------------------------------------------------------
# rate-weighted residual
# ---------------------------------------------------------------------------

def test_residual_zero_for_target_law():
    m = gs.poisson(1.0, truncation=30)
    star = size_bias(m.pmf).biased
    f = RNG.uniform(0.0, 1.0, 31)
    assert abs(stein_residual_via_size_bias(m, m.pmf, star, f)) <= 1e-10


def test_residual_zero_for_constant_f():
    m = gs.poisson(1.5, truncation=25)
    W = gs.binomial(5, 0.3).pmf
    Wstar = size_bias(W).biased
    f = np.full(26, 0.4)
    assert abs(stein_residual_via_size_bias(m, W, Wstar, f)) <= 1e-12


def test_residual_matches_direct_gap_with_matched_mean():
    # Binomial(5, 0.3) against a Poisson(1.5) target: the rate-weighted mean
    # equals the plain mean, so the residual is exactly Ef(W) - mu(f)
    m = gs.poisson(1.5, truncation=30)
    W = gs.binomial(5, 0.3).pmf
    Wstar = size_bias(W).biased
    f = np.zeros(31)
    f[0] = f[1] = 1.0
    value = stein_residual_via_size_bias(m, W, Wstar, f)
    direct = float(W[0] + W[1]) - float(m.pmf[0] + m.pmf[1])
    assert value == pytest.approx(direct, abs=1e-10)


def test_residual_rejects_bad_star_law():
    m = gs.poisson(1.0, truncation=20)
    W = gs.binomial(5, 0.3).pmf
    with pytest.raises(ValueError, match="probability"):
        stein_residual_via_size_bias(m, W, np.array([0.5, 0.2]), np.zeros(21))


# ---------------------------------------------------------------------------
# non-finite and negative entries in probability tables
# ---------------------------------------------------------------------------

_NOT_A_PROBABILITY = [math.nan, math.inf, -math.inf, -0.25]


@st.composite
def _corrupted(draw, values):
    """values with one to three entries replaced by NaN, +-inf or a negative number."""
    out = list(values)
    for k in draw(st.lists(st.integers(0, len(out) - 1), min_size=1, max_size=3)):
        out[k] = draw(st.sampled_from(_NOT_A_PROBABILITY))
    return out


def _finite_outputs(call):
    """call()'s floats, or [] when it raises ValueError."""
    try:
        out = call()
    except ValueError:
        return []
    return out


def _spec_outputs(spec):
    rep = gs.poisson_sum_bounds(spec)
    return [*spec.sum_law(), *spec.mean_abs_gaps(), rep.lam, rep.exact_tv,
            rep.harmonic_coupling_bound, rep.linear_coupling_bound, rep.pointwise_bound]


_RESIDUAL_TARGET = gs.poisson(1.0, truncation=6)
_W = np.array([0.25, 0.5, 0.25])
_INDEPENDENT_TABLES = gs.CouplingSpec.independent_bernoulli([0.5, 0.3, 0.0]).conditional_sums
_CONFIGURATIONS = [((0, 0, 0), 0.25), ((1, 0, 0), 0.25), ((1, 1, 0), 0.25), ((1, 1, 1), 0.25)]


def _bad_table_calls():
    """(name, strategy of zero-argument calls) for each entry point that reads a probability table."""
    half = [0.5] * (_RESIDUAL_TARGET.support_max + 1)

    def residual(w, w_star, f):
        return lambda: [stein_residual_via_size_bias(_RESIDUAL_TARGET, np.array(w), np.array(w_star), np.array(f))]

    w_star = size_bias(_W).biased.tolist()
    tables = _INDEPENDENT_TABLES.tolist()
    return st.one_of(
        _corrupted([0.25, 0.25, 0.5]).map(lambda p: lambda: [gs.tv_distance(p, [0.5, 0.5])]),
        _corrupted([0.25, 0.25, 0.5]).map(lambda q: lambda: [gs.tv_distance([0.5, 0.5], q)]),
        _corrupted([0.2, 0.3, 0.5]).map(lambda base: lambda: [*size_bias(np.array(base)).biased]),
        _corrupted(_W.tolist()).map(lambda w: residual(w, w_star, half)),
        _corrupted(w_star).map(lambda ws: residual(_W, ws, half)),
        _corrupted(half).map(lambda f: residual(_W, w_star, f)),
        _corrupted([0.5, 0.3, 0.0]).map(lambda p: lambda: _spec_outputs(gs.CouplingSpec(p, _INDEPENDENT_TABLES))),
        st.integers(0, 2).flatmap(lambda row: _corrupted(tables[row]).map(
            lambda bad: lambda: _spec_outputs(gs.CouplingSpec(
                [0.5, 0.3, 0.0], [bad if i == row else t for i, t in enumerate(tables)])))),
        _corrupted([pr for _, pr in _CONFIGURATIONS]).map(lambda probs: lambda: _spec_outputs(
            gs.CouplingSpec.from_configurations(zip([bits for bits, _ in _CONFIGURATIONS], probs)))),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(call=_bad_table_calls())
def test_bad_table_entries_raise_or_give_finite_values(call):
    assert all(math.isfinite(v) for v in _finite_outputs(call))


def test_nan_tables_raise_naming_the_table():
    nan = math.nan
    with pytest.raises(ValueError, match="first argument is not a normalized pmf"):
        gs.tv_distance([nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="base law is not a probability vector"):
        size_bias(np.array([0.5, nan]))
    with pytest.raises(ValueError, match="conditional sum law 0 is not a probability vector"):
        gs.CouplingSpec([0.5, 0.5], [[0.5, nan], [0.5, 0.5]])
    with pytest.raises(ValueError, match="inconsistent with independence"):
        gs.CouplingSpec([0.5, 0.5], [[nan, 0.5], [0.5, 0.5]], independent=True)
    with pytest.raises(ValueError, match=r"configuration \[0, 0\] has probability nan"):
        gs.CouplingSpec.from_configurations([((0, 0), nan), ((1, 0), 0.5), ((1, 1), 0.5)])
    with pytest.raises(ValueError, match=r"configuration \[1, 0\] has probability -0.5"):
        gs.CouplingSpec.from_configurations([((0, 0), 1.0), ((1, 0), -0.5), ((1, 1), 0.5)])
    with pytest.raises(ValueError, match="test function values must be finite"):
        gs.solve(gs.poisson(1.0, truncation=3), [0.5, nan, 0.5, 0.5])


def test_tables_whose_sums_overflow_raise_naming_the_table():
    # math.fsum raises OverflowError on these sums; such a table does not sum to 1
    huge = 1e308
    with pytest.raises(ValueError, match="first argument is not a normalized pmf"):
        gs.tv_distance([huge, huge], [1.0])
    with pytest.raises(ValueError, match="base law is not a probability vector"):
        size_bias(np.array([huge, huge]))
    with pytest.raises(ValueError, match="conditional sum law 0 is not a probability vector"):
        gs.CouplingSpec([0.5, 0.5], [[huge, huge], [0.5, 0.5]])
    with pytest.raises(ValueError, match="configuration probabilities must sum to 1"):
        gs.CouplingSpec.from_configurations([((0, 0), huge), ((1, 1), huge)])
