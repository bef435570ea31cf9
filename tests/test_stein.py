import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein.compare import solution_norm
from gibbs_stein.oracle import _box_supremum, extremal_indicator, increment_coefficients, solution_coefficients
from gibbs_stein.stein import (
    _compensated_cumsum,
    apply_generator,
    solve_extended,
    stationarity_defect,
    sup_increment_exact,
    sup_solution_norm,
    sup_solution_table,
)

RNG = np.random.default_rng(20240817)

MEASURES = [
    gs.poisson(1.0),
    gs.poisson(5.0),
    gs.binomial(10, 0.3),
    gs.geometric(0.4),
    gs.discrete_uniform(8),
    gs.negative_binomial(2.0, 0.45),
    gs.hypergeometric(20, 6, 7),
]


def test_constant_test_function_gives_zero_solution():
    m = gs.poisson(2.0)
    sol = gs.solve(m, gs.TestFunction.constant(0.7, m.support_max + 1))
    assert np.max(np.abs(sol.g)) <= 1e-14


def test_point_indicator_value_at_one():
    # forward recursion with only the k=0 term: g(1) = pmf(0)(1 - pmf(0))/pmf(1)
    m = gs.poisson(1.0, truncation=40)
    sol = gs.solve(m, gs.TestFunction.indicator([0], 41))
    assert sol.g[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_residual_identity_random_f():
    for m in MEASURES:
        for _ in range(20):
            f = RNG.uniform(0.0, 1.0, m.support_max + 1)
            sol = gs.solve(m, f)
            worst = max(abs(sol.residual(k)) for k in range(m.support_max + 1))
            assert worst <= 1e-10


def test_boundary_values():
    m = gs.binomial(6, 0.4)
    f = RNG.uniform(0.0, 1.0, 7)
    sol = gs.solve(m, f)
    assert sol.g[0] == 0.0
    assert sol.g[m.support_max + 1] == 0.0


def _rational_solution(pmf, f, forward):
    """Exact-arithmetic version of the two partial-sum forms.

    With the weighted mean taken exactly, the forward and backward forms are
    the same rational number at every index.
    """
    pmf = [Fraction(x) for x in pmf]
    f = [Fraction(x) for x in f]
    total = sum(pmf)
    mu_f = sum(p * v for p, v in zip(pmf, f)) / total
    terms = [p * (v - mu_f) for p, v in zip(pmf, f)]
    n = len(pmf) - 1
    g = [Fraction(0)] * (n + 2)
    for j in range(n):
        if forward:
            s = sum(terms[: j + 1])
            g[j + 1] = s / ((j + 1) * pmf[j + 1])
        else:
            t = sum(terms[j + 1 :])
            g[j + 1] = -t / ((j + 1) * pmf[j + 1])
    return g


def test_forward_backward_agree_exactly_in_rational_arithmetic():
    pmf = [0.3, 0.25, 0.2, 0.15, 0.1]
    f = [1.0, 0.0, 0.5, 0.25, 0.75]
    gf = _rational_solution(pmf, f, forward=True)
    gb = _rational_solution(pmf, f, forward=False)
    assert gf == gb


def test_solver_matches_rational_oracle():
    weights = [0.3, 0.25, 0.2, 0.15, 0.1]
    m = gs.from_pmf(np.array(weights))
    f = np.array([1.0, 0.0, 0.5, 0.25, 0.75])
    oracle = _rational_solution(m.pmf, f, forward=True)
    sol = gs.solve(m, f)
    for j in range(m.support_max + 2):
        assert sol.g[j] == pytest.approx(float(oracle[j]), abs=1e-13)


def test_forward_backward_agree_in_well_conditioned_region():
    # pointwise in doubles the comparison is meaningful where j*pmf(j) is not
    # rounding-level small; the exact identity is covered by the rational oracle
    for m in (gs.poisson(2.0), gs.geometric(0.5)):
        f = RNG.uniform(0.0, 1.0, m.support_max + 1)
        gf = gs.solve(m, f, method="forward").g
        gb = gs.solve(m, f, method="backward").g
        for j in range(1, m.support_max + 1):
            if j * m.pmf[j] >= 1e-5:
                assert abs(gf[j] - gb[j]) <= 1e-10 * max(1.0, abs(gf[j]))


def test_solution_is_linear_in_f():
    m = gs.poisson(1.5)
    f1 = RNG.uniform(0.0, 1.0, m.support_max + 1)
    f2 = RNG.uniform(0.0, 1.0, m.support_max + 1)
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        mix = gs.solve(m, alpha * f1 + (1 - alpha) * f2).g
        combo = alpha * gs.solve(m, f1).g + (1 - alpha) * gs.solve(m, f2).g
        assert np.max(np.abs(mix - combo)) <= 1e-12


def test_stationarity_characterization_on_bounded_g():
    # E[Ag(Z)] = 0 for arbitrary bounded g (checked on bounded tables; the
    # full class with E|Z g(Z)| finite is not representable here)
    for m in MEASURES:
        for _ in range(20):
            g = RNG.uniform(-1.0, 1.0, m.support_max + 2)
            assert abs(stationarity_defect(m, g)) <= 1e-10


def test_apply_generator_basics():
    m = gs.poisson(2.0, truncation=30)
    zeros = np.zeros(m.support_max + 2)
    for k in (0, 3, 30):
        assert apply_generator(m, zeros, k) == 0.0
    f = RNG.uniform(0.0, 1.0, 31)
    sol = gs.solve(m, f)
    for k in range(31):
        assert apply_generator(m, sol.g, k) == pytest.approx(f[k] - sol.mu_f, abs=1e-11)
    with pytest.raises(ValueError):
        apply_generator(m, sol.g, 31)
    with pytest.raises(ValueError):
        apply_generator(m, sol.g, -1)


def test_length_mismatch_rejected():
    m = gs.poisson(1.0, truncation=10)
    with pytest.raises(ValueError, match="length"):
        gs.solve(m, np.zeros(5))


# ---------------------------------------------------------------------------
# extended solutions
# ---------------------------------------------------------------------------

def test_extended_zero_function():
    m = gs.poisson(1.0, truncation=6)
    sol = solve_extended(m, np.zeros(15), domain_max=14)
    assert np.max(np.abs(sol.g)) == 0.0


def test_extended_requires_vanishing_tail():
    m = gs.poisson(1.0, truncation=6)
    bad = np.zeros(15)
    bad[10] = 0.3
    with pytest.raises(ValueError, match="B0"):
        solve_extended(m, bad, domain_max=14)


def test_extended_boundary_step_identity():
    # g(n+1) - g(n) = (1/n)(f(n) - mu(f)/(n+1))
    m = gs.binomial(5, 0.4)
    n = m.support_max
    f = np.zeros(12)
    f[: n + 1] = RNG.uniform(0.0, 1.0, n + 1)
    sol = solve_extended(m, f, domain_max=11)
    step = sol.g[n + 1] - sol.g[n]
    assert step == pytest.approx((f[n] - sol.mu_f / (n + 1)) / n, abs=1e-12)


def test_extended_tail_values_and_residuals():
    m = gs.poisson(1.0, truncation=5)
    n = m.support_max
    f = np.zeros(16)
    f[: n + 1] = RNG.uniform(0.0, 1.0, n + 1)
    sol = solve_extended(m, f, domain_max=15)
    for j in range(n + 1, 16):
        assert sol.g[j] == pytest.approx(sol.mu_f / j, abs=1e-15)
        assert abs(sol.g[j]) <= 1.0 / j + 1e-15
    worst = max(abs(sol.residual(k)) for k in range(16))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# exact suprema over the test class
# ---------------------------------------------------------------------------

def test_solution_supremum_matches_closed_form():
    # independent oracle: the box supremum collapses to F(j-1) Fbar(j) / (j pmf(j))
    for m in MEASURES:
        t = m.cumulatives()
        table = sup_solution_table(m)
        for j in range(1, m.support_max + 1):
            closed = t.F[j - 1] * t.Fbar[j] / (j * m.pmf[j])
            assert table[j - 1] == pytest.approx(closed, rel=1e-10)


def test_solution_coefficients_reproduce_solver():
    m = gs.binomial(8, 0.35)
    f = RNG.uniform(0.0, 1.0, 9)
    sol = gs.solve(m, f)
    for j in range(1, 9):
        assert solution_coefficients(m, j) @ f == pytest.approx(sol.g[j], abs=1e-12)
        assert increment_coefficients(m, j) @ f == pytest.approx(
            sol.g[j + 1] - sol.g[j], abs=1e-12
        )


@pytest.mark.parametrize("quantity", ["increment", "solution"])
def test_supremum_attained_by_indicator(quantity):
    table_of = gs.sup_increment_table if quantity == "increment" else sup_solution_table
    for m in (gs.poisson(1.0), gs.geometric(0.5), gs.binomial(10, 0.3)):
        table = table_of(m)
        for j in (1, 2, 5):
            if j > m.support_max:
                continue
            f_star = extremal_indicator(m, j, quantity)
            assert set(np.unique(f_star)).issubset({0.0, 1.0})
            g = gs.solve(m, f_star).g
            attained = abs(g[j + 1] - g[j]) if quantity == "increment" else abs(g[j])
            assert attained == pytest.approx(table[j - 1], abs=1e-10)


def test_geometric_increment_supremum_value():
    # Example value (j+1-(1-p)^j)/(j(j+1)) at p = 1/2, j = 1 is 3/4
    m = gs.geometric(0.5)
    assert sup_increment_exact(m, 1) == pytest.approx(0.75, abs=1e-12)


def test_geometric_norm_below_reciprocal_p():
    for p in (0.25, 0.5, 0.75):
        m = gs.geometric(p)
        assert sup_solution_norm(m) <= 1.0 / p + 1e-10


def test_extended_norm_includes_tail_ceiling():
    m = gs.poisson(0.05, truncation=3)
    norm = solution_norm(m, extended=True)
    assert norm >= 1.0 / 4
    assert norm == max(sup_solution_norm(m), 1.0 / 4)


def test_supremum_index_validation():
    m = gs.poisson(1.0, truncation=10)
    for read, j in ((sup_increment_exact, 0), (increment_coefficients, 11)):
        with pytest.raises(ValueError, match=r"^increment coefficients defined for 1 <= j <= 10$"):
            read(m, j)
    for read, j in ((gs.sup_solution_exact, 11), (solution_coefficients, 0)):
        with pytest.raises(ValueError, match=r"^solution coefficients defined for 1 <= j <= 10$"):
            read(m, j)


def test_supremum_reads_are_table_entries():
    m = gs.geometric(0.3)
    n = m.support_max
    for s in (None, 2, n):
        solution, increment = sup_solution_table(m, s), gs.sup_increment_table(m, s)
        for j in (1, 2, n):
            assert gs.sup_solution_exact(m, j, s) == solution[j - 1]
            assert sup_increment_exact(m, j, s) == increment[j - 1]
            assert type(sup_increment_exact(m, j, s)) is float


# ---------------------------------------------------------------------------
# closed-form suprema and the compensated solve against their references
# ---------------------------------------------------------------------------

def test_compensated_cumsum_equals_neumaier_loop():
    # mixed signs and magnitudes, so that the running sums cancel
    rng = np.random.default_rng(3)
    x = rng.normal(size=500) * 10.0 ** rng.integers(-12, 3, 500)
    x[100:] -= np.mean(x[100:])
    expected, total, compensation = [], 0.0, 0.0
    for v in x.tolist():
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
        expected.append(total + compensation)
    assert _compensated_cumsum(x).tolist() == expected


def test_closed_form_suprema_equal_box_reference():
    # B (s = None) and B0 at several support bounds, including s below and above j;
    # the irregular laws break the rate sandwich, so the mass above j can be positive
    irregular = [gs.from_pmf(np.array([0.1, 0.1, 0.6, 0.2]))]
    rng = np.random.default_rng(11)
    irregular += [gs.from_pmf(rng.uniform(0.05, 1.0, 12), omega=2.0) for _ in range(3)]
    for m in MEASURES + irregular:
        n = m.support_max
        for s in (None, 0, 1, n // 2, n - 1, n):
            solution, increment = sup_solution_table(m, s), gs.sup_increment_table(m, s)
            for j in range(1, n + 1):
                for closed, coeffs in (
                    (solution[j - 1], solution_coefficients(m, j)),
                    (increment[j - 1], increment_coefficients(m, j)),
                ):
                    ref, _ = _box_supremum(coeffs, s)
                    assert abs(closed - ref) <= 1e-12 * ref, (m.label(), j, s)


def _oracle_norm(pmf) -> mpmath.mpf:
    """max_j F(j-1) Fbar(j) / (j pmf(j)) in the working precision, Fbar as suffix sums."""
    prefix, acc = [], mpmath.mpf(0)
    for p in pmf:
        acc += p
        prefix.append(acc)
    suffix, acc = [mpmath.mpf(0)] * len(pmf), mpmath.mpf(0)
    for k in range(len(pmf) - 1, -1, -1):
        acc += pmf[k]
        suffix[k] = acc
    return max(prefix[j - 1] * suffix[j] / (j * pmf[j]) for j in range(1, len(pmf)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: gs.poisson(500.0),
        lambda: gs.binomial(800, 0.5),
        lambda: gs.negative_binomial(600.0, 0.5),
        # pmf(80) is subnormal; the coefficient form gave +inf here
        lambda: gs.lattice_measure(gs.product_model(0.5), 80),
    ],
    ids=["poisson_500", "binomial_800", "negative_binomial_mean_600", "product_lattice_80"],
)
def test_norm_matches_mpmath_supremum(build):
    m = build()
    norm = sup_solution_norm(m)
    with mpmath.workdps(50):
        log_omega = mpmath.log(mpmath.mpf(m.omega))
        log_w = [mpmath.mpf(float(v)) + k * log_omega - mpmath.loggamma(k + 1) for k, v in enumerate(m.V)]
        top = max(log_w)
        weights = [mpmath.exp(x - top) for x in log_w]
        z = mpmath.fsum(weights)
        law = [w / z for w in weights]
        exact = _oracle_norm(law)
        tables = _oracle_norm([mpmath.mpf(float(p)) for p in m.pmf])
        # relative error of the stored pmf against the law V and omega define
        delta = max(abs(mpmath.mpf(float(p)) - q) / q for p, q in zip(m.pmf, law))
        # the supremum of the stored tables, to 1e-13
        assert abs(norm - tables) <= 1e-13 * tables
        # and of the law, up to what the tables' own error (three factors of 1 + delta) allows
        assert abs(norm - exact) <= (1e-13 + 3 * delta) * exact


def test_suprema_finite_near_the_underflow_ceiling():
    # the coefficient form gave +inf (and its increments inf or NaN) on all of these
    lattice = [gs.lattice_measure(gs.product_model(lam), n)
               for lam, n in ((0.5, 80), (0.5, 81), (0.625, 82), (1.0, 86), (1.0, 87))]
    for m in lattice + [gs.poisson(740.0)]:
        n = m.support_max
        assert m.pmf.min() < np.finfo(float).tiny  # a subnormal pmf entry
        for s in (None, n // 2):
            assert not math.isnan(sup_solution_norm(m, s)), (m.label(), s)
            assert np.all(np.isfinite(gs.sup_increment_table(m, s))), (m.label(), s)
    for m in lattice:
        assert math.isfinite(sup_solution_norm(m)), m.label()


def _table_laws():
    from gibbs_stein.verify import _standard_measures

    # a generator of its own, so that these draws do not move the module RNG's later ones
    rng = np.random.default_rng(1313)
    potentials = [
        gs.GibbsMeasure(float(rng.uniform(0.2, 5.0)), np.cumsum(-rng.exponential(0.6, int(rng.integers(2, 80)))))
        for _ in range(20)
    ]
    near_ceiling = [gs.lattice_measure(gs.product_model(lam), n)
                    for lam, n in ((0.5, 80), (0.5, 81), (0.625, 82), (1.0, 86), (1.0, 87))]
    return (MEASURES + _standard_measures() + potentials + near_ceiling
            + [gs.poisson(500.0), gs.poisson(740.0), gs.discrete_uniform(1), gs.binomial(2, 0.3)])


def _mp_suprema(pmf) -> tuple[list, list]:
    """sup over B of |g_f(j)| and of |g_f(j+1) - g_f(j)|, j = 1..N, from the stored pmf.

    The closed forms of sup_solution_table and sup_increment_table in the
    working precision, with F and Fbar as exact prefix and suffix sums.
    """
    p = [mpmath.mpf(float(x)) for x in pmf]
    n = len(p) - 1
    F = list(itertools.accumulate(p))
    Fbar = list(itertools.accumulate(reversed(p)))[::-1] + [mpmath.mpf(0)]
    # A = Fbar(j)/(j pmf(j)) and B = F(j-1)/(j pmf(j)), both 0 at j = N + 1
    A = [None] + [Fbar[j] / (j * p[j]) for j in range(1, n + 1)] + [0]
    B = [None] + [F[j - 1] / (j * p[j]) for j in range(1, n + 1)] + [0]
    solution = [F[j - 1] * A[j] for j in range(1, n + 1)]
    increment = [
        p[j] * A[j + 1] + F[j - 1] / j + F[j - 1] * max(A[j + 1] - A[j], 0) + Fbar[j + 1] * max(B[j] - B[j + 1], 0)
        for j in range(1, n + 1)
    ]
    return solution, increment


def test_supremum_tables_match_mpmath_closed_forms():
    # over B only: for B0 with s < j the table's |A' - A| cancels, and the box test covers it
    laws = _table_laws()
    assert len(laws) == 7 + 7 + 20 + 5 + 4
    worst = 0.0
    with mpmath.workdps(50):
        for m in laws:
            ref_solution, ref_increment = _mp_suprema(m.pmf)
            for table, ref in ((sup_solution_table(m), ref_solution),
                               (gs.sup_increment_table(m), ref_increment)):
                assert table.size == len(ref) == m.support_max, m.label()
                for j, (value, exact) in enumerate(zip(table.tolist(), ref), start=1):
                    gap = float(abs(value - exact) / exact)
                    assert gap <= 1e-13, (m.label(), j, gap)
                    worst = max(worst, gap)
    assert worst > 0.0  # the tables do round


def test_increment_table_rounds_a_gap_between_two_overflowed_products_up(capsys):
    # two adjacent subnormal entries: at j = 2 both products of each gap overflow, and inf - inf
    # gave a licensed NaN supremum; the 50-digit value there is 4.17e308, whose rounding is +inf
    from gibbs_stein.cli import main

    # the second law's solution bound at j = 1, 2 is above the double range too
    for desc in ("pmf:1,1e-300,2e-310,2e-310,1e-300,1", "pmf:0.5,2.2e-308,2.2e-308"):
        assert main(["bounds", "--measure", desc, "--j", f"1..{desc.count(',')}"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out.lower()
    m = gs.from_pmf(np.array([1.0, 1e-300, 2e-310, 2e-310, 1e-300, 1.0]))
    table = gs.sup_increment_table(m).tolist()
    with mpmath.workdps(50):
        _, ref = _mp_suprema(m.pmf)
        assert math.isinf(float(ref[1])) and math.isinf(table[1])
        for j, (value, exact) in enumerate(zip(table, ref), start=1):
            if math.isfinite(float(exact)):
                assert float(abs(value - exact) / exact) <= 1e-13, j
            else:  # above the double range, so only +inf bounds it
                assert value == math.inf, j


def test_solve_keeps_an_overflowed_solution_at_inf_without_a_warning():
    # two adjacent subnormal entries put g(2) and g(3) above the double range: the
    # library returns inf there without a warning, and `solve` on the command line
    # refuses the law
    m = gs.from_pmf(np.array([1.0, 1e-300, 2e-310, 2e-310, 1e-300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gs.solve(m, gs.TestFunction.indicator([0], 6)).g
    assert np.isinf(g[2:4]).all() and np.isfinite(np.delete(g, [2, 3])).all()


def test_supremum_tables_of_a_single_state_are_empty():
    m = gs.from_pmf(np.array([1.0]))
    assert sup_solution_table(m).size == gs.sup_increment_table(m).size == 0
    assert sup_solution_norm(m) == 0.0


@pytest.mark.parametrize(
    "build",
    [lambda: gs.discrete_uniform(10000), lambda: gs.negative_binomial(1.0, 0.0025)],
    ids=["discrete_uniform_10000", "negative_binomial_12878"],
)
def test_solve_at_large_support(build):
    m = build()
    n = m.support_max
    assert n >= 10**4
    rng = np.random.default_rng(7)
    k = np.arange(n + 1)
    for points in (rng.integers(0, n + 1, 5), [0], [n // 2, n]):
        f = gs.TestFunction.indicator(points, n + 1).values
        sol = gs.solve(m, f)
        residual = m.birth_rates * sol.g[1:] - k * sol.g[:-1] - (f - sol.mu_f)
        assert np.max(np.abs(residual)) <= 1e-10
    # the compensated running sums against correctly rounded partial sums
    f = rng.uniform(0.0, 1.0, n + 1)
    sol = gs.solve(m, f)
    terms = m.pmf * (f - sol.mu_f)
    for j in rng.integers(0, n, 25):
        scale = (j + 1) * m.pmf[j + 1]
        forward = math.fsum(terms[: j + 1].tolist()) / scale
        backward = -math.fsum(terms[j + 1 :].tolist()) / scale
        for method, ref in (("forward", forward), ("backward", backward)):
            g = gs.solve(m, f, method=method).g[j + 1]
            assert abs(g - ref) <= 1e-13 * abs(ref), (method, j)
