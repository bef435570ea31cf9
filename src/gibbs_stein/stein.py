"""Solving the birth-death Stein equation for a discrete Gibbs measure.

For a test function f on the support of mu, the solution g = g_f solves

    b_k g(k+1) - k g(k) = f(k) - mu(f),        0 <= k <= N,

with g(0) = 0.  Written through the normalized pmf the recursion collapses
to a ratio of partial sums,

    g(j+1) = sum_{k<=j} pmf(k) (f(k) - mu(f)) / ((j+1) pmf(j+1)),

which is also minus the complementary tail sum divided by the same factor;
the two forms agree because the full sum vanishes.  The solver makes one
forward and one backward running sum over the terms, each with Neumaier's
compensation (Neumaier 1974), and evaluates at every j whichever side has
the smaller accumulated absolute mass, which keeps the residual of the
equation near machine precision even deep in the tails where pmf(j+1) is
tiny.  The whole solve is O(N).  Factorials, activity powers and the
partition function never appear.

Two exact suprema over the test class B = {f: values in [0, 1]} are
available: g_f(j) and its increment are affine in f with explicit
per-coordinate coefficients, so the supremum over the box [0, 1]^(N+1) is
attained at an indicator function read off the coefficient signs.  The
coefficient masses collapse to cumulative-table expressions (Brown and Xia,
Ann. Probab. 2001): the supremum of |g_f(j)| is F(j-1) Fbar(j) / (j pmf(j)),
and that of the increment is a sum of three such masses.  Both are
computed as tables over j = 1..N in a few whole-array passes
(`sup_solution_table`, `sup_increment_table`), and the solution norm is the
maximum of the first table, so each costs O(N) numpy work.  The values at
one j (`sup_solution_exact`, `sup_increment_exact`) are reads of these
tables.  The reference they are checked against, the coefficient vectors
and their box supremum, shares none of their arithmetic and lives in
`oracle`.

A measure with support {0..n} can also be compared against laws living on
a larger range: the generator is extended as a pure-death process above n
and the solution continued by g(k) = mu(f)/k for k > n, which keeps the
Stein equation valid there for f vanishing off the support (class B0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import GibbsMeasure, _compensated_cumsum, _fsum

__all__ = [
    "TestFunction",
    "SteinSolution",
    "solve",
    "solve_extended",
    "apply_generator",
    "stationarity_defect",
    "sup_solution_exact",
    "sup_increment_exact",
    "sup_solution_table",
    "sup_increment_table",
    "sup_solution_norm",
]


@dataclass(frozen=True)
class TestFunction:
    """A [0, 1]-valued test table: a member of the class B.

    A member of B0, which vanishes above a declared support, is a table with
    zeros there; `solve_extended` is the one place that checks it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("test function must be a non-empty 1-d table")
        # NaN fails both comparisons, so it is caught here too
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("test function values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @staticmethod
    def indicator(points, size: int) -> "TestFunction":
        points = np.asarray(points, dtype=int)
        if np.any((points < 0) | (points >= size)):
            raise ValueError(f"indicator points must lie in 0..{size - 1}, got {points.tolist()}")
        values = np.zeros(size)
        values[points] = 1.0
        return TestFunction(values)

    @staticmethod
    def constant(c: float, size: int) -> "TestFunction":
        return TestFunction(np.full(size, float(c)))


@dataclass(frozen=True)
class SteinSolution:
    """Value table of the Stein-equation solution.

    g is defined on 0..domain_max+1.  For a plain solve domain_max = N and
    g(N+1) = 0; for an extended solve domain_max > N and g(k) = mu(f)/k
    above the support.
    """

    g: np.ndarray
    measure: GibbsMeasure
    f: np.ndarray
    mu_f: float
    extended: bool
    domain_max: int

    def delta(self) -> np.ndarray:
        """Increments g(j+1) - g(j) for j = 0..domain_max."""
        return np.diff(self.g)

    def residual(self, k: int) -> float:
        """Generator applied at k minus the Stein-equation right-hand side."""
        n = self.measure.support_max
        if not 0 <= k <= self.domain_max:
            raise ValueError(f"residual defined for 0 <= k <= {self.domain_max}")
        if k <= n:
            lhs = apply_generator(self.measure, self.g, k)
            rhs = self.f[k] - self.mu_f if k < self.f.size else -self.mu_f
        else:
            lhs = -k * self.g[k]
            rhs = (self.f[k] if k < self.f.size else 0.0) - self.mu_f
        return float(lhs - rhs)


def _as_values(f, size: int) -> np.ndarray:
    if isinstance(f, TestFunction):
        values = f.values
    else:
        values = np.asarray(f, dtype=float)
    if values.size != size:
        raise ValueError(f"test function must have length {size}, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("test function values must be finite")
    return values


def solve(m: GibbsMeasure, f, method: str = "auto") -> SteinSolution:
    """Solve the Stein equation for mu = m and test function f.

    g(j+1) is the compensated forward sum of the terms pmf(k)(f(k) - mu(f))
    over k <= j, or minus the compensated backward sum over k > j, divided by
    (j+1) pmf(j+1); both running sums are made once.  method picks the side:
    "auto" chooses per index by smaller accumulated absolute mass, "forward"
    and "backward" force one side everywhere (exposed mainly so tests can
    assert the two forms agree).
    """
    if method not in ("auto", "forward", "backward"):
        raise ValueError(f"unknown method {method!r}")
    n = m.support_max
    values = _as_values(f, n + 1)
    pmf = m.pmf
    mu_f = _fsum(pmf * values)
    terms = pmf * (values - mu_f)
    abs_prefix = np.cumsum(np.abs(terms))
    abs_total = abs_prefix[-1]

    forward = _compensated_cumsum(terms)[:n]
    backward = -_compensated_cumsum(terms[::-1])[::-1][1:]
    if method == "auto":
        use_forward = abs_prefix[:n] <= abs_total - abs_prefix[:n]
    else:
        use_forward = method == "forward"
    g = np.zeros(n + 2)
    g[1 : n + 1] = np.where(use_forward, forward, backward) / (np.arange(1, n + 1) * pmf[1:])
    return SteinSolution(g=g, measure=m, f=values, mu_f=mu_f, extended=False, domain_max=n)


def solve_extended(m: GibbsMeasure, f, domain_max: int) -> SteinSolution:
    """Solution for the pure-death extension of m's generator above its support.

    f must vanish above m's support (class B0); for k > N the solution is
    mu(f)/k, which satisfies -k g(k) = f(k) - mu(f) there.
    """
    n = m.support_max
    if domain_max <= n:
        raise ValueError("domain_max must exceed the measure's support bound")
    values = _as_values(f, domain_max + 1)
    if np.any(values[n + 1 :] != 0.0):
        raise ValueError("f must be in B0: values above the support must be 0")

    base = solve(m, values[: n + 1])
    g = np.zeros(domain_max + 2)
    g[: n + 1] = base.g[: n + 1]
    ks = np.arange(n + 1, domain_max + 2, dtype=float)
    g[n + 1 :] = base.mu_f / ks
    return SteinSolution(
        g=g, measure=m, f=values, mu_f=base.mu_f, extended=True, domain_max=domain_max
    )


def apply_generator(m: GibbsMeasure, g, k: int) -> float:
    """Birth-death generator of m applied to g at state k."""
    g = np.asarray(g, dtype=float)
    n = m.support_max
    if not 0 <= k <= n:
        raise ValueError(f"generator defined for 0 <= k <= {n}, got {k}")
    if g.size < n + 2:
        raise ValueError("g must be defined on 0..N+1")
    return float(m.birth_rates[k] * g[k + 1] - k * g[k])


def stationarity_defect(m: GibbsMeasure, g) -> float:
    """E[Ag(Z)] for Z ~ m; zero for every bounded g by the Stein characterization."""
    g = np.asarray(g, dtype=float)
    n = m.support_max
    if g.size < n + 2:
        raise ValueError("g must be defined on 0..N+1")
    k = np.arange(n + 1, dtype=float)
    contrib = m.pmf * (m.birth_rates * g[1 : n + 2] - k * g[: n + 1])
    return _fsum(contrib)


# ---------------------------------------------------------------------------
# Exact suprema over the [0, 1]-valued test class
# ---------------------------------------------------------------------------

def _check_index(m: GibbsMeasure, j: int, quantity: str) -> None:
    """Reject j outside 1..N, naming the quantity's coefficients."""
    n = m.support_max
    if not 1 <= j <= n:
        raise ValueError(f"{quantity} coefficients defined for 1 <= j <= {n}")


def sup_solution_exact(m: GibbsMeasure, j: int, f_support: int | None = None) -> float:
    """Exact sup over f in B (or B0 with the given support s) of |g_f(j)|.

    Entry j - 1 of sup_solution_table(m, f_support).
    """
    _check_index(m, j, "solution")
    return float(sup_solution_table(m, f_support)[j - 1])


def sup_increment_exact(m: GibbsMeasure, j: int, f_support: int | None = None) -> float:
    """Exact sup over f in B (or B0 with the given support s) of |g_f(j+1) - g_f(j)|.

    Entry j - 1 of sup_increment_table(m, f_support).
    """
    _check_index(m, j, "increment")
    return float(sup_increment_table(m, f_support)[j - 1])


def _products_over(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x y / w at every entry, for x, y in (0, 1] and w > 0, the smaller factor divided first.

    An entry overflows only when x y / w itself exceeds the double range, even
    where w is subnormal and x / w or y / w alone would not fit.
    """
    return np.minimum(x, y) / w * np.maximum(x, y)


def sup_solution_table(m: GibbsMeasure, f_support: int | None = None) -> np.ndarray:
    """Exact sup over f in B (or B0 with support s) of |g_f(j)|, for j = 1..N.

    Entry j - 1 is the positive coefficient mass F(min(j-1, s)) Fbar(j) / (j pmf(j)),
    which the negative one never exceeds.
    """
    n = m.support_max
    tables = m.cumulatives()
    below = tables.F[:n] if f_support is None else tables.F[np.minimum(np.arange(n), f_support)]
    return _products_over(below, tables.Fbar[1:], np.arange(1, n + 1) * m.pmf[1:])


def sup_increment_table(m: GibbsMeasure, f_support: int | None = None) -> np.ndarray:
    """Exact sup over f in B (or B0 with support s) of |g_f(j+1) - g_f(j)|, for j = 1..N.

    With A = Fbar(j)/(j pmf(j)), B = F(j-1)/(j pmf(j)) and A', B' the same at
    j+1 (0 at j = N), the increment's coefficient is pmf(k)(A' - A) below j,
    pmf(j) A' + F(j-1)/j at j and pmf(k)(B - B') above j.  Over B the positive
    and negative masses are equal; entry j - 1 is the positive one,

        pmf(j) A' + F(j-1)/j + F(j-1) (A' - A)^+ + Fbar(j+1) (B - B')^+,

    each product evaluated as one ratio so that a subnormal pmf entry does
    not overflow it; at j = N it is F(N-1)/N.  Over B0 with s >= j the
    coefficients above s share one sign, so dropping them leaves the other
    sign's mass, and the supremum, as over B; with s < j only F(s) |A' - A|
    remains.
    """
    n = m.support_max
    if n == 0:
        return np.zeros(0)
    pmf, tables = m.pmf, m.cumulatives()
    F, Fbar = tables.F, tables.Fbar
    js = np.arange(1, n + 1)
    w = js * pmf[1:]  # j pmf(j); w[j] is (j+1) pmf(j+1)
    below, tail, w_next = F[: n - 1], Fbar[2:], w[1:]
    out = np.empty(n)
    out[: n - 1] = (
        below / js[:-1]
        + _products_over(pmf[1:n], tail, w_next)
        + np.maximum(_products_over(below, tail, w_next) - _products_over(below, Fbar[1:n], w[:-1]), 0.0)
        + np.maximum(_products_over(below, tail, w[:-1]) - _products_over(F[1:n], tail, w_next), 0.0)
    )
    out[n - 1] = F[n - 1] / n
    if f_support is not None and f_support < n:
        # j = f_support + 1 .. N, where only F(s) |A' - A| remains
        s = f_support
        at_next = np.append(_products_over(F[s], Fbar[s + 2 :], w[s + 1 :]), 0.0)
        out[s:] = np.abs(at_next - _products_over(F[s], Fbar[s + 1 :], w[s:]))
    return out


def sup_solution_norm(m: GibbsMeasure, f_support: int | None = None) -> float:
    """max_j sup_f |g_f(j)|, the exact certified bound on the solution norm."""
    if m.support_max == 0:
        return 0.0
    return float(sup_solution_table(m, f_support).max())

