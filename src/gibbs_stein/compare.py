"""Exact total-variation distances and certified generator-comparison bounds.

Two Gibbs measures are compared through their birth-death generators: with
g the Stein solution for the first measure and X_2 distributed by the
second,

  |Ef(X_2) - mu_1(f)| <= ||g|| E(X_2) ( |w_1 - w_2|/w_2
                          + (w_1/w_2) E| e^{(dV_1 - dV_2)(X_2*)} - 1 | ),

where dV(x) = V(x) - V(x-1) and X_2* is the size-biased copy of X_2; the
roles of the measures can be swapped and the smaller branch kept.  The
expectation is an exact finite sum over the size-bias law, evaluated in log
space.  Multiplying by a bound on sup_f ||g_f|| over [0,1]-valued f turns
the display into a total-variation certificate; the exact supremum from the
solver gives the tightest honest constant, with the rate-spread norm bound
as a fallback.

When the first support {0..n} sits strictly inside the second, the first
generator is continued as a pure-death process above n.  The comparison
then acquires an additive tail term sum_{k>n} mu_2(k), the test class
shrinks to functions vanishing above n, and the rate ratio is 0 above the
small support (the extension has no births there).  Conditioning a law to
an initial segment reproduces exactly this tail term as the true distance,
so the certificate is sharp in that case.

Each formula lives here once and is shared with `gibbs_stein.lattice`:
`mismatch_terms` is the kernel that evaluates the display's activity and
ratio terms for one direction, `solution_norm` is the selector that picks
the norm bound (exact supremum or rate-spread certificate) for a solver,
its restricted test class, or its pure-death extension, and
`generator_comparison` is the one comparison body: equal supports are
compared as given, otherwise the smaller support is extended.  Each
direction carries its own norm (the per-branch rule), and the smaller
branch is kept.  `generator_comparison_bound` (equal supports) and
`generator_comparison_extended` (strictly nested) check their supports and
hand the pair to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factors import supnorm_bound
from .measures import GibbsMeasure, _fsum, _sums_to_one
from .stein import sup_solution_norm

__all__ = [
    "tv_distance",
    "ComparisonReport",
    "generator_comparison_bound",
    "generator_comparison_extended",
    "generator_comparison",
]

G_NORM_SOURCES = ("exact", "rate_spread", "user")


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum_k |p(k) - q(k)|.

    The shorter table counts as zero beyond its end; both inputs must be
    normalized to 1 within 1e-12.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("tv_distance expects 1-d probability tables")
    for name, arr in (("first", p), ("second", q)):
        if np.any(arr < -1e-15) or not _sums_to_one(arr, 1e-12):
            raise ValueError(f"{name} argument is not a normalized pmf")
    diff = np.zeros(max(p.size, q.size))
    diff[: p.size] = p
    diff[: q.size] -= q
    return 0.5 * _fsum(np.abs(diff))


@dataclass(frozen=True)
class ComparisonReport:
    """Certified comparison between two measures.

    bound_value is the generator-mismatch part (the min over the two
    directions, already multiplied by the applicable solution-norm bound);
    tail_term is the support-extension surcharge (zero for equal supports).
    The certified distance bound is bound_value + tail_term.  terms holds
    the chosen direction's (activity term, ratio term); it stays out of the
    emitted dict and CSV row.
    """

    measures: tuple[str, str]
    exact_tv: float
    bound_value: float
    branch_used: str
    tail_term: float
    g_norm_source: str
    g_norms: tuple[float, float]
    terms: tuple[float, float]
    notes: str = ""

    @property
    def certified_bound(self) -> float:
        return self.bound_value + self.tail_term

    def to_dict(self) -> dict:
        return {
            "m1": self.measures[0],
            "m2": self.measures[1],
            "exact_tv": self.exact_tv,
            "bound_value": self.bound_value,
            "certified_bound": self.certified_bound,
            "branch_used": self.branch_used,
            "tail_term": self.tail_term,
            "g_norm_source": self.g_norm_source,
            "g_norms": list(self.g_norms),
            "notes": self.notes,
        }


def mismatch_terms(solver: GibbsMeasure, averaged: GibbsMeasure) -> tuple[float, float]:
    """(activity term, ratio term) of the display, g solving for `solver`, X_a ~ `averaged`.

    activity term  E(X_a) |w_s - w_a| / w_a
    ratio term     (w_s/w_a) sum_{x=1}^{N_a} x pmf_a(x) |e^{(dV_s - dV_a)(x)} - 1|

    The gap |e^d - 1| is 1 above the solver's support, where its pure-death
    extension has no births, and +inf once d >= 700.  math.expm1 is mapped
    over the entries: numpy's vectorized expm1 may differ from it by an ulp.
    """
    w_s, w_a = solver.omega, averaged.omega
    n_a = averaged.support_max
    shared = min(solver.support_max, n_a)
    d = np.diff(solver.V)[:shared] - np.diff(averaged.V)[:shared]
    gaps = np.ones(n_a)
    gaps[:shared] = np.abs(np.fromiter(map(math.expm1, np.minimum(d, 700.0).tolist()), float, shared))
    gaps[:shared][~(d < 700.0)] = math.inf
    terms = np.arange(1, n_a + 1) * averaged.pmf[1:] * gaps
    activity_term = averaged.mean() * abs(w_s - w_a) / w_a
    return activity_term, (w_s / w_a) * _fsum(terms)


def solution_norm(
    m: GibbsMeasure, source: str, f_support: int | None = None, extended: bool = False
) -> tuple[float, bool]:
    """(bound on sup_f ||g_f|| over [0,1]-valued f, whether it is licensed).

    "exact" is the solver's exact supremum, over f vanishing above f_support,
    or for the pure-death extension of m when extended; "rate_spread" is the
    rate-spread certificate (the test class only shrinks under f_support), and
    +inf unlicensed where that certificate is inapplicable.  Above the support
    the extension's solution is mu(f)/k, which never exceeds 1/(N+1), so an
    extended norm is at least that tail ceiling.
    """
    if source == "exact":
        norm = sup_solution_norm(m, f_support=f_support)
    elif source == "rate_spread":
        cert = supnorm_bound(m)
        if not cert.applicable:
            return math.inf, False
        norm = cert.value
    else:
        raise ValueError("g_norm_source must be 'exact' or 'rate_spread'")
    return (max(norm, 1.0 / (m.support_max + 1)) if extended else norm), True


def generator_comparison(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    g_norm_source: str = "exact",
    g_norm_values: tuple[float, float] | None = None,
) -> ComparisonReport:
    """Certified TV bound for measures on {0..n1} and {0..n2}, nested either way.

    Equal supports are compared as given; otherwise the smaller support
    {0..n} goes first and is extended as a pure-death process, and the bound
    gains the tail term sum_{k>n} of the larger law.  The report's measures,
    norms and directions follow (smaller, larger); g_norm_values keep their
    order.
    """
    if g_norm_source not in G_NORM_SOURCES:
        raise ValueError(f"g_norm_source must be one of {G_NORM_SOURCES}")
    m1, m2 = sorted((m1, m2), key=lambda m: m.support_max)  # stable on ties
    n = m1.support_max
    extended = n < m2.support_max
    notes = ""
    if g_norm_source == "user":
        if g_norm_values is None:
            raise ValueError("user-supplied norms require g_norm_values")
        norm1, norm2 = float(g_norm_values[0]), float(g_norm_values[1])
    else:
        norm1, licensed1 = solution_norm(m1, g_norm_source, extended=extended)
        norm2, licensed2 = solution_norm(m2, g_norm_source, f_support=n if extended else None)
        if not (licensed1 and licensed2):
            notes = "rate-spread norm inapplicable on at least one side"
    terms1, terms2 = mismatch_terms(m1, m2), mismatch_terms(m2, m1)
    v1, v2 = norm1 * sum(terms1), norm2 * sum(terms2)
    return ComparisonReport(
        measures=(m1.label(), m2.label()),
        exact_tv=tv_distance(m1.pmf, m2.pmf),
        bound_value=min(v1, v2),
        branch_used="direction_1_to_2" if v1 <= v2 else "direction_2_to_1",
        tail_term=_fsum(m2.pmf[n + 1 :]),
        g_norm_source=g_norm_source,
        g_norms=(norm1, norm2),
        terms=terms1 if v1 <= v2 else terms2,
        notes=notes,
    )


def generator_comparison_bound(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    g_norm_source: str = "exact",
    g_norm_values: tuple[float, float] | None = None,
) -> ComparisonReport:
    """generator_comparison for two measures that must share the support {0..N}."""
    if m1.support_max != m2.support_max:
        raise ValueError(
            "supports differ; use generator_comparison_extended for nested supports"
        )
    return generator_comparison(m1, m2, g_norm_source, g_norm_values)


def generator_comparison_extended(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    g_norm_source: str = "exact",
    g_norm_values: tuple[float, float] | None = None,
) -> ComparisonReport:
    """generator_comparison when supp(m1) = {0..n} must sit strictly inside supp(m2)."""
    if m1.support_max >= m2.support_max:
        raise ValueError("m1's support must be strictly smaller than m2's")
    return generator_comparison(m1, m2, g_norm_source, g_norm_values)
