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
ratio terms for one direction, and `solution_norm` is the selector that
picks the norm bound (exact supremum or rate-spread certificate) for a
solver, its restricted test class, or its pure-death extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sums import fsum
from .factors import extended_supnorm_bound, supnorm_bound
from .measures import GibbsMeasure
from .stein import extended_solution_norm, sup_solution_norm

__all__ = [
    "tv_distance",
    "ComparisonReport",
    "generator_comparison_bound",
    "generator_comparison_extended",
]

G_NORM_SOURCES = ("exact", "rate_spread", "user")


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum_k |p(k) - q(k)|.

    Supports are padded with zeros to a common length; both inputs must be
    normalized to 1 within 1e-12.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("tv_distance expects 1-d probability tables")
    size = max(p.size, q.size)
    p = np.pad(p, (0, size - p.size))
    q = np.pad(q, (0, size - q.size))
    for name, arr in (("first", p), ("second", q)):
        if abs(fsum(arr.tolist()) - 1.0) > 1e-12 or np.any(arr < -1e-15):
            raise ValueError(f"{name} argument is not a normalized pmf")
    return 0.5 * fsum(np.abs(p - q).tolist())


@dataclass(frozen=True)
class ComparisonReport:
    """Certified comparison between two measures.

    bound_value is the generator-mismatch part (the min over the two
    directions, already multiplied by the applicable solution-norm bound);
    tail_term is the support-extension surcharge (zero for equal supports).
    The certified distance bound is bound_value + tail_term.
    """

    measures: tuple[str, str]
    exact_tv: float
    bound_value: float
    branch_used: str
    tail_term: float
    g_norm_source: str
    g_norms: tuple[float, float]
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

    def to_csv_row(self) -> list:
        return [
            self.measures[0],
            self.measures[1],
            self.exact_tv,
            self.certified_bound,
            self.branch_used,
            self.tail_term,
            self.g_norm_source,
        ]


def mismatch_terms(solver: GibbsMeasure, averaged: GibbsMeasure) -> tuple[float, float]:
    """(activity term, ratio term) of the display, g solving for `solver`, X_a ~ `averaged`.

    activity term  E(X_a) |w_s - w_a| / w_a
    ratio term     (w_s/w_a) sum_{x=1}^{N_a} x pmf_a(x) |e^{(dV_s - dV_a)(x)} - 1|

    The gap |e^d - 1| is 1 above the solver's support, where its pure-death
    extension has no births, and +inf once d >= 700.  math.expm1 is applied
    per element: numpy's vectorized expm1 may differ from it by an ulp.
    """
    w_s, w_a = solver.omega, averaged.omega
    n_a = averaged.support_max
    shared = min(solver.support_max, n_a)
    d = np.diff(solver.V)[:shared] - np.diff(averaged.V)[:shared]
    gaps = np.ones(n_a)
    gaps[:shared] = [abs(math.expm1(v)) if v < 700.0 else math.inf for v in d.tolist()]
    terms = np.arange(1, n_a + 1) * averaged.pmf[1:] * gaps
    activity_term = averaged.mean() * abs(w_s - w_a) / w_a
    return activity_term, (w_s / w_a) * fsum(terms.tolist())


def solution_norm(
    m: GibbsMeasure, source: str, f_support: int | None = None, extended: bool = False
) -> tuple[float, bool]:
    """(bound on sup_f ||g_f|| over [0,1]-valued f, whether it is licensed).

    "exact" is the solver's exact supremum, over f vanishing above f_support,
    or for the pure-death extension of m when extended; "rate_spread" is the
    rate-spread certificate (the test class only shrinks under f_support), and
    +inf unlicensed where that certificate is inapplicable.
    """
    if source == "exact":
        if extended:
            return extended_solution_norm(m), True
        return sup_solution_norm(m, f_support=f_support), True
    if source == "rate_spread":
        cert = extended_supnorm_bound(m) if extended else supnorm_bound(m)
        return (cert.value if cert.applicable else math.inf), cert.applicable
    raise ValueError("g_norm_source must be 'exact' or 'rate_spread'")


def _comparison(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    source: str,
    values: tuple[float, float] | None,
    extended: bool,
) -> ComparisonReport:
    """The shared body: supp(m1) = {0..n} equals supp(m2) or, extended, sits inside it."""
    if source not in G_NORM_SOURCES:
        raise ValueError(f"g_norm_source must be one of {G_NORM_SOURCES}")
    n = m1.support_max
    notes = ""
    if source == "user":
        if values is None:
            raise ValueError("user-supplied norms require g_norm_values")
        norm1, norm2 = float(values[0]), float(values[1])
    else:
        norm1, licensed1 = solution_norm(m1, source, extended=extended)
        norm2, licensed2 = solution_norm(m2, source, f_support=n if extended else None)
        if not (licensed1 and licensed2):
            notes = "rate-spread norm inapplicable on at least one side"
    (a1, r1), (a2, r2) = mismatch_terms(m1, m2), mismatch_terms(m2, m1)
    v1, v2 = norm1 * (a1 + r1), norm2 * (a2 + r2)
    return ComparisonReport(
        measures=(m1.label(), m2.label()),
        exact_tv=tv_distance(m1.pmf, m2.pmf),
        bound_value=min(v1, v2),
        branch_used="direction_1_to_2" if v1 <= v2 else "direction_2_to_1",
        tail_term=fsum(m2.pmf[n + 1 :].tolist()),
        g_norm_source=source,
        g_norms=(norm1, norm2),
        notes=notes,
    )


def generator_comparison_bound(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    g_norm_source: str = "exact",
    g_norm_values: tuple[float, float] | None = None,
) -> ComparisonReport:
    """Certified TV bound for two measures sharing the support {0..N}."""
    if m1.support_max != m2.support_max:
        raise ValueError(
            "supports differ; use generator_comparison_extended for nested supports"
        )
    return _comparison(m1, m2, g_norm_source, g_norm_values, extended=False)


def generator_comparison_extended(
    m1: GibbsMeasure,
    m2: GibbsMeasure,
    g_norm_source: str = "exact",
    g_norm_values: tuple[float, float] | None = None,
) -> ComparisonReport:
    """Certified TV bound when supp(m1) = {0..n} sits strictly inside supp(m2).

    The reported bound splits into the generator-mismatch minimum and the
    tail term sum_{k>n} m2(k) contributed by the pure-death extension.
    """
    if m1.support_max >= m2.support_max:
        raise ValueError("m1's support must be strictly smaller than m2's")
    return _comparison(m1, m2, g_norm_source, g_norm_values, extended=True)
