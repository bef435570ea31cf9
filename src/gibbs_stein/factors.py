"""Certified bounds on Stein-equation solutions and their increments.

Every bound is emitted as a certificate that records the value, the formula
used, and the outcome of the condition checks that license it; nothing is
assumed silently.  The licensing conditions on the birth rates b_k (with
unit per capita deaths, and F / Fbar the cumulative tables) are:

  rate_sandwich          k F(k)/F(k-1) >= b_k >= k Fbar(k+1)/Fbar(k)
  rates_nonincreasing    b_k <= b_{k-1}        (sufficient for the sandwich)
  rate_tail_lower        b_k >= k Fbar(k+1)/Fbar(k)

Under the sandwich condition the supremum over [0,1]-valued test functions
of the solution increment at j is exactly

  Fbar(j+1)/b_j + F(j-1)/j,

with the cruder per-index form min(1/j, 1/b_j).  Under the tail condition
the solution itself satisfies the nonuniform bound

  |g(j)| <= (min(ln j, mean) + 1/b_0) / Fbar(j),

and with no monotonicity at all the solution norm is controlled through the
spread of the birth rates,

  ||g|| <= 2 + (1/2) (sup_b / (inf_b + 1))^(sup_b - inf_b - 2)   if sup_b - 2 >= inf_b,

provided 0 < inf_b and sup_b < infinity.  For truncated infinite laws the
rate range is taken from the untruncated family when it is known in closed
form; otherwise it is computed on the truncation window and flagged, since
a window silently caps an unbounded rate sequence and would fake
applicability.

Sharper closed forms are available per family, and are read with the
analytic rate ranges from the family registry `measures.FAMILIES`: for
Poisson(lambda) the increment supremum is at most min(1/k, (1 - e^-lambda)/lambda);
for the geometric(p) it is at most min(1/k, (1+p)/(k+1)) with solution norm at
most 1/p; for the binomial the rate-normalized variant
min(1/((1-p)k), 1/(p(n-k))) applies.

`bound_certificates` assembles a whole `bounds` report, exact suprema
included; it checks each licensing condition once per measure and shares its
per-j builders with `increment_bound` and `solution_bound`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import FAMILIES, GibbsMeasure
from .stein import sup_increment_table, sup_solution_norm

__all__ = [
    "ConditionCheck",
    "RateRange",
    "BoundCertificate",
    "condition",
    "rate_range",
    "increment_bound",
    "solution_bound",
    "supnorm_bound",
    "closed_form_bounds",
    "bound_certificates",
]

_REL_TOL = 1e-12

CONDITION_NAMES = ("rate_sandwich", "rates_nonincreasing", "rate_tail_lower")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    holds: bool
    first_violation: int | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "first_violation": self.first_violation}


@dataclass(frozen=True)
class RateRange:
    """Infimum and supremum of the birth rates b_k over the whole family."""

    inf_rate: float
    sup_rate: float
    window_limited: bool = False


@dataclass(frozen=True)
class BoundCertificate:
    """A named bound value plus the checks that license it."""

    quantity: str
    value: float | None
    formula: str
    conditions: tuple[ConditionCheck, ...] = ()
    j: int | None = None
    exactness: str = "upper_bound"
    applicable: bool = True
    notes: str = ""

    @property
    def licensed(self) -> bool:
        return self.applicable and all(c.holds for c in self.conditions)

    def to_dict(self) -> dict:
        return self._fields([c.to_dict() for c in self.conditions])

    def to_row(self) -> dict:
        """`to_dict` with the conditions as `name=T;name=F` text: a `bounds` report row."""
        return self._fields(";".join(f"{c.name}={'T' if c.holds else 'F'}" for c in self.conditions))

    def _fields(self, conditions) -> dict:
        return {
            "quantity": self.quantity,
            "j": self.j,
            "value": self.value,
            "formula": self.formula,
            "conditions": conditions,
            "exactness": self.exactness,
            "applicable": self.applicable,
            "licensed": self.licensed,
            "notes": self.notes,
        }


def _ge(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs >= rhs up to _REL_TOL relative to max(1, |lhs|, |rhs|)."""
    return lhs >= rhs - _REL_TOL * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def condition(m: GibbsMeasure, name: str) -> ConditionCheck:
    """Evaluate one licensing condition over k = 1..N-1, reporting the first violating k."""
    n = m.support_max
    b = m.birth_rates
    tables = m.cumulatives()
    F, Fbar = tables.F, tables.Fbar
    k = np.arange(1, n, dtype=float)
    at, below, above = slice(1, n), slice(0, n - 1), slice(2, n + 1)
    if name == "rate_sandwich":
        ok = _ge(k * F[at] / F[below], b[at]) & _ge(b[at], k * Fbar[above] / Fbar[at])
    elif name == "rates_nonincreasing":
        ok = _ge(b[below], b[at])
    elif name == "rate_tail_lower":
        ok = _ge(b[at], k * Fbar[above] / Fbar[at])
    else:
        raise ValueError(f"unknown condition {name!r}")
    bad = np.flatnonzero(~ok)
    first_bad = int(bad[0]) + 1 if bad.size else None
    return ConditionCheck(name, first_bad is None, first_bad)


# ---------------------------------------------------------------------------
# Birth-rate range, analytic where the family is known
# ---------------------------------------------------------------------------

def rate_range(m: GibbsMeasure) -> RateRange:
    family = FAMILIES.get(m.kind)
    if family is not None and family.rates is not None:
        return RateRange(*family.rates(**family.values(m.params)))
    b = m.birth_rates[: m.support_max] if m.support_max >= 1 else np.zeros(1)
    return RateRange(float(b.min()), float(b.max()), m.truncation is not None)


# ---------------------------------------------------------------------------
# Bound operations
# ---------------------------------------------------------------------------

def _check_index(m: GibbsMeasure, j: int, bound: str):
    n = m.support_max
    if not 1 <= j <= n:
        raise ValueError(f"{bound} bound defined for 1 <= j <= {n}, got {j}")


def _increment_certificates(
    m: GibbsMeasure, j: int, cond: tuple[ConditionCheck, ...]
) -> tuple[BoundCertificate, BoundCertificate]:
    tables, b_j = m.cumulatives(), m.birth_rates[j]
    tail_over_rate = tables.Fbar[j + 1] / b_j if j < m.support_max else 0.0
    exact_value = tail_over_rate + tables.F[j - 1] / j
    simple_value = min(1.0 / j, 1.0 / b_j) if b_j > 0 else 1.0 / j
    return (
        BoundCertificate("increment_at_j", float(exact_value), "increment_exact_form", cond, j,
                         exactness="exact_equality"),
        BoundCertificate("increment_at_j", float(simple_value), "increment_rate_reciprocal", cond, j),
    )


def _solution_certificate(
    m: GibbsMeasure, j: int, cond: tuple[ConditionCheck, ...], mean: float
) -> BoundCertificate:
    value = (min(math.log(j), mean) + 1.0 / m.birth_rates[0]) / m.cumulatives().Fbar[j]
    return BoundCertificate("solution_at_j", float(value), "solution_log_tail", cond, j)


def increment_bound(m: GibbsMeasure, j: int) -> tuple[BoundCertificate, BoundCertificate]:
    """The exact-equality increment value and the cruder reciprocal form at j."""
    _check_index(m, j, "increment")
    return _increment_certificates(m, j, (condition(m, "rate_sandwich"),))


def solution_bound(m: GibbsMeasure, j: int) -> BoundCertificate:
    """Nonuniform bound (min(ln j, mean) + 1/b_0)/Fbar(j) on |g(j)|."""
    _check_index(m, j, "solution")
    return _solution_certificate(m, j, (condition(m, "rate_tail_lower"),), m.mean())


def _rate_spread_value(rr: RateRange) -> float:
    lo, hi = rr.inf_rate, rr.sup_rate
    if not hi - 2.0 >= lo:
        return 2.0
    x, e = hi / (lo + 1.0), hi - lo - 2.0
    try:
        return 2.0 + 0.5 * x ** e
    except OverflowError:
        # x^e overflows before it is halved; half of it may still be finite
        if math.log(0.5) + e * math.log(x) < math.log(sys.float_info.max):
            return 2.0 + 0.5 * x ** (0.5 * e) * x ** (0.5 * e)
        return math.inf


def supnorm_bound(m: GibbsMeasure) -> BoundCertificate:
    """Solution-norm bound from the birth-rate spread; needs 0 < inf and finite sup."""
    rr = rate_range(m)
    notes = "window-limited rate range" if rr.window_limited else ""
    if not rr.inf_rate > 0.0 or not math.isfinite(rr.sup_rate):
        reason = "sup of birth rates is infinite" if not math.isfinite(rr.sup_rate) else \
            "inf of birth rates is 0"
        return BoundCertificate(
            quantity="solution_norm",
            value=None,
            formula="norm_rate_spread",
            applicable=False,
            notes=(notes + "; " if notes else "") + reason,
        )
    return BoundCertificate(
        quantity="solution_norm",
        value=_rate_spread_value(rr),
        formula="norm_rate_spread",
        notes=notes,
    )


def uniform_increment(kind: str, params: dict) -> float | None:
    """The family's uniform-in-j increment bound in closed form, or None if it has none."""
    family = FAMILIES.get(kind)
    if family is None or family.increment is None:
        return None
    return family.increment(**family.values(params))


def closed_form_bounds(m: GibbsMeasure, j: int | None = None) -> list[BoundCertificate]:
    """The family's closed-form certificates from the registry ([] where it has none).

    Without j these are the uniform ones (increment and solution norm); with
    j, the per-j increment certificate alone.
    """
    family = FAMILIES.get(m.kind)
    if family is None:
        return []
    if j is not None:
        if family.increment_at is None:
            return []
        value = family.increment_at(j, **family.values(m.params))
        return [BoundCertificate("increment_at_j", value, f"{m.kind}_increment_at_j", j=j,
                                 notes=family.notes)]
    return [
        BoundCertificate(quantity, factor(**family.values(m.params)), f"{m.kind}_{name}")
        for quantity, name, factor in (
            ("increment_uniform", "increment", family.increment),
            ("solution_norm", "norm", family.norm),
        )
        if factor is not None
    ]


def bound_certificates(m: GibbsMeasure, js: list[int]) -> list[BoundCertificate]:
    """Every certificate of a `bounds` report for the indices js, in report order.

    The rate-spread norm and the uniform closed forms come first; then, per j,
    the two increment forms, the solution bound and the family's increment at
    j; last the exact suprema (the solution norm, then the increment at each
    j), as exact-equality certificates with formula "exact_supremum".  Each
    licensing condition and the mean are computed once for the whole ladder.
    """
    certs = [supnorm_bound(m), *closed_form_bounds(m)]
    norm = sup_solution_norm(m)
    sandwich = (condition(m, "rate_sandwich"),)
    tail = (condition(m, "rate_tail_lower"),)
    mean = m.mean()
    for j in js:
        _check_index(m, j, "increment")
        certs.extend(_increment_certificates(m, j, sandwich))
        certs.append(_solution_certificate(m, j, tail, mean))
        certs.extend(closed_form_bounds(m, j))
    certs.append(BoundCertificate("solution_norm", norm, "exact_supremum", exactness="exact_equality"))
    increments = sup_increment_table(m) if js else None
    certs.extend(
        BoundCertificate("increment_at_j", float(increments[j - 1]), "exact_supremum", j=j,
                         exactness="exact_equality")
        for j in js
    )
    return certs
