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

`bound_rows` lays out a whole `bounds` report, exact suprema included.  It
checks each licensing condition once per measure and evaluates each per-j
formula once, as a column over the ladder of indices; `increment_bound` and
`solution_bound` read their one entry from the same columns.
"""

from __future__ import annotations

import itertools
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
    "bound_rows",
]

_REL_TOL = 1e-12

CONDITION_NAMES = ("rate_sandwich", "rates_nonincreasing", "rate_tail_lower")


@dataclass(frozen=True)
class ConditionCheck:
    """A licensing condition and the first k that violates it (None if none does)."""

    name: str
    first_violation: int | None

    @property
    def holds(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class RateRange:
    """Infimum and supremum of the birth rates b_k over the whole family."""

    inf_rate: float
    sup_rate: float
    window_limited: bool = False


@dataclass(frozen=True)
class BoundCertificate:
    """A named bound value plus the checks that license it; a value of None is never licensed."""

    quantity: str
    value: float | None
    formula: str
    conditions: tuple[ConditionCheck, ...] = ()
    j: int | None = None
    exactness: str = "upper_bound"
    notes: str = ""

    @property
    def applicable(self) -> bool:
        return self.value is not None

    @property
    def licensed(self) -> bool:
        return self.applicable and all(c.holds for c in self.conditions)


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
    return ConditionCheck(name, int(bad[0]) + 1 if bad.size else None)


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

def _check_ladder(m: GibbsMeasure, js, bound: str):
    """Reject the first j of js, in ladder order, that lies outside 1..N."""
    n = m.support_max
    if js and not (1 <= min(js) and max(js) <= n):
        j = next(j for j in js if not 1 <= j <= n)
        raise ValueError(f"{bound} bound defined for 1 <= j <= {n}, got {j}")


def _increment_columns(m: GibbsMeasure, js) -> tuple[np.ndarray, np.ndarray]:
    """increment_exact_form and increment_rate_reciprocal at each j of the checked ladder js.

    The first is Fbar(j+1)/b_j + F(j-1)/j, whose first term is 0 at j = N;
    the second min(1/j, 1/b_j), or 1/j where b_j = 0.
    """
    tables, j = m.cumulatives(), np.array(js, dtype=np.int64)
    b = m.birth_rates[j]
    below = j < m.support_max
    tail_over_rate = np.zeros(j.size)
    tail_over_rate[below] = tables.Fbar[j[below] + 1] / b[below]
    rate_reciprocal = np.divide(1.0, b, out=np.full(j.size, math.inf), where=b > 0)
    return tail_over_rate + tables.F[j - 1] / j, np.minimum(1.0 / j, rate_reciprocal)


def _solution_column(m: GibbsMeasure, js, mean: float) -> np.ndarray:
    """solution_log_tail, (min(ln j, mean) + 1/b_0)/Fbar(j), at each j of the checked ladder js.

    js must not be empty: on N = 0, where no j is valid, b_0 is 0.  1/b_0 is
    a Python float division, which overflows to inf without a warning; so
    does a quotient above the double range, whose rounding is +inf.
    """
    logs = np.array([math.log(j) for j in js])
    with np.errstate(over="ignore"):
        return (np.minimum(logs, mean) + 1.0 / float(m.birth_rates[0])) / m.cumulatives().Fbar[np.array(js)]


def increment_bound(m: GibbsMeasure, j: int) -> tuple[BoundCertificate, BoundCertificate]:
    """The exact-equality increment value and the cruder reciprocal form at j."""
    _check_ladder(m, (j,), "increment")
    exact, simple = _increment_columns(m, (j,))
    cond = (condition(m, "rate_sandwich"),)
    return (
        BoundCertificate("increment_at_j", float(exact[0]), "increment_exact_form", cond, j,
                         exactness="exact_equality"),
        BoundCertificate("increment_at_j", float(simple[0]), "increment_rate_reciprocal", cond, j),
    )


def solution_bound(m: GibbsMeasure, j: int) -> BoundCertificate:
    """Nonuniform bound (min(ln j, mean) + 1/b_0)/Fbar(j) on |g(j)|."""
    _check_ladder(m, (j,), "solution")
    value = _solution_column(m, (j,), m.mean())[0]
    return BoundCertificate("solution_at_j", float(value), "solution_log_tail",
                            (condition(m, "rate_tail_lower"),), j)


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


def closed_form_bounds(m: GibbsMeasure) -> list[BoundCertificate]:
    """The family's uniform closed-form certificates from the registry ([] where it has none)."""
    family = FAMILIES.get(m.kind)
    if family is None:
        return []
    return [
        BoundCertificate(quantity, factor(**family.values(m.params)), f"{m.kind}_{name}")
        for quantity, name, factor in (
            ("increment_uniform", "increment", family.increment),
            ("solution_norm", "norm", family.norm),
        )
        if factor is not None
    ]


def _rows(js, values: list, quantity: str, formula: str, check: ConditionCheck | None = None,
          exactness: str = "upper_bound", notes: str = "") -> list[dict]:
    """One `bounds` row per j of js, with the value beside it, licensed by `check` if given.

    A row holds a certificate's fields, with the conditions as `name=T` or
    `name=F` text, and its `applicable` and `licensed` as the certificate
    derives them: a row without a value is neither.
    """
    template = {
        "quantity": quantity, "j": None, "value": None, "formula": formula,
        "conditions": "" if check is None else f"{check.name}={'T' if check.holds else 'F'}",
        "exactness": exactness, "applicable": None, "licensed": None, "notes": notes,
    }
    holds = check is None or check.holds
    return [{**template, "j": j, "value": value, "applicable": value is not None,
             "licensed": holds and value is not None} for j, value in zip(js, values)]


def bound_rows(m: GibbsMeasure, js: list[int]) -> list[dict]:
    """Every row of a `bounds` report for the indices js, in report order.

    The rate-spread norm and the uniform closed forms come first; then, per j,
    the two increment forms, the solution bound and the family's increment at
    j; last the exact suprema (the solution norm, then the increment at each
    j), as exact-equality rows with formula "exact_supremum".  Each licensing
    condition and the mean are computed once for the whole ladder, and each
    per-j formula once, as a column over js; the per-j rows are those columns
    zipped.  A j outside 1..N raises for the first one in ladder order.
    """
    rows = [row for cert in (supnorm_bound(m), *closed_form_bounds(m))  # these carry no conditions
            for row in _rows([None], [cert.value], cert.quantity, cert.formula, notes=cert.notes)]
    norm = sup_solution_norm(m)
    sandwich, tail = condition(m, "rate_sandwich"), condition(m, "rate_tail_lower")
    mean = m.mean()
    _check_ladder(m, js, "increment")
    if js:
        exact, simple = _increment_columns(m, js)
        columns = [
            _rows(js, exact.tolist(), "increment_at_j", "increment_exact_form", sandwich, "exact_equality"),
            _rows(js, simple.tolist(), "increment_at_j", "increment_rate_reciprocal", sandwich),
            _rows(js, _solution_column(m, js, mean).tolist(), "solution_at_j", "solution_log_tail", tail),
        ]
        family = FAMILIES.get(m.kind)
        if family is not None and family.increment_at is not None:
            params = family.values(m.params)
            at = [family.increment_at(j, **params) for j in js]
            columns.append(_rows(js, at, "increment_at_j", f"{m.kind}_increment_at_j", notes=family.notes))
        rows.extend(itertools.chain.from_iterable(zip(*columns)))
    rows += _rows([None], [norm], "solution_norm", "exact_supremum", exactness="exact_equality")
    if js:
        increments = sup_increment_table(m)[np.array(js) - 1].tolist()
        rows += _rows(js, increments, "increment_at_j", "exact_supremum", exactness="exact_equality")
    return rows
