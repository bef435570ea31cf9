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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import FAMILIES, GibbsMeasure

__all__ = [
    "ConditionCheck",
    "RateRange",
    "BoundCertificate",
    "check_conditions",
    "condition",
    "rate_range",
    "increment_bound",
    "solution_bound",
    "supnorm_bound",
    "extended_supnorm_bound",
    "closed_form_bounds",
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

    def to_dict(self) -> dict:
        return {
            "inf_rate": self.inf_rate,
            "sup_rate": self.sup_rate,
            "window_limited": self.window_limited,
        }


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
        return {
            "quantity": self.quantity,
            "j": self.j,
            "value": self.value,
            "formula": self.formula,
            "conditions": [c.to_dict() for c in self.conditions],
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


def check_conditions(m: GibbsMeasure) -> list[ConditionCheck]:
    return [condition(m, name) for name in CONDITION_NAMES]


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

def increment_bound(m: GibbsMeasure, j: int) -> tuple[BoundCertificate, BoundCertificate]:
    """The exact-equality increment value and the cruder reciprocal form at j."""
    n = m.support_max
    if not 1 <= j <= n:
        raise ValueError(f"increment bound defined for 1 <= j <= {n}, got {j}")
    cond = (condition(m, "rate_sandwich"),)
    tables = m.cumulatives()
    b_j = m.birth_rates[j]
    tail_over_rate = tables.Fbar[j + 1] / b_j if j < n else 0.0
    exact_value = tail_over_rate + tables.F[j - 1] / j
    simple_value = min(1.0 / j, 1.0 / b_j) if b_j > 0 else 1.0 / j
    exact = BoundCertificate(
        quantity="increment_at_j",
        value=float(exact_value),
        formula="increment_exact_form",
        conditions=cond,
        j=j,
        exactness="exact_equality",
    )
    simple = BoundCertificate(
        quantity="increment_at_j",
        value=float(simple_value),
        formula="increment_rate_reciprocal",
        conditions=cond,
        j=j,
        exactness="upper_bound",
    )
    return exact, simple


def solution_bound(m: GibbsMeasure, j: int) -> BoundCertificate:
    """Nonuniform bound (min(ln j, mean) + 1/b_0)/Fbar(j) on |g(j)|."""
    n = m.support_max
    if not 1 <= j <= n:
        raise ValueError(f"solution bound defined for 1 <= j <= {n}, got {j}")
    cond = (condition(m, "rate_tail_lower"),)
    tables = m.cumulatives()
    b0 = m.birth_rates[0]
    value = (min(math.log(j), m.mean()) + 1.0 / b0) / tables.Fbar[j]
    return BoundCertificate(
        quantity="solution_at_j",
        value=float(value),
        formula="solution_log_tail",
        conditions=cond,
        j=j,
        exactness="upper_bound",
    )


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


def extended_supnorm_bound(m: GibbsMeasure) -> BoundCertificate:
    """Norm bound valid for the pure-death extension of m's generator.

    Above the support the solution is mu(f)/k <= 1/(N+1), so the bound is the
    rate-spread value capped below by that tail ceiling.
    """
    base = supnorm_bound(m)
    tail_cap = 1.0 / (m.support_max + 1)
    if not base.applicable:
        return base
    return BoundCertificate(
        quantity="solution_norm",
        value=max(base.value, tail_cap),
        formula="extended_norm_rate_spread",
        notes=base.notes,
    )


def uniform_increment(kind: str, params: dict) -> float | None:
    """The family's uniform-in-j increment bound in closed form, or None if it has none."""
    family = FAMILIES.get(kind)
    if family is None or family.increment is None:
        return None
    return family.increment(**family.values(params))


def closed_form_bounds(m_or_kind, params: dict | None = None, j: int | None = None) -> list[BoundCertificate]:
    """Per-family sharpened bounds from the family registry (Poisson, geometric, binomial)."""
    if isinstance(m_or_kind, GibbsMeasure):
        kind, params = m_or_kind.kind, m_or_kind.params
    else:
        kind = str(m_or_kind)
        params = params or {}
    family = FAMILIES.get(kind)
    if family is None or (family.increment is None and family.increment_at is None):
        raise ValueError(f"no closed-form bounds for kind {kind!r}")
    values = family.values(params)
    certs = [
        BoundCertificate(quantity, factor(**values), f"{kind}_{name}")
        for quantity, name, factor in (
            ("increment_uniform", "increment", family.increment),
            ("solution_norm", "norm", family.norm),
        )
        if factor is not None
    ]
    if j is not None and family.increment_at is not None:
        certs.append(BoundCertificate(
            quantity="increment_at_j", value=family.increment_at(j, **values),
            formula=f"{kind}_increment_at_j", j=j, notes=family.notes,
        ))
    return certs
