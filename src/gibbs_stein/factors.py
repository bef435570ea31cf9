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

Sharper closed forms are available per family: for Poisson(lambda) the
increment supremum is at most min(1/k, (1 - e^-lambda)/lambda); for the
geometric(p) it is at most min(1/k, (1+p)/(k+1)) with solution norm at most
1/p; for the binomial the rate-normalized variant min(1/((1-p)k), 1/(p(n-k)))
applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import GibbsMeasure

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


def _ge(lhs: float, rhs: float) -> bool:
    return lhs >= rhs - _REL_TOL * max(1.0, abs(lhs), abs(rhs))


def condition(m: GibbsMeasure, name: str) -> ConditionCheck:
    """Evaluate one licensing condition, reporting the first violating k."""
    n = m.support_max
    b = m.birth_rates
    tables = m.cumulatives()
    F, Fbar = tables.F, tables.Fbar
    first_bad = None
    for k in range(1, n):
        if name == "rate_sandwich":
            ok = _ge(k * F[k] / F[k - 1], b[k]) and _ge(b[k], k * Fbar[k + 1] / Fbar[k])
        elif name == "rates_nonincreasing":
            ok = _ge(b[k - 1], b[k])
        elif name == "rate_tail_lower":
            ok = _ge(b[k], k * Fbar[k + 1] / Fbar[k])
        else:
            raise ValueError(f"unknown condition {name!r}")
        if not ok:
            first_bad = k
            break
    return ConditionCheck(name, first_bad is None, first_bad)


def check_conditions(m: GibbsMeasure) -> list[ConditionCheck]:
    return [condition(m, name) for name in CONDITION_NAMES]


# ---------------------------------------------------------------------------
# Birth-rate range, analytic where the family is known
# ---------------------------------------------------------------------------

def _analytic_rate_range(m: GibbsMeasure) -> RateRange | None:
    p = m.params
    if m.kind == "poisson":
        lam = float(p["lam"])
        return RateRange(lam, lam)
    if m.kind == "binomial":
        # b_k = p(n-k)/(1-p) decreases from np/(1-p) to p/(1-p)
        n, pr = int(p["n"]), float(p["p"])
        return RateRange(pr / (1.0 - pr), n * pr / (1.0 - pr))
    if m.kind == "discrete_uniform":
        # b_k = k+1
        return RateRange(1.0, float(p["n"])) if int(p["n"]) >= 1 else RateRange(0.0, 0.0)
    if m.kind == "geometric":
        # b_k = (1-p)(k+1) grows without bound
        return RateRange(1.0 - float(p["p"]), math.inf)
    if m.kind == "negative_binomial":
        # b_k = (1-p)(k+r)
        return RateRange((1.0 - float(p["p"])) * float(p["r"]), math.inf)
    if m.kind == "repelling_limit":
        # rates lam, lam/3, 3lam, 2lam, (k+1)lam/(k-1) -> lam
        lam = float(p["lam"])
        return RateRange(lam / 3.0, 3.0 * lam)
    if m.kind == "product_limit":
        # b_k = z k^k/(k+1)^(k+1) decreases to 0; the supremum is b_0 = z
        return RateRange(0.0, float(p["z"]))
    return None


def rate_range(m: GibbsMeasure) -> RateRange:
    analytic = _analytic_rate_range(m)
    if analytic is not None:
        return analytic
    b = m.birth_rates[: m.support_max] if m.support_max >= 1 else np.zeros(1)
    window_limited = m.truncation is not None
    if b.size == 0:
        return RateRange(0.0, 0.0, window_limited)
    return RateRange(float(b.min()), float(b.max()), window_limited)


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
    if hi - 2.0 >= lo:
        try:
            extra = 0.5 * (hi / (lo + 1.0)) ** (hi - lo - 2.0)
        except OverflowError:
            extra = math.inf
        return 2.0 + extra
    return 2.0


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
    """Uniform-in-j increment bound in closed form for the Poisson and geometric families.

    Poisson(lambda): (1 - e^-lambda)/lambda, computed as -expm1(-lambda)/lambda
    so that small lambda keeps full precision; geometric(p): min(1, 1 + p).
    None for other families.
    """
    if kind == "poisson":
        lam = float(params["lam"])
        return -math.expm1(-lam) / lam
    if kind == "geometric":
        return min(1.0, 1.0 + float(params["p"]))
    return None


def closed_form_bounds(m_or_kind, params: dict | None = None, j: int | None = None) -> list[BoundCertificate]:
    """Per-family sharpened bounds for Poisson, geometric, and binomial laws."""
    if isinstance(m_or_kind, GibbsMeasure):
        kind, params = m_or_kind.kind, m_or_kind.params
    else:
        kind = str(m_or_kind)
        params = params or {}
    certs: list[BoundCertificate] = []
    if kind == "poisson":
        factor = uniform_increment(kind, params)
        certs.append(BoundCertificate(
            quantity="increment_uniform", value=min(1.0, factor),
            formula="poisson_increment",
        ))
        if j is not None:
            certs.append(BoundCertificate(
                quantity="increment_at_j", value=min(1.0 / j, factor),
                formula="poisson_increment_at_j", j=j,
            ))
    elif kind == "geometric":
        p = float(params["p"])
        certs.append(BoundCertificate(
            quantity="increment_uniform", value=uniform_increment(kind, params),
            formula="geometric_increment",
        ))
        certs.append(BoundCertificate(
            quantity="solution_norm", value=1.0 / p,
            formula="geometric_norm",
        ))
        if j is not None:
            certs.append(BoundCertificate(
                quantity="increment_at_j", value=min(1.0 / j, (1.0 + p) / (j + 1)),
                formula="geometric_increment_at_j", j=j,
            ))
    elif kind == "binomial":
        n, p = int(params["n"]), float(params["p"])
        if j is not None:
            if not 1 <= j <= n:
                raise ValueError(f"binomial closed form defined for 1 <= j <= {n}")
            rate_side = 1.0 / (p * (n - j)) if j < n else math.inf
            certs.append(BoundCertificate(
                quantity="increment_at_j", value=min(1.0 / ((1.0 - p) * j), rate_side),
                formula="binomial_increment_at_j", j=j,
                notes="rate-normalized variant",
            ))
    else:
        raise ValueError(f"no closed-form bounds for kind {kind!r}")
    return certs
