"""Occupancy laws of interacting lattice gases on [0, 1] and their limits.

A family of symmetric k-point interaction weights f_k (f_0 = f_1 = 1)
defines, for an n-cell partition of [0, 1] with one representative point
per cell and per-cell activity z/n, the particle-count law

    P(S_n = k)  proportional to  (z^k / k!) W_n(k),
    W_n(k) = n^-k sum_{i_1..i_k} f_k(q_{i_1}, ..., q_{i_k}),

a Gibbs measure with activity z and potential log W_n on {0..n}.  Its
continuum companion uses the integrated weights W(k) = int f_k over the
k-cube.  Three families are built in:

  ideal_gas    f_k = 1:                 W_n = W = 1, the law is Poisson(z)
               conditioned to {0..n}.
  repelling    f_k = sum over ordered pairs (x_i - x_j)^2, midpoint grid:
               W(k) = k(k-1)/6 and W_n(k) = k(k-1)(n+1)(n-1)/(6 n^2).
  product      f_k = prod_{i<j} x_i x_j = prod_i x_i^(k-1), left endpoints:
               W(k) = k^-k and W_n(k) = n^(-k^2) (sum_{i<n} i^(k-1))^k.

Custom families evaluate W_n by explicit k-fold grid summation (guarded,
deterministic order) and W by one-dimensional quadrature when the family
declares a separable integrand.

The distance from S_n to the limit law is certified by comparing the two
generators (activity mismatch plus weight-ratio mismatch, each computable
in log space) plus the tail mass of the limit law beyond n, and for
Bernoulli sums by a size-bias coupling bound whose increments are charged
either to harmonic sums or to reciprocal birth rates.  The generator terms
come from the comparison kernel `compare.mismatch_terms`, and both
certificates take their solution norms from `compare.solution_norm`.

A caution on the repelling family: the lattice/continuum weight ratios
match only from k = 3 on; at k = 2 they differ by the factor (n^2-1)/n^2,
so the lattice law is close to, but not exactly, the conditioned limit law,
and the repelling closed-form bound (which presumes exact matching) is not
a certificate.  See the acceptance tests for the quantified consequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from ._sums import fsum, log_sum_exp
from .compare import mismatch_terms, solution_norm, tv_distance
from .factors import condition, uniform_increment
from .measures import GibbsMeasure, TailPolicy, poisson
from .size_bias import CouplingSpec

__all__ = [
    "InteractionModel",
    "ideal_gas_model",
    "repelling_model",
    "product_model",
    "custom_model",
    "grid_points",
    "lattice_weight_brute",
    "lattice_measure",
    "limit_measure",
    "LatticeBoundReport",
    "lattice_comparison_report",
    "closed_form_bound",
    "harmonic_between",
    "CouplingBound",
    "sum_coupling_bound",
    "PoissonSumReport",
    "poisson_sum_bounds",
]

_BRUTE_FORCE_GUARD = 10**7


# ---------------------------------------------------------------------------
# Interaction models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionModel:
    """A k-point interaction family with lattice and continuum weights.

    log_Wn(n, k) and log_W(k) return log weights (-inf is a hard zero);
    fk evaluates the raw interaction at a tuple of points, which is what
    the brute-force lattice summation uses.
    """

    kind: str
    z: float
    point_rule: str
    fk: Callable[[tuple[float, ...]], float]
    log_Wn_fn: Callable[[int, int], float] | None = None
    log_W_fn: Callable[[int], float] | None = None
    separable_integrand: Callable[[int], Callable[[float], float]] | None = None

    def log_Wn(self, n: int, k: int) -> float:
        if k <= 1:
            return 0.0
        if self.log_Wn_fn is not None:
            return self.log_Wn_fn(n, k)
        value = lattice_weight_brute(self, n, k)
        return math.log(value) if value > 0.0 else -math.inf

    def log_W(self, k: int) -> float:
        if k <= 1:
            return 0.0
        if self.log_W_fn is not None:
            return self.log_W_fn(k)
        if self.separable_integrand is not None:
            integrand = self.separable_integrand(k)
            value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
            return k * math.log(value) if value > 0.0 else -math.inf
        raise ValueError(
            "custom model has no continuum weights; supply W directly or a separable integrand"
        )

    def Wn(self, n: int, k: int) -> float:
        return math.exp(self.log_Wn(n, k))

    def W(self, k: int) -> float:
        return math.exp(self.log_W(k))


def _fk_ideal(points: tuple[float, ...]) -> float:
    return 1.0


def _fk_repelling(points: tuple[float, ...]) -> float:
    if len(points) <= 1:
        return 1.0
    return 2.0 * fsum(
        (points[a] - points[b]) ** 2
        for a in range(len(points))
        for b in range(a + 1, len(points))
    )


def _fk_product(points: tuple[float, ...]) -> float:
    k = len(points)
    if k <= 1:
        return 1.0
    return math.prod(x ** (k - 1) for x in points)


def ideal_gas_model(lam: float) -> InteractionModel:
    if not lam > 0:
        raise ValueError("activity must be positive")
    return InteractionModel(
        kind="ideal_gas", z=lam, point_rule="midpoint", fk=_fk_ideal,
        log_Wn_fn=lambda n, k: 0.0, log_W_fn=lambda k: 0.0,
    )


def repelling_model(lam: float) -> InteractionModel:
    """Pairwise squared-distance interaction on the midpoint grid."""
    if not lam > 0:
        raise ValueError("activity must be positive")

    def log_wn(n: int, k: int) -> float:
        return math.log(k * (k - 1) * (n + 1) * (n - 1)) - math.log(6.0 * n * n)

    def log_w(k: int) -> float:
        return math.log(k * (k - 1) / 6.0)

    return InteractionModel(
        kind="repelling", z=lam, point_rule="midpoint", fk=_fk_repelling,
        log_Wn_fn=log_wn, log_W_fn=log_w,
    )


def product_model(z: float = 1.0) -> InteractionModel:
    """Coordinate-product interaction on the left-endpoint grid."""
    if not z > 0:
        raise ValueError("activity must be positive")

    def log_wn(n: int, k: int) -> float:
        # W_n(k) = n^(-k^2) (sum_{i=0}^{n-1} i^(k-1))^k, in log space
        if n < 2:
            return -math.inf
        powers = [(k - 1) * math.log(i) for i in range(1, n)]
        return -k * k * math.log(n) + k * log_sum_exp(np.array(powers))

    def log_w(k: int) -> float:
        return -k * math.log(k)

    return InteractionModel(
        kind="product", z=z, point_rule="left_endpoint", fk=_fk_product,
        log_Wn_fn=log_wn, log_W_fn=log_w,
    )


def custom_model(
    fk: Callable[[tuple[float, ...]], float],
    z: float,
    point_rule: str = "midpoint",
    log_W_fn: Callable[[int], float] | None = None,
    separable_integrand: Callable[[int], Callable[[float], float]] | None = None,
) -> InteractionModel:
    if point_rule not in ("midpoint", "left_endpoint"):
        raise ValueError("point_rule must be 'midpoint' or 'left_endpoint'")
    if not z > 0:
        raise ValueError("activity must be positive")
    return InteractionModel(
        kind="custom", z=z, point_rule=point_rule, fk=fk,
        log_W_fn=log_W_fn, separable_integrand=separable_integrand,
    )


def grid_points(n: int, rule: str) -> list[float]:
    if rule == "midpoint":
        return [(2 * i - 1) / (2.0 * n) for i in range(1, n + 1)]
    if rule == "left_endpoint":
        return [(i - 1) / float(n) for i in range(1, n + 1)]
    raise ValueError(f"unknown point rule {rule!r}")


def lattice_weight_brute(model: InteractionModel, n: int, k: int) -> float:
    """W_n(k) by explicit k-fold summation over the grid (deterministic order)."""
    if k <= 1:
        return 1.0
    if n**k > _BRUTE_FORCE_GUARD:
        raise ValueError(f"k-fold summation size n^k = {n**k} exceeds the guard {_BRUTE_FORCE_GUARD}")
    grid = grid_points(n, model.point_rule)
    total = fsum(model.fk(points) for points in itertools.product(grid, repeat=k))
    return total / float(n) ** k


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def lattice_measure(model: InteractionModel, n: int) -> GibbsMeasure:
    """The particle-count law of the n-cell lattice gas, on {0..n}."""
    if n < 1:
        raise ValueError("need at least one cell")
    if model.kind == "product" and n < 3:
        raise ValueError("the product model needs n >= 3")
    z = model.z
    V = np.array([model.log_Wn(n, k) for k in range(n + 1)])
    if not np.all(np.isfinite(V)):
        raise ValueError("lattice weights vanish inside {0..n}; support must be contiguous")
    return GibbsMeasure(
        z, V, kind=f"{model.kind}_lattice", params={"n": n, "z": z},
    )


def limit_measure(
    model: InteractionModel,
    truncation: int | None = None,
    tail_tol: float = 1e-14,
) -> GibbsMeasure:
    """The continuum limit law, truncated with a declared tail bound."""
    z = model.z
    if model.kind == "ideal_gas":
        return poisson(z, truncation=truncation, tail_tol=tail_tol)

    def log_term(k: int) -> float:
        return model.log_W(k) + k * math.log(z) - gammaln(k + 1)

    bound, tail_estimate = _truncate_by_ratio(log_term, truncation, tail_tol)
    V = np.array([model.log_W(k) for k in range(bound + 1)])
    kind = {"repelling": "repelling_limit", "product": "product_limit"}.get(
        model.kind, f"{model.kind}_limit"
    )
    params = {"lam": z} if kind == "repelling_limit" else {"z": z}
    return GibbsMeasure(
        z, V, kind=kind, params=params,
        truncation=TailPolicy(bound, tail_estimate, max(tail_tol, tail_estimate)),
    )


def _truncate_by_ratio(
    log_term: Callable[[int], float], truncation: int | None, tail_tol: float
) -> tuple[int, float]:
    """Pick N so the weight tail beyond N is (estimated) below tail_tol.

    The tail is capped geometrically once consecutive term ratios stay
    below 1/2; failure to reach that regime flags a divergent series.
    Returns (N, declared relative tail mass).
    """
    max_n = 100_000

    def tail_cap(n: int, log_partial: float) -> float | None:
        probes = [log_term(n + 1 + i) for i in range(4)]
        for a, b in zip(probes, probes[1:]):
            if b - a >= math.log(0.5):
                return None
        return probes[0] + math.log(2.0) - log_partial

    log_partial = -math.inf
    for n in range(max_n + 1):
        log_partial = float(np.logaddexp(log_partial, log_term(n)))
        if truncation is not None:
            if n == truncation:
                cap = tail_cap(n, log_partial)
                if cap is None:
                    raise ValueError(
                        "explicit truncation sits before the geometric tail regime"
                    )
                return n, math.exp(cap)
        else:
            cap = tail_cap(n, log_partial)
            if cap is not None and cap < math.log(tail_tol):
                return n, math.exp(cap)
    raise ValueError("series did not enter a geometric regime; divergent weights?")


def repelling_limit_partition(lam: float) -> float:
    """Closed-form partition value 1 + lam + (lam^2/6) e^lam of the repelling limit."""
    return 1.0 + lam + lam * lam / 6.0 * math.exp(lam)


# ---------------------------------------------------------------------------
# Lattice-to-limit comparison reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBoundReport:
    """Certified comparison of the n-cell law against its continuum limit.

    generator_bound = norm_factor * min(branch) + tail_term, the certified
    TV bound from the generator comparison; closed_form_value is the model's
    analytic bound when one is defined (None otherwise).
    """

    model: str
    n: int
    exact_tv: float
    generator_bound: float
    closed_form_value: float | None
    omega_term: float
    ratio_term: float
    tail_term: float
    branch_used: str
    norm_factor: float
    g_norm_source: str
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "exact_tv": self.exact_tv,
            "generator_bound": self.generator_bound,
            "closed_form": self.closed_form_value,
            "omega_term": self.omega_term,
            "ratio_term": self.ratio_term,
            "tail_term": self.tail_term,
            "branch_used": self.branch_used,
            "norm_factor": self.norm_factor,
            "g_norm_source": self.g_norm_source,
            "notes": self.notes,
        }

    def to_csv_row(self) -> list:
        return [
            self.n,
            self.exact_tv,
            self.generator_bound,
            self.closed_form_value,
            self.omega_term,
            self.ratio_term,
            self.tail_term,
        ]


def lattice_comparison_report(
    model: InteractionModel,
    n: int,
    truncation: int | None = None,
    tail_tol: float = 1e-14,
    g_norm_source: str = "exact",
    per_branch_norms: bool = False,
) -> LatticeBoundReport:
    """Generator-comparison certificate for the n-cell law vs the limit law.

    The default multiplies the branch minimum by the larger of the two
    solution-norm bounds; per_branch_norms=True attaches each norm to its
    own branch before taking the minimum (a tighter, still valid variant).
    """
    mu_n = lattice_measure(model, n)
    mu = limit_measure(model, truncation=truncation, tail_tol=tail_tol)

    # branch A solves for the limit law and averages over the lattice law;
    # branch B solves for the (extended) lattice law and averages over the limit.
    omega_a, ratio_a = mismatch_terms(mu, mu_n)
    omega_b, ratio_b = mismatch_terms(mu_n, mu)
    tail = fsum(mu.pmf[n + 1 :].tolist())

    norm_limit, licensed_limit = solution_norm(mu, g_norm_source, f_support=n)
    norm_lattice, licensed_lattice = solution_norm(mu_n, g_norm_source, extended=True)
    notes = ""
    if not (licensed_limit and licensed_lattice):
        notes = "rate-spread norm bound inapplicable; no finite certificate"

    if per_branch_norms:
        value_a = norm_limit * (omega_a + ratio_a)
        value_b = norm_lattice * (omega_b + ratio_b)
        if value_a <= value_b:
            branch, bound, comps = "lattice_averaged", value_a, (omega_a, ratio_a)
            factor = norm_limit
        else:
            branch, bound, comps = "limit_averaged", value_b, (omega_b, ratio_b)
            factor = norm_lattice
    else:
        factor = max(norm_limit, norm_lattice)
        if omega_a + ratio_a <= omega_b + ratio_b:
            branch, comps = "lattice_averaged", (omega_a, ratio_a)
        else:
            branch, comps = "limit_averaged", (omega_b, ratio_b)
        bound = factor * (comps[0] + comps[1])

    closed = None
    if model.kind in ("repelling", "product"):
        try:
            closed = closed_form_bound(model, n)
        except ValueError:
            closed = None

    return LatticeBoundReport(
        model=model.kind,
        n=n,
        exact_tv=tv_distance(mu_n.pmf, mu.pmf),
        generator_bound=bound + tail,
        closed_form_value=closed,
        omega_term=comps[0],
        ratio_term=comps[1],
        tail_term=tail,
        branch_used=branch,
        norm_factor=factor,
        g_norm_source=g_norm_source,
        notes=notes,
    )


def closed_form_bound(model: InteractionModel, n: int) -> float:
    """Analytic distance bound for the two worked interaction families.

    repelling:  lam^(n+1) e^lam / ((n+1)! (1 + lam + lam^2 e^lam / 6))
    product:    2 e^(e + 1/e) / n + e^(1/n) n^-(n+1) / (n+1)!   (n >= 3, z = 1)

    The repelling form presumes the lattice law is exactly the conditioned
    limit law, which the midpoint weights violate at k = 2; it is reported
    for reference but is not a certificate (see the module docstring).
    """
    if model.kind == "repelling":
        lam = model.z
        log_tail = (n + 1) * math.log(lam) + lam - gammaln(n + 2)
        return math.exp(log_tail) / repelling_limit_partition(lam)
    if model.kind == "product":
        if n < 3:
            raise ValueError("the product closed form needs n >= 3")
        if abs(model.z - 1.0) > 0:
            raise ValueError("the product closed form is stated for activity 1")
        main = 2.0 * math.exp(math.e + 1.0 / math.e) / n
        rest = math.exp(1.0 / n - (n + 1) * math.log(n) - gammaln(n + 2))
        return main + rest
    raise ValueError(f"no closed-form bound for model kind {model.kind!r}")


# ---------------------------------------------------------------------------
# Size-bias coupling bounds for Bernoulli sums
# ---------------------------------------------------------------------------

def harmonic_between(x: int, y: int) -> float:
    """Partial harmonic sum over min(x,y)+1 .. max(x,y) (0 when x = y)."""
    lo, hi = min(x, y), max(x, y)
    return fsum(1.0 / ell for ell in range(lo + 1, hi + 1))


@dataclass(frozen=True)
class CouplingBound:
    """Distance certificate for a Bernoulli-sum law against a Gibbs target."""

    value: float
    increment_part: float
    norm_part: float
    licensed: bool
    conditions: tuple
    g_norm: float
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "increment_part": self.increment_part,
            "norm_part": self.norm_part,
            "licensed": self.licensed,
            "conditions": [c.to_dict() for c in self.conditions],
            "g_norm": self.g_norm,
            "notes": self.notes,
        }


def sum_coupling_bound(
    m: GibbsMeasure, spec: CouplingSpec, g_norm_source: str = "exact"
) -> CouplingBound:
    """Size-bias coupling bound on d_TV(law of the Bernoulli sum, m).

    The increment part charges each coupled pair (S, Shat_i), weighted by
    the index mixture and the local rate factor, with the smaller of the
    harmonic sum between the two states and the state gap times a uniform
    increment bound on the traversed stretch (the reciprocal rate at the
    lower state; sharpened by the family closed form where one exists).
    The norm part is the mean absolute deviation of the birth rate over the
    sum's law times a solution-norm bound.  Licensed by nonincreasing rates.
    """
    n_max = m.support_max
    if spec.n > n_max:
        raise ValueError("the Bernoulli sum must live inside the target support")
    cond = (condition(m, "rates_nonincreasing"),)
    lam = spec.lam
    b = m.birth_rates
    family_cap = uniform_increment(m.kind, m.params)

    pieces = []
    for i in range(spec.n):
        if spec.p[i] <= 0.0:
            continue
        for pr, s, s_hat in spec.coupling_given_index(i):
            if s == s_hat or pr == 0.0:
                continue
            rate_weight = b[s] / m.omega
            if rate_weight == 0.0:
                continue
            low = min(s, s_hat)
            cap = 1.0 / b[low] if b[low] > 0 else math.inf
            if family_cap is not None:
                cap = min(cap, family_cap)
            term = min(harmonic_between(s, s_hat), abs(s - s_hat) * cap)
            pieces.append((spec.p[i] / lam) * pr * rate_weight * term)
    increment_part = m.omega * fsum(pieces)

    law = spec.sum_law()
    rates = b[: law.size]
    mean_rate = fsum((law * rates).tolist())
    mad = fsum((law * np.abs(rates - mean_rate)).tolist())

    g_norm, licensed = solution_norm(m, g_norm_source)
    notes = "" if licensed else "rate-spread norm inapplicable"
    norm_part = g_norm * mad

    return CouplingBound(
        value=increment_part + norm_part,
        increment_part=increment_part,
        norm_part=norm_part,
        licensed=all(c.holds for c in cond),
        conditions=cond,
        g_norm=g_norm,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Poisson approximation of Bernoulli sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonSumReport:
    """Distance of a Bernoulli-sum law to Poisson(sum p_i), with bounds.

    harmonic_coupling_bound uses the per-pair minimum of harmonic sums and
    scaled gaps; linear_coupling_bound is the plain first-moment form;
    independent_bound and improved_bound are the independence-only closed
    forms (None for dependent specifications).
    """

    lam: float
    exact_tv: float
    harmonic_coupling_bound: float
    linear_coupling_bound: float
    independent_bound: float | None
    improved_bound: float | None

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "exact_tv": self.exact_tv,
            "harmonic_coupling_bound": self.harmonic_coupling_bound,
            "linear_coupling_bound": self.linear_coupling_bound,
            "independent_bound": self.independent_bound,
            "improved_bound": self.improved_bound,
        }


def poisson_sum_bounds(
    spec: CouplingSpec, truncation: int | None = None, tail_tol: float = 1e-14
) -> PoissonSumReport:
    """Certified Poisson approximation for a Bernoulli-sum coupling spec."""
    lam = spec.lam
    target = poisson(lam, truncation=truncation, tail_tol=tail_tol)
    factor = uniform_increment(target.kind, target.params)

    coupling = sum_coupling_bound(target, spec, g_norm_source="exact")
    linear = factor * fsum(
        spec.p[i] * spec.mean_abs_gap(i) for i in range(spec.n) if spec.p[i] > 0
    )

    independent_bound = None
    improved = None
    if spec.independent:
        independent_bound = factor * fsum((spec.p**2).tolist())
        terms = []
        for i in range(spec.n):
            if spec.p[i] == 0.0:
                continue
            none_else = math.prod(1.0 - pj for j, pj in enumerate(spec.p) if j != i)
            terms.append(spec.p[i] ** 2 * min(0.5 * (1.0 + none_else), factor))
        improved = fsum(terms)

    return PoissonSumReport(
        lam=lam,
        exact_tv=tv_distance(spec.sum_law(), target.pmf),
        harmonic_coupling_bound=coupling.value,
        linear_coupling_bound=linear,
        independent_bound=independent_bound,
        improved_bound=improved,
    )
