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

Each family gives W_n and W by the formulas above;
`oracle.lattice_weight_brute` sums f_k over the k-fold grid (guarded,
deterministic order) as the reference they are checked against.

The limit laws live on {0, 1, ...} and are truncated by the one rule of
`measures`: a declared tail that bounds the mass beyond N through a bound
on the pmf ratios.  The ideal gas's limit is Poisson(z); the repelling and
product limits state theirs in `measures.FAMILIES` (3 lambda/(n+2) and
z/(n+2), from their rate suprema), so every limit law's tail is proved.  A
model with neither a limit constructor nor such a record has no limit law.

The distance from S_n to the limit law truncated at N is certified by
`compare.generator_comparison`, as in the `compare` command: activity plus
weight-ratio mismatch of the two generators, each direction with its own
norm, plus the mass of the law on the larger support above the smaller one
(the limit's above n if N > n, the lattice law's above N if N < n).  N is
`limit_measure`'s own truncation unless the caller hands the report a limit
law built at another.  For Bernoulli sums a size-bias coupling bound charges
its increments to harmonic sums or to reciprocal birth rates, with the
target's exact solution norm, and a second certificate telescopes the
size-bias identity through the target's pointwise Stein factors; on
dependent specs both take the monotone coupling and cost O(n^2).

A caution on the repelling family: the lattice/continuum weight ratios
match only from k = 3 on; at k = 2 they differ by the factor (n^2-1)/n^2,
so the lattice law is close to, but not exactly, the conditioned limit law,
and the repelling closed-form bound (which presumes exact matching) is not
a certificate.  See the acceptance tests for the quantified consequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .compare import generator_comparison, tv_distance
from .factors import condition, uniform_increment
from .measures import (
    DEFAULT_TAIL_TOL, FAMILIES, GibbsMeasure, _MAX_TERMS, _fsum, _logsumexp, _poisson, _truncated,
    poisson,
)
from .size_bias import CouplingSpec
from .stein import sup_increment_table, sup_solution_table

__all__ = [
    "InteractionModel",
    "ideal_gas_model",
    "repelling_model",
    "product_model",
    "lattice_measure",
    "limit_measure",
    "LatticeBoundReport",
    "lattice_comparison_report",
    "CouplingBound",
    "sum_coupling_bound",
    "PoissonSumReport",
    "poisson_sum_bounds",
]

# ---------------------------------------------------------------------------
# Interaction models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionModel:
    """A k-point interaction family with lattice and continuum weights.

    log_Wn(n, k) and log_W(k) return log weights (-inf is a hard zero).
    The model also carries the fewest cells it needs, its analytic distance
    bound closed_form(n) if any, which raises ValueError outside the range
    it is stated for, and the constructor of its limit law if that is a
    built-in family.  The activity z must be positive.
    """

    kind: str
    z: float
    log_Wn_fn: Callable[[int, int], float]
    log_W_fn: Callable[[int], float]
    min_cells: int = 1
    closed_form: Callable[[int], float] | None = None
    limit: Callable[..., GibbsMeasure] | None = None

    def __post_init__(self):
        if not self.z > 0:  # NaN fails too
            raise ValueError("activity must be positive")

    def log_Wn(self, n: int, k: int) -> float:
        return 0.0 if k <= 1 else self.log_Wn_fn(n, k)

    def log_W(self, k: int) -> float:
        return 0.0 if k <= 1 else self.log_W_fn(k)

    def Wn(self, n: int, k: int) -> float:
        return math.exp(self.log_Wn(n, k))

    def W(self, k: int) -> float:
        return math.exp(self.log_W(k))


def ideal_gas_model(lam: float) -> InteractionModel:
    return InteractionModel(
        kind="ideal_gas", z=lam, log_Wn_fn=lambda n, k: 0.0, log_W_fn=lambda k: 0.0, limit=poisson,
    )


def repelling_model(lam: float) -> InteractionModel:
    """Pairwise squared-distance interaction on the midpoint grid.

    Its closed-form distance bound is

        lam^(n+1) e^lam / ((n+1)! (1 + lam + lam^2 e^lam / 6)).

    That form presumes the lattice law is exactly the conditioned limit law,
    which the midpoint weights violate at k = 2; it is reported for
    reference but is not a certificate (see the module docstring).
    """

    def log_wn(n: int, k: int) -> float:
        return math.log(k * (k - 1) * (n + 1) * (n - 1)) - math.log(6.0 * n * n)

    def log_w(k: int) -> float:
        return math.log(k * (k - 1) / 6.0)

    def closed_form(n: int) -> float:
        log_tail = (n + 1) * math.log(lam) + lam - math.lgamma(n + 2)
        return math.exp(log_tail) / repelling_limit_partition(lam)

    return InteractionModel(
        kind="repelling", z=lam, log_Wn_fn=log_wn, log_W_fn=log_w, closed_form=closed_form,
    )


def product_model(z: float = 1.0) -> InteractionModel:
    """Coordinate-product interaction on the left-endpoint grid.

    Its closed-form distance bound, stated for n >= 3 and z = 1, is

        2 e^(e + 1/e) / n + e^(1/n) n^-(n+1) / (n+1)!.
    """

    def log_wn(n: int, k: int) -> float:
        # W_n(k) = n^(-k^2) (sum_{i=0}^{n-1} i^(k-1))^k, in log space
        if n < 2:
            return -math.inf
        powers = (k - 1) * np.log(np.arange(1.0, n))
        return -k * k * math.log(n) + k * _logsumexp(powers)

    def log_w(k: int) -> float:
        return -k * math.log(k)

    def closed_form(n: int) -> float:
        if n < 3:
            raise ValueError("the product closed form needs n >= 3")
        if abs(z - 1.0) > 0:
            raise ValueError("the product closed form is stated for activity 1")
        main = 2.0 * math.exp(math.e + 1.0 / math.e) / n
        rest = math.exp(1.0 / n - (n + 1) * math.log(n) - math.lgamma(n + 2))
        return main + rest

    return InteractionModel(
        kind="product", z=z, log_Wn_fn=log_wn, log_W_fn=log_w, min_cells=3, closed_form=closed_form,
    )


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def lattice_measure(model: InteractionModel, n: int) -> GibbsMeasure:
    """The particle-count law of the n-cell lattice gas, on {0..n}."""
    if n < 1:
        raise ValueError("need at least one cell")
    if n >= _MAX_TERMS:
        raise ValueError(f"need at most {_MAX_TERMS - 1} cells, got {n}")
    if n < model.min_cells:
        raise ValueError(f"the {model.kind} model needs n >= {model.min_cells}")
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
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> GibbsMeasure:
    """The continuum limit law, truncated with a proved tail bound.

    The model's own limit constructor builds it if it has one; otherwise
    the limit family `measures.FAMILIES["<kind>_limit"]` states the bound
    on its pmf ratios that the truncation rests on.  A model with neither
    has no limit law, and asking for one is an error.
    """
    z = model.z
    if model.limit is not None:
        return model.limit(z, truncation=truncation, tail_tol=tail_tol)
    kind = f"{model.kind}_limit"
    if kind not in FAMILIES:
        raise ValueError(f"model kind {model.kind!r} has no limit law with a proved tail")
    log_W: list[float] = []

    def potential(size: int) -> np.ndarray:
        log_W.extend(model.log_W(k) for k in range(len(log_W), size))
        return np.array(log_W[:size])

    # the activity goes under the name the limit family's record gives it
    params = {FAMILIES[kind].args[0][0]: z}
    return _truncated(kind, z, potential, params, truncation, tail_tol)


def repelling_limit_partition(lam: float) -> float:
    """Closed-form partition value 1 + lam + (lam^2/6) e^lam of the repelling limit."""
    return 1.0 + lam + lam * lam / 6.0 * math.exp(lam)


# ---------------------------------------------------------------------------
# Lattice-to-limit comparison reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBoundReport:
    """Certified comparison of the n-cell law against its continuum limit.

    generator_bound = norm_factor * (omega_term + ratio_term) + tail_term is
    the certified TV bound of the direction `compare.generator_comparison`
    keeps, lattice_averaged if it solves the limit law's equation and
    limit_averaged otherwise; closed_form is the model's analytic
    bound when one is defined (None otherwise).
    """

    model: str
    n: int
    exact_tv: float
    generator_bound: float
    closed_form: float | None
    omega_term: float
    ratio_term: float
    tail_term: float
    branch_used: str
    norm_factor: float
    g_norm_source: str
    notes: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))


def lattice_comparison_report(
    model: InteractionModel,
    n: int,
    g_norm_source: str = "exact",
    limit: GibbsMeasure | None = None,
) -> LatticeBoundReport:
    """Generator-comparison certificate for the n-cell law vs the limit law.

    limit is the limit law compared against, `limit_measure(model)` when
    None; a caller that wants another truncation, or reports several n,
    builds it once with `limit_measure` and passes it.  Through
    `compare.generator_comparison`: each direction carries its own norm and
    the smaller branch is kept.  With the limit truncated at N > n the
    lattice law is extended and charged the limit's mass above n; at N < n
    the limit law is extended and charged the lattice mass above N.  The
    limit law goes first, so an exact tie keeps lattice_averaged unless
    N > n.
    """
    if g_norm_source not in ("exact", "rate_spread"):
        raise ValueError("g_norm_source must be 'exact' or 'rate_spread'")
    mu_n = lattice_measure(model, n)
    mu = limit_measure(model) if limit is None else limit
    rep = generator_comparison(mu, mu_n, g_norm_source)

    # the report lists the limit law first unless its support is the larger
    first = 0 if rep.branch_used == "direction_1_to_2" else 1
    solved_limit = (first == 0) == (mu.support_max <= n)
    try:
        closed = model.closed_form(n) if model.closed_form else None
    except ValueError:  # n or z outside the range the closed form is stated for
        closed = None

    return LatticeBoundReport(
        model=model.kind,
        n=n,
        exact_tv=rep.exact_tv,
        generator_bound=rep.certified_bound,
        closed_form=closed,
        omega_term=rep.terms[0],
        ratio_term=rep.terms[1],
        tail_term=rep.tail_term,
        branch_used="lattice_averaged" if solved_limit else "limit_averaged",
        norm_factor=rep.g_norms[first],
        g_norm_source=g_norm_source,
        notes=rep.notes,
    )


# ---------------------------------------------------------------------------
# Size-bias coupling bounds for Bernoulli sums
# ---------------------------------------------------------------------------

def _pair_terms(b: np.ndarray, family_cap: float | None) -> np.ndarray:
    """Table of min(oracle.harmonic_between(s, t), |s - t| cap(min(s, t))) on 0..n.

    b holds the birth rates on 0..n; cap(k) = 1/b[k] (+inf where b[k] = 0),
    lowered to the family's uniform increment bound where one exists.  The
    reciprocals 1.0/ell that harmonic_between adds are integers in units
    2^-scale, so the harmonic entry for (s, t) is the difference D of two
    exact integer prefix sums, in those units.  D is split into 32-bit limbs,
    D = A 2^32 + B, each exact as a double, and their one float addition
    rounds D correctly: the value of harmonic_between's fsum, bit for bit.
    The diagonal is 0: a pair with s = t is never charged, and 0 * inf
    would be NaN there.
    """
    size = b.size
    scale = size.bit_length() + 53  # 1.0/ell >= 2^-bit_length(size), 53 bits of significand
    prefix = itertools.accumulate(
        (int(math.ldexp(1.0 / ell, scale)) for ell in range(1, size)), initial=0
    )
    high, low = np.array([divmod(total, 1 << 32) for total in prefix], dtype=np.int64).T
    harm = np.abs(
        (np.subtract.outer(high, high) * 2.0**32 + np.subtract.outer(low, low)) * 2.0**-scale
    )
    cap = np.divide(1.0, b, out=np.full(size, math.inf), where=b > 0)
    if family_cap is not None:
        cap = np.minimum(cap, family_cap)
    states = np.arange(size)
    gap = np.abs(np.subtract.outer(states, states))
    with np.errstate(invalid="ignore"):  # 0 * inf on the diagonal, cleared below
        term = np.minimum(harm, gap * cap[np.minimum.outer(states, states)])
    np.fill_diagonal(term, 0.0)
    return term


@dataclass(frozen=True)
class CouplingBound:
    """Distance certificates for a Bernoulli-sum law against a Gibbs target.

    value is certified when `licensed`; pointwise_bound needs no licence.
    """

    value: float
    increment_part: float
    norm_part: float
    licensed: bool
    conditions: tuple
    g_norm: float
    pointwise_bound: float

    @property
    def certified_bound(self) -> float:
        """The smallest certified value: pointwise_bound, or value if licensed and smaller."""
        return min(self.value, self.pointwise_bound) if self.licensed else self.pointwise_bound


def _pointwise_bound(m: GibbsMeasure, spec: CouplingSpec, G: np.ndarray) -> float:
    """A bound on d_TV(law of S, m) from pointwise Stein factors, in O(n^2).

    With g solving the Stein equation for f and lam = sum p_i, the size-bias
    identity gives E f(S) - mu(f) = sum_i p_i (E g(S+1) - E g(Shat_i+1)) +
    E[(b(S) - lam) g(S+1)].  Telescoping the first sum bounds it by
    sum_i p_i sum_j w_j |F_S(j-1) - F_Shat_i(j-1)|, w = sup_increment_table;
    the second is at most sum_s P(S = s) |b(s) - lam| G_{s+1}, G =
    sup_solution_table.  At n = N, b(N) = 0 frees g(N+1) := g(N), so w_N = 0
    and G_{N+1} = G_N.  Only indices with p_i > 0 enter.
    """
    n, top = spec.n, m.support_max
    live, F, F_hat = spec._cdfs()
    w = sup_increment_table(m)[:n].copy()
    if n == top:
        w[-1] = 0.0
    G_next = G[np.minimum(np.arange(n + 1), top - 1)]
    shifts = np.abs(F[:n] - F_hat) @ w
    rate_gaps = np.abs(m.birth_rates[: n + 1] - spec.lam)
    return _fsum(spec.p[live] * shifts) + _fsum(spec.sum_law() * rate_gaps * G_next)


def sum_coupling_bound(m: GibbsMeasure, spec: CouplingSpec) -> CouplingBound:
    """Size-bias coupling bounds on d_TV(law of the Bernoulli sum, m), in O(n^2).

    Both rest on the size-bias identity E[S g(S)] = sum_i p_i E g(Shat_i +
    1), in which only the marginal laws of S and Shat_i enter, so each index
    may take its own coupling: the perfect one for independent coordinates,
    the monotone one of CouplingSpec.monotone_pairs otherwise.

    The paper's display `value` charges each coupled pair (S, Shat_i),
    weighted by the index mixture and the local rate factor, with the
    smaller of the harmonic sum between the two states and the state gap
    times a uniform increment bound on the traversed stretch (the reciprocal
    rate at the lower state; sharpened by the family closed form where one
    exists), and adds the mean absolute deviation of the birth rate over
    the sum's law times the exact solution norm.  Licensed by nonincreasing
    rates.  Each piece is the product ((p_i/lam) * pr) * (b[s]/omega) *
    charge of one pair that oracle.coupling_given_index lists, and
    the increment part is their correctly rounded sum, math.fsum over that
    tuple loop, bit for bit.  pointwise_bound is _pointwise_bound's.
    """
    n_max = m.support_max
    if spec.n > n_max:
        raise ValueError(
            "the Bernoulli sum must live inside the target support "
            f"(n = {spec.n} > N = {n_max})"
        )
    cond = (condition(m, "rates_nonincreasing"),)
    lam = spec.lam
    b = m.birth_rates[: spec.n + 1]
    rate_weight = b / m.omega
    term = _pair_terms(b, uniform_increment(m.kind, m.params))
    weight = spec.p / lam
    live = spec.p > 0.0

    if spec.independent:
        # the perfect coupling's pairs (t + 1, t) on X_i = 1; its pairs (t, t) are charged 0
        t = np.arange(spec.n)
        s, mass = t + 1, spec.conditional_sums[live] * spec.p[live, None]
    else:
        s, t, mass = spec.monotone_pairs()
    pieces = ((weight[live, None] * mass) * rate_weight[s]) * term[s, t]
    increment_part = m.omega * _fsum(pieces.ravel())

    law = spec.sum_law()
    rates = m.birth_rates[: law.size]
    # the convolved law can add to just under 1, which would put the mean of a
    # constant rate below it; the mean lies between the rates the law reaches
    reached = rates[law > 0]
    mean_rate = min(max(_fsum(law * rates), reached.min()), reached.max())
    mad = _fsum(law * np.abs(rates - mean_rate))

    G = sup_solution_table(m)
    g_norm = float(G.max())
    norm_part = g_norm * mad

    return CouplingBound(
        value=increment_part + norm_part,
        increment_part=increment_part,
        norm_part=norm_part,
        licensed=all(c.holds for c in cond),
        conditions=cond,
        g_norm=g_norm,
        pointwise_bound=_pointwise_bound(m, spec, G),
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
    forms (None for dependent specifications); pointwise_bound is
    sum_coupling_bound's.  All are certified, the target's rates being
    nonincreasing.
    """

    lam: float
    exact_tv: float
    harmonic_coupling_bound: float
    linear_coupling_bound: float
    independent_bound: float | None
    improved_bound: float | None
    pointwise_bound: float

    @property
    def certified_bound(self) -> float:
        """The smallest of the bounds the report holds."""
        bounds = (self.harmonic_coupling_bound, self.linear_coupling_bound, self.independent_bound,
                  self.improved_bound, self.pointwise_bound)
        return min(value for value in bounds if value is not None)

    def to_dict(self) -> dict:
        return asdict(self)


def poisson_sum_bounds(
    spec: CouplingSpec, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> PoissonSumReport:
    """Certified Poisson approximation for a Bernoulli-sum coupling spec.

    The target is Poisson(sum p_i) truncated at the explicit truncation, or,
    when none is given, at max(n, N_auto), in one truncation search: N_auto
    is the smallest bound whose discarded tail is below tail_tol, and the
    coupling bounds need the sum's states 0..n inside the support.  An
    explicit truncation below n is an error.  The coupling bounds rest on
    the size-bias identity E[S g(S)] = sum_i p_i E g(Shat_i + 1), with the
    perfect coupling for independent coordinates and the monotone one
    otherwise, under which linear_coupling_bound's E_i |S - Shat_i| is a
    Wasserstein-1 distance.  For a dependent spec every bound costs O(n^2).
    """
    lam = spec.lam
    target = _poisson(lam, truncation, tail_tol, least=spec.n)
    factor = uniform_increment(target.kind, target.params)

    coupling = sum_coupling_bound(target, spec)
    live = spec.p > 0.0
    linear = factor * _fsum(spec.p[live] * spec.mean_abs_gaps()[live])

    independent_bound = None
    improved = None
    if spec.independent:
        independent_bound = factor * _fsum(spec.p**2)
        # column 0 of the leave-one-out laws: the product of 1 - p_j over j != i
        none_else = spec.conditional_sums[:, 0]
        improved = _fsum(spec.p[live] ** 2 * np.minimum(0.5 * (1.0 + none_else[live]), factor))

    return PoissonSumReport(
        lam=lam,
        exact_tv=tv_distance(spec.sum_law(), target.pmf),
        harmonic_coupling_bound=coupling.value,
        linear_coupling_bound=linear,
        independent_bound=independent_bound,
        improved_bound=improved,
        pointwise_bound=coupling.pointwise_bound,
    )
