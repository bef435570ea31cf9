"""Discrete Gibbs measures on a contiguous support {0, ..., N}.

A measure here is stored through an activity omega > 0 and a potential
table V(0..N), with probability weights

    pmf(k) = exp(V(k)) * omega^k / (k! * Z),      Z = sum_k exp(V(k)) omega^k / k!

Any law with contiguous support starting at 0 can be written this way; the
representation is unique only up to (omega, V) -> (a*omega, V - k*log a) and
an additive constant on V, which this module fixes by absorbing log Z into V
when converting from an explicit pmf.  All mass arithmetic happens in log
space (log-gamma for factorials, log-sum-exp for the partition sum) because
the interesting weights, such as k^-k or lambda^k/k!, underflow quickly.

The distinguished birth-death dynamics attached to a measure uses unit per
capita death rates d_k = k and birth rates

    b_k = omega * exp(V(k+1) - V(k)) = (k+1) pmf(k+1) / pmf(k),   b_N = 0,

which satisfy detailed balance pmf(k) b_k = pmf(k+1) d_{k+1}.

Conceptually infinite laws (Poisson, geometric, ...) are represented by a
truncation to {0, ..., N} chosen so the discarded tail mass is below a
declared tolerance; the truncation bound and actual tail mass travel with
the measure so downstream certificates can surface them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betainc, gammaln, logsumexp, pdtrc

__all__ = [
    "TailPolicy",
    "CumulativeTables",
    "GibbsMeasure",
    "from_pmf",
    "poisson",
    "binomial",
    "geometric",
    "negative_binomial",
    "hypergeometric",
    "discrete_uniform",
    "builtin",
    "BUILTIN_KINDS",
]

DEFAULT_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class TailPolicy:
    """Truncation record for measures that stand in for an infinite law."""

    truncation_bound: int
    tail_mass: float
    tail_mass_tolerance: float

    def to_dict(self) -> dict:
        return {
            "bound": self.truncation_bound,
            "tail_mass": self.tail_mass,
            "tolerance": self.tail_mass_tolerance,
        }


@dataclass(frozen=True)
class CumulativeTables:
    """F(k) = sum_{i<=k} pmf(i) and Fbar(k) = sum_{i>=k} pmf(i)."""

    F: np.ndarray
    Fbar: np.ndarray


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class GibbsMeasure:
    """Immutable discrete Gibbs measure on {0, ..., N}.

    Instances are fully determined at construction; every derived table
    (log pmf, pmf, birth rates, cumulatives) is computed once and exposed
    as a read-only array, so values can be shared freely across threads.
    """

    __slots__ = (
        "omega",
        "V",
        "log_partition",
        "log_pmf",
        "_pmf",
        "_birth",
        "_tables",
        "kind",
        "params",
        "truncation",
    )

    def __init__(
        self,
        omega: float,
        V: np.ndarray,
        kind: str = "potential",
        params: dict | None = None,
        truncation: TailPolicy | None = None,
    ):
        omega = float(omega)
        if not (omega > 0.0) or not math.isfinite(omega):
            raise ValueError(f"activity omega must be a positive finite real, got {omega}")
        V = np.asarray(V, dtype=float)
        if V.ndim != 1 or V.size < 1:
            raise ValueError("potential table must be one-dimensional and non-empty")
        if not np.all(np.isfinite(V)):
            raise ValueError("potential must be finite on the whole support")

        k = np.arange(V.size, dtype=float)
        log_weights = V + k * math.log(omega) - gammaln(k + 1.0)
        log_z = float(logsumexp(log_weights))
        log_pmf = log_weights - log_z
        pmf = np.exp(log_pmf)
        if np.any(pmf == 0.0):
            raise ValueError(
                "support weight underflows double precision; narrow the truncation window"
            )
        total = math.fsum(pmf.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf failed to normalize (sum = {total!r})")

        # b_k = omega * exp(V(k+1) - V(k)) for k < N; the support boundary
        # forces b_N = 0 (V(N+1) = -inf).
        if V.size > 1:
            birth = np.exp(math.log(omega) + np.diff(V))
        else:
            birth = np.zeros(0)
        birth = np.append(birth, 0.0)

        tables = CumulativeTables(
            F=_readonly(np.cumsum(pmf)), Fbar=_readonly(np.cumsum(pmf[::-1])[::-1].copy())
        )

        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "V", _readonly(V))
        object.__setattr__(self, "log_partition", float(log_z))
        object.__setattr__(self, "log_pmf", _readonly(log_pmf))
        object.__setattr__(self, "_pmf", _readonly(pmf))
        object.__setattr__(self, "_birth", _readonly(birth))
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", dict(params or {}))
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GibbsMeasure is immutable")

    # -- basic accessors -----------------------------------------------------
    @property
    def support_max(self) -> int:
        return self.V.size - 1

    @property
    def pmf(self) -> np.ndarray:
        return self._pmf

    @property
    def birth_rates(self) -> np.ndarray:
        """b_k for k = 0..N (with b_N = 0)."""
        return self._birth

    def birth_rate(self, k: int) -> float:
        if not 0 <= k <= self.support_max:
            raise ValueError(f"birth rate defined for 0 <= k <= {self.support_max}, got {k}")
        return float(self._birth[k])

    def death_rate(self, k: int) -> float:
        if not 1 <= k <= self.support_max:
            raise ValueError(f"death rate defined for 1 <= k <= {self.support_max}, got {k}")
        return float(k)

    def mean(self) -> float:
        k = np.arange(self.V.size, dtype=float)
        return math.fsum((k * self._pmf).tolist())

    def mean_via_rates(self) -> float:
        """E X = omega * E exp(V(X+1) - V(X)), i.e. the pmf-weighted birth rate."""
        return math.fsum((self._pmf * self._birth).tolist())

    def expectation(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        if f.shape != self._pmf.shape:
            raise ValueError(f"test table must have length {self.V.size}, got {f.size}")
        return math.fsum((f * self._pmf).tolist())

    def cumulatives(self) -> CumulativeTables:
        return self._tables

    # -- transformations -----------------------------------------------------
    def reparametrized(self, alpha: float) -> "GibbsMeasure":
        """Equivalent representation (alpha*omega, V - k*log(alpha))."""
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        k = np.arange(self.V.size, dtype=float)
        return GibbsMeasure(
            self.omega * alpha,
            self.V - k * math.log(alpha),
            kind=self.kind,
            params=self.params,
            truncation=self.truncation,
        )

    def restricted(self, n: int) -> "GibbsMeasure":
        """The measure conditioned to {0, ..., n} (same activity and potential)."""
        if not 0 <= n <= self.support_max:
            raise ValueError(f"restriction bound must lie in the support, got {n}")
        return GibbsMeasure(
            self.omega,
            self.V[: n + 1],
            kind=f"{self.kind}:restricted",
            params={**self.params, "restricted_to": n},
        )

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "omega": self.omega,
            "V": self.V.tolist(),
            "truncation": self.truncation.to_dict() if self.truncation else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(payload: dict) -> "GibbsMeasure":
        trunc = payload.get("truncation")
        policy = (
            TailPolicy(int(trunc["bound"]), float(trunc["tail_mass"]), float(trunc["tolerance"]))
            if trunc
            else None
        )
        m = GibbsMeasure(
            float(payload["omega"]),
            np.asarray(payload["V"], dtype=float),
            kind=payload.get("kind", "potential"),
            params=payload.get("params") or {},
            truncation=policy,
        )
        family = FAMILIES.get(m.kind)
        if family is None:
            return m
        # certificates trust a registered kind's params, so rebuild the family and
        # compare birth rates, which unlike V survive reparametrization
        if family.build is None:
            raise ValueError(f"{m.kind} measures cannot be rebuilt from their params")
        window = {"truncation": m.support_max} if family.truncated else {}
        rates = family.build(**family.values(m.params), **window).birth_rates
        if rates.shape != m.birth_rates.shape or not np.allclose(m.birth_rates, rates, rtol=1e-12, atol=0.0):
            raise ValueError(f"{m.kind} params {m.params} do not match the measure's tables")
        return m

    @staticmethod
    def from_json(text: str) -> "GibbsMeasure":
        return GibbsMeasure.from_dict(json.loads(text))

    def label(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}({inner})"
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GibbsMeasure({self.label()}, N={self.support_max})"


def from_pmf(
    weights: np.ndarray,
    omega: float = 1.0,
    kind: str = "pmf",
    params: dict | None = None,
    truncation: TailPolicy | None = None,
) -> GibbsMeasure:
    """Build a measure from nonnegative weights on {0, ..., N}.

    The weights must be strictly positive throughout (the support has to be
    contiguous and contain 0); the non-uniqueness of the Gibbs form is fixed
    by absorbing log Z into V, so the stored representation has Z = 1.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("weight table must be one-dimensional and non-empty")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError("non-contiguous or degenerate support: weights must be strictly positive")
    log_w = np.log(weights)
    log_total = float(logsumexp(log_w))
    k = np.arange(weights.size, dtype=float)
    V = (log_w - log_total) + gammaln(k + 1.0) - k * math.log(omega)
    return GibbsMeasure(omega, V, kind=kind, params=params, truncation=truncation)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _resolve_truncation(
    sf: Callable[[int], float],
    start: int,
    truncation: int | None,
    tail_tol: float,
) -> tuple[int, float]:
    """Pick the truncation bound: either the explicit one or the smallest N
    whose discarded tail is below tail_tol."""
    if truncation is not None:
        n = int(truncation)
        if n < 0:
            raise ValueError("truncation bound must be nonnegative")
        return n, float(sf(n))
    n = max(int(start), 1)
    while sf(n) > tail_tol:
        n = max(n + 1, int(n * 1.5))
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if sf(mid) > tail_tol:
            lo = mid + 1
        else:
            hi = mid
    return lo, float(sf(lo))


def poisson(lam: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsMeasure:
    """Poisson(lambda), stored with omega = lambda and constant potential."""
    if not lam > 0:
        raise ValueError("poisson rate must be positive")
    bound, tail = _resolve_truncation(lambda n: float(pdtrc(n, lam)), int(lam) + 10, truncation, tail_tol)
    V = np.full(bound + 1, -lam)
    return GibbsMeasure(
        lam, V, kind="poisson", params={"lam": lam},
        truncation=TailPolicy(bound, tail, max(tail_tol, tail)),
    )


def binomial(n: int, p: float) -> GibbsMeasure:
    """Binomial(n, p) via omega = p/(1-p), V(k) = -log((n-k)!)."""
    if n < 1:
        raise ValueError("binomial needs n >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("binomial needs 0 < p < 1")
    k = np.arange(n + 1, dtype=float)
    V = -gammaln(n - k + 1.0)
    return GibbsMeasure(p / (1.0 - p), V, kind="binomial", params={"n": n, "p": p})


def geometric(p: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsMeasure:
    """Geometric with pmf p(1-p)^k on {0, 1, ...}; omega = 1-p, V(k) = log k!."""
    if not 0.0 < p < 1.0:
        raise ValueError("geometric needs 0 < p < 1")
    q = 1.0 - p

    def sf(n: int) -> float:
        return math.exp((n + 1) * math.log(q))

    start = int(math.ceil(math.log(tail_tol) / math.log(q))) if truncation is None else 0
    bound, tail = _resolve_truncation(sf, start, truncation, tail_tol)
    k = np.arange(bound + 1, dtype=float)
    V = gammaln(k + 1.0)
    return GibbsMeasure(
        q, V, kind="geometric", params={"p": p},
        truncation=TailPolicy(bound, tail, max(tail_tol, tail)),
    )


def negative_binomial(
    r: float, p: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> GibbsMeasure:
    """Negative binomial counting failures before the r-th success."""
    if not r > 0:
        raise ValueError("negative binomial needs r > 0")
    if not 0.0 < p < 1.0:
        raise ValueError("negative binomial needs 0 < p < 1")
    bound, tail = _resolve_truncation(
        lambda n: float(betainc(n + 1, r, 1.0 - p)), int(r * (1 - p) / p) + 10, truncation, tail_tol
    )
    k = np.arange(bound + 1, dtype=float)
    V = gammaln(r + k) - gammaln(r)
    return GibbsMeasure(
        1.0 - p, V, kind="negative_binomial", params={"r": r, "p": p},
        truncation=TailPolicy(bound, tail, max(tail_tol, tail)),
    )


def hypergeometric(population: int, successes: int, draws: int) -> GibbsMeasure:
    """Hypergeometric draw counts; requires the support to start at 0."""
    if not (0 < successes < population and 0 < draws < population):
        raise ValueError("hypergeometric parameters out of range")
    if draws + successes > population:
        raise ValueError(
            "non-contiguous or degenerate support: need draws + successes <= population "
            "so that zero successes is attainable"
        )
    top = min(draws, successes)
    k = np.arange(top + 1, dtype=float)
    log_w = (
        gammaln(successes + 1) - gammaln(k + 1) - gammaln(successes - k + 1)
        + gammaln(population - successes + 1)
        - gammaln(draws - k + 1)
        - gammaln(population - successes - draws + k + 1)
    )
    weights = np.exp(log_w - log_w.max())
    return from_pmf(
        weights, omega=1.0, kind="hypergeometric",
        params={"population": population, "successes": successes, "draws": draws},
    )


def discrete_uniform(n: int) -> GibbsMeasure:
    """Uniform law on {0, ..., n}."""
    if n < 0:
        raise ValueError("discrete uniform needs n >= 0")
    return from_pmf(np.ones(n + 1), omega=1.0, kind="discrete_uniform", params={"n": n})


@dataclass(frozen=True)
class Family:
    """One law's facts: its name, constructor, descriptor order and closed-form Stein factors.

    `args` lists the `params` keys, which are `build`'s keywords, in descriptor
    order with their types; `truncated` laws' constructors also take
    `truncation` and `tail_tol`.  The rest take the params as keywords and
    return plain numbers: `rates` the birth-rate infimum and supremum over the
    untruncated family, `increment` a uniform and `increment_at(j, ...)` a
    per-j increment bound, `norm` a solution-norm bound (None where no closed
    form is known); `notes` go with the per-j certificate.
    """

    kind: str
    build: Callable[..., GibbsMeasure] | None
    args: tuple[tuple[str, type], ...]
    rates: Callable[..., tuple[float, float]] | None
    truncated: bool = False
    increment: Callable[..., float] | None = None
    increment_at: Callable[..., float] | None = None
    norm: Callable[..., float] | None = None
    notes: str = ""

    def values(self, params: dict) -> dict:
        """The family's params from `params`, converted to their declared types."""
        missing = [name for name, _ in self.args if name not in params]
        if missing:
            raise ValueError(f"{self.kind} measure lacks parameter {missing[0]!r}")
        return {name: typ(params[name]) for name, typ in self.args}


def _poisson_increment(lam: float) -> float:
    # (1 - e^-lambda)/lambda, with expm1 so that small lambda keeps full precision
    return -math.expm1(-lam) / lam


def _binomial_increment_at(j: int, n: int, p: float) -> float:
    if not 1 <= j <= n:
        raise ValueError(f"binomial closed form defined for 1 <= j <= {n}")
    rate_side = 1.0 / (p * (n - j)) if j < n else math.inf
    return min(1.0 / ((1.0 - p) * j), rate_side)


FAMILIES = {family.kind: family for family in (
    Family(
        "poisson", poisson, (("lam", float),), lambda lam: (lam, lam), truncated=True,
        increment=_poisson_increment,
        increment_at=lambda j, lam: min(1.0 / j, _poisson_increment(lam)),
    ),
    # b_k = p(n-k)/(1-p) decreases from np/(1-p) to p/(1-p)
    Family(
        "binomial", binomial, (("n", int), ("p", float)),
        lambda n, p: (p / (1.0 - p), n * p / (1.0 - p)),
        increment_at=_binomial_increment_at, notes="rate-normalized variant",
    ),
    # b_k = (1-p)(k+1) grows without bound
    Family(
        "geometric", geometric, (("p", float),), lambda p: (1.0 - p, math.inf), truncated=True,
        increment=lambda p: min(1.0, 1.0 + p),
        increment_at=lambda j, p: min(1.0 / j, (1.0 + p) / (j + 1)),
        norm=lambda p: 1.0 / p,
    ),
    # b_k = (1-p)(k+r)
    Family(
        "negative_binomial", negative_binomial, (("r", float), ("p", float)),
        lambda r, p: ((1.0 - p) * r, math.inf), truncated=True,
    ),
    Family(
        "hypergeometric", hypergeometric,
        (("population", int), ("successes", int), ("draws", int)), None,
    ),
    # b_k = k+1
    Family(
        "discrete_uniform", discrete_uniform, (("n", int),),
        lambda n: (1.0, float(n)) if n >= 1 else (0.0, 0.0),
    ),
    # the continuum limits of the lattice models (lattice.limit_measure builds them)
    # rates lam, lam/3, 3lam, 2lam, (k+1)lam/(k-1) -> lam
    Family("repelling_limit", None, (("lam", float),), lambda lam: (lam / 3.0, 3.0 * lam)),
    # b_k = z k^k/(k+1)^(k+1) decreases to 0; the supremum is b_0 = z
    Family("product_limit", None, (("z", float),), lambda z: (0.0, z)),
)}

BUILTIN_KINDS = tuple(kind for kind, family in FAMILIES.items() if family.build is not None)


def builtin(kind: str, *args, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsMeasure:
    """Build a built-in family from positional parameters (used by the CLI descriptors)."""
    family = FAMILIES.get(kind)
    if family is None or family.build is None:
        raise ValueError(f"unknown measure kind {kind!r}; expected one of {BUILTIN_KINDS}")
    if len(args) != len(family.args) or any(
        typ is int and not float(value).is_integer() for (_, typ), value in zip(family.args, args)
    ):
        raise ValueError(f"{kind} takes {','.join(name for name, _ in family.args)}")
    params = {name: int(v) if typ is int else v for (name, typ), v in zip(family.args, args)}
    window = {"truncation": truncation, "tail_tol": tail_tol} if family.truncated else {}
    return family.build(**params, **window)
