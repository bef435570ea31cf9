"""Discrete Gibbs measures on a contiguous support {0, ..., N}.

A measure here is stored through an activity omega > 0 and a potential
table V(0..N), with probability weights

    pmf(k) = exp(V(k)) * omega^k / (k! * Z),      Z = sum_k exp(V(k)) omega^k / k!

Any law with contiguous support starting at 0 can be written this way; the
representation is unique only up to (omega, V) -> (a*omega, V - k*log a) and
an additive constant on V, which this module fixes by absorbing log Z into V
when converting from an explicit pmf.  All mass arithmetic happens in log
space because the interesting weights, such as k^-k or lambda^k/k!,
underflow quickly.  Four numpy helpers carry it: `_log_gamma_run` gives
log Gamma(s + k) - log Gamma(s) over a run k = 0, 1, ... as a compensated
running sum of log(s + i), `_log_factorials` hands out prefixes of one
read-only table of the run from s = 1, log k!, shared by the whole process,
`_logsumexp` is the max-shifted log-sum-exp behind every normalisation, and
`_truncated` picks truncation points.  The library's correctly rounded
sums all go through `_fsum` (`_fsum_rows` for each row of a table): the
float math.fsum returns, from a long nonnegative table sorted in
descending order, which makes math.fsum cheaper and cannot change it.

The distinguished birth-death dynamics attached to a measure uses unit per
capita death rates d_k = k and birth rates

    b_k = omega * exp(V(k+1) - V(k)) = (k+1) pmf(k+1) / pmf(k),   b_N = 0,

which satisfy detailed balance pmf(k) b_k = pmf(k+1) d_{k+1}.

Conceptually infinite laws (Poisson, geometric, ...) are represented by a
truncation to {0, ..., N}.  Each such family states in `FAMILIES` a bound
rho(n) on the ratio pmf(k+1)/pmf(k) for every k > n, so the weights beyond
m are at most w(m+1) / (1 - rho(m)) in total; with the terms up to m summed
exactly this is a proved bound on the discarded tail, rounded up for the
error of the log weights.  The smallest N whose bound is below the declared
tolerance is kept, and the bound travels with the measure so downstream
certificates can surface it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    bound: int
    tail_mass: float
    tolerance: float

    def to_dict(self) -> dict:
        return dict(vars(self))

    def check(self, n: int) -> None:
        """The record must declare the mass beyond n, a table's last state, within its tolerance.

        A declared tail may exceed 1 (a law truncated far below its bulk), so
        it is not capped; a bad field raises ValueError naming it.
        """
        if self.bound != n:
            raise ValueError(f"truncation.bound must equal the tables' last state {n}, got {self.bound!r}")
        if not 0.0 <= self.tail_mass < math.inf:
            raise ValueError(f"truncation.tail_mass must be finite and nonnegative, got {self.tail_mass!r}")
        if not self.tail_mass <= self.tolerance < math.inf:
            raise ValueError(
                f"truncation.tolerance must be finite and at least the tail mass {self.tail_mass!r}, "
                f"got {self.tolerance!r}"
            )


@dataclass(frozen=True)
class CumulativeTables:
    """F(k) = sum_{i<=k} pmf(i) and Fbar(k) = sum_{i>=k} pmf(i)."""

    F: np.ndarray
    Fbar: np.ndarray


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Log-space helpers
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of x along its last axis with Neumaier's compensation.

    Each step's rounding error is recovered exactly (TwoSum) from the plain
    running sum and accumulated alongside it, as Neumaier's loop does, so
    entry k equals that loop's compensated sum of x[..., 0..k].
    """
    s = np.cumsum(x, axis=-1)
    prev = np.empty_like(s)
    prev[..., :1] = 0.0
    prev[..., 1:] = s[..., :-1]
    added = s - prev
    errors = (prev - (s - added)) + (x - added)
    return s + np.cumsum(errors, axis=-1)


# ---------------------------------------------------------------------------
# Exact sums
# ---------------------------------------------------------------------------

# the fewest entries of a table or row that _fsum and _fsum_rows sort before math.fsum (see _sortable)
_SORTED_FROM = 128


def _sortable(table: np.ndarray) -> np.ndarray:
    """Whether math.fsum gives each row of table (a 1-d table is one row) the same float in any order.

    math.fsum (Shewchuk's algorithm) rounds the exact sum correctly in any
    order unless a partial sum overflows, and keeps few partials when no
    entry is larger than the ones before it.  A row of nonnegative entries,
    none of them as large as 2^1020 / (row length), keeps every partial sum
    below 2^1020 in any order, so _fsum and _fsum_rows sort such a row of at
    least _SORTED_FROM entries in descending order.  Any other row (shorter, signed, NaN, inf or near
    overflow) keeps its order, so math.fsum raises the same error on it.
    """
    return (table.min(axis=-1) >= 0.0) & (table.max(axis=-1) < 2.0**1020 / table.shape[-1])


def _fsum(x: np.ndarray) -> float:
    """math.fsum over one float64 array: its float, or its error."""
    if x.size >= _SORTED_FROM and _sortable(x):
        x = np.sort(x)[::-1]
    return math.fsum(x.tolist())


def _fsum_rows(table: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-d float64 table, bit for bit; a row that makes math.fsum raise raises here."""
    table = np.asarray(table, dtype=np.float64)
    if table.shape[1] >= _SORTED_FROM:
        table = np.where(_sortable(table)[:, None], np.sort(table, axis=1)[:, ::-1], table)
    return np.array([math.fsum(row) for row in table.tolist()], dtype=np.float64)


def _sums_to_one(values: np.ndarray, tol: float) -> bool:
    """Whether a float64 table sums to 1 within tol; a NaN sum, or one that overflows, does not."""
    try:
        return abs(_fsum(values) - 1.0) <= tol
    except OverflowError:  # entries so large that their sum leaves the double range
        return False


def _log_gamma_run(start: float, count: int) -> np.ndarray:
    """log Gamma(start + k) - log Gamma(start) for k = 0..count-1.

    The compensated running sum of log(start + i) over i < k, so log k! is
    `_log_gamma_run(1.0, count)[k]`, which `_log_factorials` keeps; add
    math.lgamma(start) for log Gamma itself.  Each entry carries the
    rounding of its logs, not of the sum.
    """
    logs = np.log(start + np.arange(count - 1, dtype=float))
    return np.concatenate(([0.0], _compensated_cumsum(logs)))


_LOG_FACTORIALS = _readonly(np.zeros(1))  # log k! for k = 0, 1, ...; replaced, never written


def _log_factorials(count: int) -> np.ndarray:
    """log k! for k = 0..count-1, bit for bit `_log_gamma_run(1.0, count)`, read-only.

    A prefix of one table shared by the whole process.  The running sum is
    sequential, so a longer run starts with the shorter one's bits, and the
    table grows by replacement to the larger of count and twice its size,
    up to _MAX_TERMS entries; a longer count is computed and not kept.  The
    global is read once, so a caller that another thread's growth races
    still slices the table it checked.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size < count:
        table = _readonly(_log_gamma_run(1.0, max(count, min(2 * table.size, _MAX_TERMS))))
        if count <= _MAX_TERMS:
            _LOG_FACTORIALS = table
    return table[:count]


def _logsumexp(x: np.ndarray) -> float:
    """log sum exp(x), shifted by the maximum; the largest term enters through log1p."""
    x = np.asarray(x, dtype=float)
    top = int(x.argmax())
    if not math.isfinite(x[top]):
        return float(x[top])
    rest = np.exp(x - x[top])
    rest[top] = 0.0
    return float(x[top] + math.log1p(rest.sum()))


def _log_weights(omega: float, V: np.ndarray) -> np.ndarray:
    """Unnormalised log weights V(k) + k log omega - log k!."""
    k = np.arange(V.size, dtype=float)
    return V + k * math.log(omega) - _log_factorials(V.size)


class GibbsMeasure:
    """Immutable discrete Gibbs measure on {0, ..., N}.

    Instances are fully determined at construction; every derived table
    (log pmf, pmf, birth rates, cumulatives) is computed once and exposed
    as a read-only array, so values can be shared freely across threads.
    """

    __slots__ = (
        "omega",
        "V",
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
        omega = _activity(omega)
        V = np.asarray(V, dtype=float)
        if V.ndim != 1 or V.size < 1:
            raise ValueError("potential table must be one-dimensional and non-empty")
        if not np.isfinite(V).all():
            raise ValueError("potential must be finite on the whole support")
        if truncation is not None:
            truncation.check(V.size - 1)

        log_weights = _log_weights(omega, V)
        log_pmf = log_weights - _logsumexp(log_weights)
        pmf = np.exp(log_pmf)
        if not pmf.all():
            k = int(np.argmax(pmf == 0.0))
            raise ValueError(
                f"support weight underflows double precision: pmf({k}) = exp({log_pmf[k]:.6g})"
            )
        total = float(pmf.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"pmf failed to normalize (sum = {total!r})")

        # b_k = omega * exp(V(k+1) - V(k)) for k < N; the support boundary
        # forces b_N = 0 (V(N+1) = -inf).
        log_birth = math.log(omega) + (V[1:] - V[:-1])
        birth = np.zeros(V.size)
        with np.errstate(over="ignore"):
            np.exp(log_birth, out=birth[:-1])
        overflow = np.isinf(birth)
        if overflow.any():
            k = int(np.argmax(overflow))
            raise ValueError(
                f"birth rate b_{k} = exp({log_birth[k]:.6g}) overflows double precision"
            )

        # F and the reversed Fbar in one running sum over the rows pmf and pmf
        # reversed; Fbar is copied forward, as contiguous tables are faster to read
        sums = np.concatenate((pmf, pmf[::-1])).reshape(2, -1).cumsum(axis=1)
        tables = CumulativeTables(F=_readonly(sums[0]), Fbar=_readonly(sums[1, ::-1].copy()))

        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "V", _readonly(V))
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

    def mean(self) -> float:
        return _fsum(np.arange(self.V.size, dtype=float) * self._pmf)

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
        """The measure a to_dict payload (parsed JSON) describes.

        A missing field or truncation key, or a value of the wrong type,
        raises ValueError naming it.
        """
        for field in ("omega", "V"):
            if field not in payload:
                raise ValueError(f"measure lacks field {field!r}")
        kind = payload.get("kind", "potential")
        params = payload.get("params") or {}
        trunc = payload.get("truncation")
        if not isinstance(kind, str):
            raise ValueError("measure field 'kind' must be a JSON string")
        for field, value in (("params", params), ("truncation", trunc or {})):
            if not isinstance(value, dict):
                raise ValueError(f"measure field {field!r} must be a JSON object")
        policy = None
        if trunc:
            for key in ("bound", "tail_mass", "tolerance"):
                if key not in trunc:
                    raise ValueError(f"truncation lacks {key!r}")
            policy = TailPolicy(
                _typed("truncation.bound", lambda v: _whole("truncation", "bound", v), trunc["bound"]),
                _typed("truncation.tail_mass", float, trunc["tail_mass"]),
                _typed("truncation.tolerance", float, trunc["tolerance"]),
            )
        m = GibbsMeasure(
            _typed("omega", float, payload["omega"]),
            _typed("V", lambda v: np.asarray(v, dtype=float), payload["V"]),
            kind=kind,
            params=params,
            truncation=policy,
        )
        family = FAMILIES.get(m.kind)
        if family is None:
            return m
        # certificates trust a registered kind's params, so rebuild the family and
        # compare birth rates, which unlike V survive reparametrization
        if family.build is None:
            raise ValueError(f"{m.kind} measures cannot be rebuilt from their params")
        values = family.values(m.params)
        # a finite family's params fix its support, which is checked before anything is built
        if family.support_max is not None and family.support_max(**values) != m.support_max:
            raise ValueError(
                f"{m.kind} params {m.params} do not match the measure's tables: they give "
                f"the support 0..{family.support_max(**values)}, the tables 0..{m.support_max}"
            )
        window = {"truncation": m.support_max} if family.tail_ratio else {}
        rebuilt = family.build(**values, **window)
        # each table's V is within 4 ulps of its exact values and a log rate is a
        # difference of two entries, so the two tables' log rates may differ by
        # 16 ulps of the largest |V|, which 32u (1 + max |V|) covers
        tol = 32 * _U * (1.0 + max(np.abs(m.V).max(), np.abs(rebuilt.V).max()))
        rates = rebuilt.birth_rates
        if rates.shape != m.birth_rates.shape or not np.allclose(m.birth_rates, rates, rtol=tol, atol=0.0):
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


def _typed(field: str, convert, value):
    """convert(value) for a measure's JSON field; a value convert rejects raises ValueError naming it."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"measure field {field!r}: {exc}") from exc


def _activity(omega) -> float:
    """omega as a float, which must be positive and finite."""
    omega = float(omega)
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ValueError(f"activity omega must be a positive finite real, got {omega}")
    return omega


def from_pmf(
    weights: np.ndarray,
    omega: float = 1.0,
    kind: str = "pmf",
    params: dict | None = None,
) -> GibbsMeasure:
    """Build a measure from nonnegative weights on {0, ..., N}.

    The weights must be finite and strictly positive throughout (the support
    has to be contiguous and contain 0); the non-uniqueness of the Gibbs form
    is fixed by absorbing log Z into V, so the stored representation has
    Z = 1.
    """
    omega = _activity(omega)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("weight table must be one-dimensional and non-empty")
    nonfinite = ~np.isfinite(weights)
    if nonfinite.any():
        k = int(np.argmax(nonfinite))
        raise ValueError(f"weight {k} is {float(weights[k])}; weights must be finite")
    if np.any(weights <= 0.0):
        raise ValueError("non-contiguous or degenerate support: weights must be strictly positive")
    log_w = np.log(weights)
    k = np.arange(weights.size, dtype=float)
    V = (log_w - _logsumexp(log_w)) + _log_factorials(weights.size) - k * math.log(omega)
    return GibbsMeasure(omega, V, kind=kind, params=params)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

_MAX_TERMS = 1 << 20  # the longest weight table a truncation search builds


def _truncated(
    kind: str,
    omega: float,
    potential: Callable[[int], np.ndarray],
    params: dict,
    truncation: int | None,
    tail_tol: float,
    least: int = 0,
) -> GibbsMeasure:
    """The law of activity omega and potential table `potential(size)`, truncated.

    ratio(n), the family's proved `tail_ratio` in `FAMILIES[kind]`, bounds
    pmf(k+1)/pmf(k) for all k > n.  On weights w(0..m+1), scaled to a
    largest of 1, the terms beyond N sum to at most R = w(N+1) + ... + w(m)
    + w(m+1)/(1 - ratio(m)), so at most the share R/(S_N + R) of the mass
    lies beyond N, S_N = w(0) + ... + w(N).  That share is rounded up for
    the rounding of the weights: log k! is within 4u log k! (u the unit
    roundoff; numpy's log and exp are within one ulp), so a log weight is
    within u(|V| + 4k|log omega| + 4 log k! + |log w|), and shift and exp
    add u|log w - max log w| + 2u.  The share moves by at most twice the largest of these,
    and by 16u in the compensated sums and divisions.  Weights that
    underflow add at most their count in least subnormals to R.

    N is the explicit truncation or the smallest whose rounded share is at
    most tail_tol.  The table doubles, up to _MAX_TERMS terms, until
    ratio(m) < 1 and either m >= 2N + 1 or the last term of R is below u R,
    where a longer table would barely tighten the bound.  An automatic N
    below `least` is raised to it: the search starts again as for the
    explicit truncation `least`, so the result is the one that truncation
    gives.

    A screen, `_finds_no_truncation`, skips an automatic pass that cannot
    find N.  The scaled weights are at most 1, so S_N <= m + 1, and R is at
    least its last term rest = w(m+1)/(1 - ratio(m)), so every share is at
    least rest/(m + 1 + rest).  Where

        rest > 2 tail_tol (m + 1 + rest)

    no share, even rounded up, is within tail_tol, and the table doubles
    without the pass (`_tail_bounds`); the factor 2 covers the rounding of
    the screen's own rest and of the compensated sums.  The screen only
    skips passes that would find no N, so every result is the one the full
    passes give; it never runs for an explicit truncation, nor after the
    restart at `least`.
    """
    if not isinstance(tail_tol, numbers.Real):
        raise ValueError(f"tail_tol must be a real number, got {tail_tol!r}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail tolerance must lie strictly between 0 and 1, got {tail_tol!r}")
    if truncation is not None:
        try:
            truncation = _whole("truncation", "bound", truncation)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"truncation bound must be a finite whole number, got {truncation!r}") from exc
        if not 0 <= truncation <= (_MAX_TERMS - 3) // 2:
            raise ValueError(f"truncation bound must lie in 0..{(_MAX_TERMS - 3) // 2}, got {truncation}")
    ratio = FAMILIES[kind].tail_ratio
    size = 64 if truncation is None else 2 * truncation + 3
    while size <= _MAX_TERMS:
        m = size - 2
        rho = ratio(m, **params) * (1.0 + 4 * _U)
        if not rho < 1.0:
            size *= 2
            continue
        V = potential(size)
        drift = np.arange(size) * math.log(omega)
        log_w = V + drift - _log_factorials(size)
        top = log_w.max()
        if truncation is None and _finds_no_truncation(log_w, top, rho, tail_tol):
            size *= 2
            continue
        bound, beyond, rest = _tail_bounds(V, drift, log_w, top, rho)
        if truncation is not None:
            n = truncation
        else:
            hits = (bound <= tail_tol).nonzero()[0]
            if not hits.size:
                size *= 2
                continue
            n = int(hits[0])
            if 2 * n + 1 > m and rest > _U * beyond[n]:
                size = 2 * n + 3
                continue
            if n < least:
                truncation, size = int(least), 2 * least + 3
                continue
        tail = float(bound[n])
        return GibbsMeasure(
            omega, V[: n + 1], kind=kind, params=params,
            truncation=TailPolicy(n, tail, max(tail_tol, tail)),
        )
    raise ValueError(
        f"no truncation within {_MAX_TERMS} terms has a tail bound below {tail_tol!r}: the "
        "weights decay too slowly, or their series is divergent"
    )


def _finds_no_truncation(log_w: np.ndarray, top: float, rho: float, tail_tol: float) -> bool:
    """The screen of `_truncated`: whether its pass over log_w surely finds no N within tail_tol."""
    rest = math.exp(log_w[-1] - top) / (1.0 - rho)
    return rest > 2.0 * tail_tol * (log_w.size - 1 + rest)


def _tail_bounds(
    V: np.ndarray, drift: np.ndarray, log_w: np.ndarray, top: float, rho: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One pass of `_truncated`'s search over weights w(0..m+1), m + 2 = V.size.

    Takes the potential V, the drift k log omega, the log weights log_w and
    their largest value top.  Returns the rounded-up tail share for each
    N = 0..m, the tail sums R for N = 0..m, and rest, the last term of R:
    the bound on the scaled weights from m + 1 on.  R and S_N come out of
    one compensated running sum over a two-row table.
    """
    size = V.size
    shifted = log_w - top
    log_fact = V + drift - log_w
    worst = _U * float((np.abs(V) + 4 * np.abs(drift) + 4 * log_fact + np.abs(log_w) - shifted).max())
    w = np.exp(shifted)
    rest = w[-1] / (1.0 - rho) + (size + 1.0 / (1.0 - rho)) * 2.0**-1074
    sums = np.empty((2, size - 1))
    sums[0, 0] = rest
    sums[0, 1:] = w[-2:0:-1]
    sums[1] = w[:-1]
    sums = _compensated_cumsum(sums)
    beyond = sums[0, ::-1]  # R for N = 0..m
    share = beyond / (sums[1] + beyond)
    return np.nextafter(share * (1.0 + 2.5 * worst + 21 * _U), math.inf), beyond, rest


def _check_p(family: str, p: float):
    """p must lie in (0, 1) and leave a failure probability 1 - p below 1 in double precision."""
    if not 0.0 < p < 1.0 or 1.0 - p == 1.0:
        raise ValueError(f"{family} needs 0 < p < 1 with 1 - p < 1 in double precision, got {p!r}")


def poisson(lam: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsMeasure:
    """Poisson(lambda), stored with omega = lambda and constant potential."""
    return _poisson(lam, truncation, tail_tol)


def _poisson(lam: float, truncation: int | None, tail_tol: float, least: int = 0) -> GibbsMeasure:
    """poisson(lam, truncation, tail_tol), with an automatic truncation of at least `least`."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"poisson rate must be positive and finite, got {lam!r}")
    return _truncated(
        "poisson", lam, lambda size: np.full(size, -lam), {"lam": lam}, truncation, tail_tol, least=least
    )


def _check_count(family: str, name: str, value) -> None:
    """A count parameter must be a finite whole number (10.0 is one; 10.5, nan and inf are not)."""
    if not float(value).is_integer():
        raise ValueError(f"{family} needs a finite whole number {name}, got {value!r}")


def _whole(owner: str, name: str, value) -> int:
    """int(value) for a whole number: int's own errors first, then _check_count's for a fraction."""
    whole = int(value)
    _check_count(owner, name, value)
    return whole


def _check_table(family: str, name: str, top) -> None:
    """A finite law's table on 0..top may hold at most _MAX_TERMS entries, like a truncated one's."""
    if top >= _MAX_TERMS:
        raise ValueError(f"{family} needs {name} <= {_MAX_TERMS - 1}, got {top!r}")


def binomial(n: int, p: float) -> GibbsMeasure:
    """Binomial(n, p) via omega = p/(1-p), V(k) = -log((n-k)!)."""
    _check_count("binomial", "n", n)
    if n < 1:
        raise ValueError("binomial needs n >= 1")
    _check_table("binomial", "n", n)
    if not 0.0 < p < 1.0:
        raise ValueError("binomial needs 0 < p < 1")
    V = -_log_factorials(n + 1)[::-1]
    return GibbsMeasure(p / (1.0 - p), V, kind="binomial", params={"n": n, "p": p})


def geometric(p: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsMeasure:
    """Geometric with pmf p(1-p)^k on {0, 1, ...}; omega = 1-p, V(k) = log k!."""
    _check_p("geometric", p)
    return _truncated("geometric", 1.0 - p, _log_factorials, {"p": p}, truncation, tail_tol)


def negative_binomial(
    r: float, p: float, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> GibbsMeasure:
    """Negative binomial counting failures before the r-th success."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"negative binomial needs a positive finite r, got {r!r}")
    _check_p("negative binomial", p)
    return _truncated(
        "negative_binomial", 1.0 - p, lambda size: _log_gamma_run(r, size), {"r": r, "p": p},
        truncation, tail_tol,
    )


def hypergeometric(population: int, successes: int, draws: int) -> GibbsMeasure:
    """Hypergeometric draw counts; requires the support to start at 0."""
    for name, value in (("population", population), ("successes", successes), ("draws", draws)):
        _check_count("hypergeometric", name, value)
    if not (0 < successes < population and 0 < draws < population):
        raise ValueError("hypergeometric parameters out of range")
    if draws + successes > population:
        raise ValueError(
            "non-contiguous or degenerate support: need draws + successes <= population "
            "so that zero successes is attainable"
        )
    top = min(draws, successes)
    _check_table("hypergeometric", "min(successes, draws)", top)
    # -log(k! (successes - k)! (draws - k)! (population - successes - draws + k)!),
    # each factorial a run over k = 0..top less its constant log Gamma(start)
    count = top + 1
    log_w = -(
        _log_factorials(count)
        + _log_gamma_run(successes - top + 1.0, count)[::-1]
        + _log_gamma_run(draws - top + 1.0, count)[::-1]
        + _log_gamma_run(population - successes - draws + 1.0, count)
    )
    weights = np.exp(log_w - log_w.max())
    return from_pmf(
        weights, omega=1.0, kind="hypergeometric",
        params={"population": population, "successes": successes, "draws": draws},
    )


def discrete_uniform(n: int) -> GibbsMeasure:
    """Uniform law on {0, ..., n}."""
    _check_count("discrete uniform", "n", n)
    if n < 0:
        raise ValueError("discrete uniform needs n >= 0")
    _check_table("discrete uniform", "n", n)
    return from_pmf(np.ones(n + 1), omega=1.0, kind="discrete_uniform", params={"n": n})


@dataclass(frozen=True)
class Family:
    """One law's facts: its name, constructor, descriptor order and closed-form Stein factors.

    `args` lists the `params` keys, which are `build`'s keywords, in descriptor
    order with their types.  The rest take the params as keywords and return
    plain numbers: `rates` the birth-rate infimum and supremum over the
    untruncated family, `tail_ratio(n, ...)` a bound on pmf(k+1)/pmf(k) for
    all k > n on laws with infinite support, which are truncated and whose
    constructors also take `truncation` and `tail_tol`, `support_max` the
    largest state of a finite family's support, `increment` a
    uniform and `increment_at(j, ...)` a per-j increment bound, `norm` a
    solution-norm bound (None where no closed form is known); `notes` go
    with the per-j certificate.  Since pmf(k+1)/pmf(k) = b_k/(k+1), a rate
    supremum b gives the tail ratio b/(n+2).
    """

    kind: str
    build: Callable[..., GibbsMeasure] | None
    args: tuple[tuple[str, type], ...]
    rates: Callable[..., tuple[float, float]] | None
    tail_ratio: Callable[..., float] | None = None
    support_max: Callable[..., int] | None = None
    increment: Callable[..., float] | None = None
    increment_at: Callable[..., float] | None = None
    norm: Callable[..., float] | None = None
    notes: str = ""

    def values(self, params: dict) -> dict:
        """The family's params from `params`, converted to their declared types.

        A missing parameter, one its type rejects, or a count that is not a
        whole number raises ValueError naming it.
        """
        missing = [name for name, _ in self.args if name not in params]
        if missing:
            raise ValueError(f"{self.kind} measure lacks parameter {missing[0]!r}")
        return {
            name: _typed("params", (lambda v: _whole(self.kind, name, v)) if typ is int else typ, params[name])
            for name, typ in self.args
        }


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
        "poisson", poisson, (("lam", float),), lambda lam: (lam, lam),
        tail_ratio=lambda n, lam: lam / (n + 2),
        increment=_poisson_increment,
        increment_at=lambda j, lam: min(1.0 / j, _poisson_increment(lam)),
    ),
    # b_k = p(n-k)/(1-p) decreases from np/(1-p) to p/(1-p)
    Family(
        "binomial", binomial, (("n", int), ("p", float)),
        lambda n, p: (p / (1.0 - p), n * p / (1.0 - p)),
        support_max=lambda n, p: n,
        increment_at=_binomial_increment_at, notes="rate-normalized variant",
    ),
    # b_k = (1-p)(k+1) grows without bound
    Family(
        "geometric", geometric, (("p", float),), lambda p: (1.0 - p, math.inf),
        tail_ratio=lambda n, p: 1.0 - p,
        increment=lambda p: min(1.0, 1.0 + p),
        increment_at=lambda j, p: min(1.0 / j, (1.0 + p) / (j + 1)),
        norm=lambda p: 1.0 / p,
    ),
    # b_k = (1-p)(k+r)
    Family(
        "negative_binomial", negative_binomial, (("r", float), ("p", float)),
        lambda r, p: ((1.0 - p) * r, math.inf),
        # pmf(k+1)/pmf(k) = (1-p)(r+k)/(k+1) moves monotonically toward 1 - p
        tail_ratio=lambda n, r, p: (1.0 - p) * max(1.0, (r + n + 1) / (n + 2)),
    ),
    Family(
        "hypergeometric", hypergeometric,
        (("population", int), ("successes", int), ("draws", int)), None,
        support_max=lambda population, successes, draws: min(successes, draws),
    ),
    # b_k = k+1
    Family(
        "discrete_uniform", discrete_uniform, (("n", int),),
        lambda n: (1.0, float(n)) if n >= 1 else (0.0, 0.0),
        support_max=lambda n: n,
    ),
    # the continuum limits of the lattice models (lattice.limit_measure builds them)
    # rates lam, lam/3, 3lam, 2lam, (k+1)lam/(k-1) -> lam
    Family(
        "repelling_limit", None, (("lam", float),), lambda lam: (lam / 3.0, 3.0 * lam),
        tail_ratio=lambda n, lam: 3.0 * lam / (n + 2),
    ),
    # b_k = z k^k/(k+1)^(k+1) decreases to 0; the supremum is b_0 = z
    Family(
        "product_limit", None, (("z", float),), lambda z: (0.0, z),
        tail_ratio=lambda n, z: z / (n + 2),
    ),
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
    window = {"truncation": truncation, "tail_tol": tail_tol} if family.tail_ratio else {}
    return family.build(**params, **window)
