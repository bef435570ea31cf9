"""Size-bias transforms and the index-selection sum construction.

For X >= 0 with positive mean, the size-biased law is
P(X* = x) = x P(X = x) / EX; it is what sampling proportionally to size
produces and it satisfies E[X f(X)] = EX E[f(X*)] for every f.

For a sum S = X_1 + ... + X_n of Bernoulli(p_i) variables, a size-biased
copy is built by picking an index I with P(I = i) proportional to p_i,
forcing X_I = 1, redrawing the remaining coordinates from their conditional
law given X_i = 1, and adding:  S* = sum_{j != i} Xhat_j + 1.  Only the
conditional laws of the leftover sums Shat_i = sum_{j != i} Xhat_j enter any
of the bounds downstream, so a coupling specification stores exactly those
(aggregated) laws; full configuration-level input is aggregated on ingestion.

The identity s P(S = s) = sum_i p_i P(Shat_i = s - 1) pins the law of S to
the conditional tables, which is both how the mixture is checked for
consistency and how the law of S is recovered for dependent specifications.

Only the marginal laws of S and of each Shat_i enter the size-bias identity
E[S g(S)] = sum_i p_i E g(Shat_i + 1), so each index may couple Shat_i
with S as it likes.  Independent coordinates take the perfect coupling
Shat_i = S - X_i.  A dependent spec takes the monotone (quantile)
coupling, which reads both off one uniform through their CDFs: at most
2n + 1 pairs per index along the merged CDF breakpoints (monotone_pairs),
under which E_i |S - Shat_i| is the Wasserstein-1 distance of the two
laws.  For independent coordinates the two couplings are one joint law:
P(S = t + 1, Shat_i = t) = p_i P(Shat_i = t) in both.

Independent specs build all n leave-one-out laws, and the law of S, in one
lockstep pass.  The CDFs of S and of every Shat_i are one compensated
running sum over an (n+1) x (n+1) table and the pairs one stable sort per
index of two sorted runs (a linear merge), so a spec costs O(n^2) time and
memory.  Correctly rounded sums are math.fsum's, through measures._fsum
(_fsum_rows for each row of a table).  The references the tables are
tested against live in `oracle`: bernoulli_convolution for the
leave-one-out laws, and coupling_given_index, a tuple loop that lists the
monotone pairs of one index by a two-pointer merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (
    GibbsMeasure, _compensated_cumsum, _fields, _fsum, _fsum_rows, _numeric, _sums_to_one, _typed,
)
from .stein import solve

__all__ = [
    "SizeBiasLaw",
    "size_bias",
    "CouplingSpec",
    "sum_size_bias",
    "stein_residual_via_size_bias",
]

_PMF_TOL = 1e-12


def _check_pmf(arr: np.ndarray, what: str, tol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d table")
    if np.any(arr < -1e-15):
        raise ValueError(f"{what} has negative entries")
    if not _sums_to_one(arr, tol):
        raise ValueError(f"{what} is not a probability vector")
    return arr


def _check_pmf_rows(table: np.ndarray, rows: np.ndarray, what: str, tol: float) -> None:
    """_check_pmf(table[i], f"{what} {i}", tol) for each listed row i, in one pass.

    The first bad row raises the error _check_pmf would raise for it,
    negative entries before the sum.  A row whose sum makes math.fsum
    overflow sends every row down the row-by-row path, which names the
    first bad one.
    """
    negative = np.any(table[rows] < -1e-15, axis=1)
    bad = negative.copy()
    try:
        bad[~negative] = ~(np.abs(_fsum_rows(table[rows[~negative]]) - 1.0) <= tol)
    except OverflowError:
        for i in rows:
            _check_pmf(table[i], f"{what} {i}", tol=tol)
    if bad.any():
        first = int(np.argmax(bad))
        problem = "has negative entries" if negative[first] else "is not a probability vector"
        raise ValueError(f"{what} {rows[first]} {problem}")


@dataclass(frozen=True)
class SizeBiasLaw:
    """Base pmf together with its size-biased companion on the same indices."""

    base: np.ndarray
    biased: np.ndarray
    mean: float


def size_bias(base: np.ndarray) -> SizeBiasLaw:
    """Size-bias a pmf on {0, ..., K}: biased(x) = x base(x) / mean."""
    base = _check_pmf(base, "base law")
    k = np.arange(base.size, dtype=float)
    mean = _fsum(k * base)
    if not mean > 0.0:
        raise ValueError("size biasing needs a law with positive mean")
    biased = k * base / mean
    return SizeBiasLaw(base=base, biased=biased, mean=mean)


def _leave_one_out_laws(p: np.ndarray) -> np.ndarray:
    """Leave-one-out laws of independent Bernoulli(p_i) coordinates, with the full law.

    Row i < n of the (n+1) x (n+1) result is
    oracle.bernoulli_convolution(np.delete(p, i)) on 0..n-1 and row n is
    oracle.bernoulli_convolution(p), bit for bit: all rows are built in one
    lockstep pass over the coordinates.  At step k the rows
    i < k fold in coordinate k by new[s] = old[s](1 - p_k) + old[s-1] p_k,
    the two products np.convolve adds, while row k keeps the law of the
    coordinates before k and row k + 1 takes that law with p_k folded in.
    So column 0 of row i is the product of (1 - p_j) over j != i, in order.
    """
    n = p.size
    q = 1.0 - p
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = 1.0
    for k in range(n):
        head = table[k, : k + 1].copy()
        rows = table[: k + 1, : k + 2]
        rows[:, 1:] = rows[:, 1:] * q[k] + rows[:, :-1] * p[k]
        rows[:, 0] *= q[k]
        table[k + 1, : k + 2] = table[k, : k + 2]
        table[k, : k + 1] = head
        table[k, k + 1] = 0.0
    return table


class CouplingSpec:
    """Per-index conditional laws for the size-biased sum construction.

    p[i] are the Bernoulli means, lam their correctly rounded sum;
    conditional_sums[i] is the pmf of Shat_i = sum_{j != i} Xhat_j on
    {0, ..., n-1} given X_i = 1.  With independent=True the conditional
    tables are the leave-one-out convolutions and are generated (or
    verified) automatically, in one lockstep pass that ends with the law of
    S, which the spec keeps.  Their column 0 is the product of 1 - p_j over
    j != i.  The CDFs of S and of the Shat_i, and the monotone pairs, are
    formed once on first use.
    """

    __slots__ = ("p", "lam", "conditional_sums", "independent", "_sum_law", "_cdf_tables", "_pairs")

    def __init__(
        self,
        p: np.ndarray,
        conditional_sums: np.ndarray | None = None,
        independent: bool = False,
        sum_law: np.ndarray | None = None,
    ):
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty vector of Bernoulli means")
        if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN means fail here too
            raise ValueError("Bernoulli means must lie in [0, 1]")
        lam = _fsum(p)
        if not lam > 0.0:
            raise ValueError("at least one Bernoulli mean must be positive")
        n = p.size

        if independent:
            laws = _leave_one_out_laws(p)
            derived = laws[:n, :n]
            if sum_law is None:
                sum_law = laws[n]
                sum_law.setflags(write=False)
            if conditional_sums is not None:
                given = np.asarray(conditional_sums, dtype=float)
                if given.shape != derived.shape or not np.max(np.abs(given - derived)) <= 1e-9:
                    raise ValueError(
                        "conditional sums inconsistent with independence of the coordinates"
                    )
            conditional_sums = derived
        else:
            if conditional_sums is None:
                raise ValueError("dependent specifications need explicit conditional sums")
            conditional_sums = np.asarray(conditional_sums, dtype=float)
            if conditional_sums.shape != (n, n):
                raise ValueError(f"conditional sums must be an {n}x{n} table (rows on 0..n-1)")
            _check_pmf_rows(conditional_sums, np.flatnonzero(p > 0.0), "conditional sum law", _PMF_TOL * n)

        self.p = p
        self.p.setflags(write=False)
        self.lam = lam
        self.conditional_sums = conditional_sums
        self.conditional_sums.setflags(write=False)
        self.independent = independent
        self._sum_law = None if sum_law is None else np.asarray(sum_law, dtype=float)
        self._cdf_tables: tuple | None = None
        self._pairs: tuple | None = None

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def independent_bernoulli(p) -> "CouplingSpec":
        return CouplingSpec(np.asarray(p, dtype=float), independent=True)

    @staticmethod
    def from_configurations(configurations) -> "CouplingSpec":
        """Aggregate a full joint law over {0,1}^n configurations.

        configurations is an iterable of (bits, probability) pairs; the
        conditional sum tables and the exact law of the sum are derived.
        """
        items = [(tuple(int(b) for b in bits), float(pr)) for bits, pr in configurations]
        if not items:
            raise ValueError("empty configuration list")
        n = len(items[0][0])
        if any(len(bits) != n for bits, _ in items):
            raise ValueError("configurations must share one length")
        for bits, pr in items:
            if not pr >= 0.0:
                raise ValueError(f"configuration {list(bits)} has probability {pr}, not a non-negative number")
            if not set(bits) <= {0, 1}:
                raise ValueError(f"configuration {list(bits)} has bits other than 0 and 1")
        if not _sums_to_one(np.array([pr for _, pr in items]), 1e-9):
            raise ValueError("configuration probabilities must sum to 1")
        p = np.zeros(n)
        cond = np.zeros((n, n))
        sum_law = np.zeros(n + 1)
        for bits, pr in items:
            s = sum(bits)
            sum_law[s] += pr
            for i in range(n):
                if bits[i]:
                    p[i] += pr
                    cond[i, s - 1] += pr
        for i in range(n):
            if p[i] > 0.0:
                cond[i] /= p[i]
        # probabilities that add to just over 1 can put a mean there too
        np.minimum(p, 1.0, out=p)
        return CouplingSpec(p, conditional_sums=cond, independent=False, sum_law=sum_law)

    @staticmethod
    def from_dict(payload) -> "CouplingSpec":
        """The spec a parsed JSON payload describes; a bad, missing or unknown field raises ValueError naming it.

        Its fields are "configurations" alone, or "p" with optional "independent" and "conditional_sums".
        A boolean or string among its numbers is bad, and so is a bit other than 0 or 1.
        """
        owner = "coupling specification"
        if not isinstance(payload, dict):
            raise ValueError(f"{owner} must be a JSON object")
        if "configurations" in payload:
            _fields(owner, payload, ("configurations",))
            entries = payload["configurations"]
            for k, entry in enumerate(entries if isinstance(entries, list) else [None]):
                if not isinstance(entry, dict):
                    raise ValueError(f"{owner} field 'configurations' must be a list of JSON objects")
                _fields(f"configuration {k}", entry, ("bits", "prob"))
            items = _typed(owner, "configurations",
                           _numeric(lambda entries: [(tuple(map(int, e["bits"])), float(e["prob"])) for e in entries]),
                           entries)
            for (bits, _), entry in zip(items, entries):
                if list(bits) != entry["bits"]:  # int() would cut 0.9 to 0
                    raise ValueError(f"configuration {entry['bits']} has bits other than 0 and 1")
            return CouplingSpec.from_configurations(items)
        _fields(owner, payload, ("p",), ("independent", "conditional_sums"))
        independent = payload.get("independent", False)
        if not isinstance(independent, bool):
            raise ValueError(f"{owner} field 'independent' must be a JSON boolean, got {independent!r}")
        p = _typed(owner, "p", _numeric(lambda v: np.asarray(v, dtype=float)), payload["p"])
        sums = payload.get("conditional_sums")
        if sums is not None:
            sums = _typed(owner, "conditional_sums", _numeric(lambda v: np.asarray(v, dtype=float)), sums)
        # tables given alongside the independent flag are checked against the convolutions
        return CouplingSpec(p, sums, independent=independent)

    # -- derived laws -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.p.size

    def mixture_law(self) -> np.ndarray:
        """Law of S* = Shat_I + 1 on {0, ..., n}; the index mixture of shifts."""
        live = self.p > 0.0
        terms = (self.p[live] / self.lam)[:, None] * self.conditional_sums[live]
        # the running sum from 0 in index order: add.reduce may add a column pairwise
        mix = np.zeros(self.n + 1)
        mix[1:] = np.add.accumulate(np.concatenate([np.zeros((1, self.n)), terms]), axis=0)[-1]
        return mix

    def sum_law(self) -> np.ndarray:
        """Law of S itself.

        Independent specs keep the exact convolution their leave-one-out
        pass ends with; configuration-level input carries the law along;
        otherwise the law is recovered from
        s P(S = s) = sum_i p_i P(Shat_i = s-1), flagging inconsistent tables.
        The derived law is computed once and kept, read-only, on the spec.
        """
        if self._sum_law is not None:
            return self._sum_law
        law = np.zeros(self.n + 1)
        mix = self.mixture_law()
        s = np.arange(1, self.n + 1, dtype=float)
        law[1:] = self.lam * mix[1:] / s
        head = 1.0 - _fsum(law[1:])
        if not head >= -1e-9:
            raise ValueError(
                "conditional sums are inconsistent: no law of the sum matches the mixture"
            )
        law[0] = max(head, 0.0)
        law.setflags(write=False)
        self._sum_law = law
        return law

    def _cdfs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(live, F, F_hat): the indices with p_i > 0, the CDF of S and, row by row, those of their Shat_i.

        Each CDF is a compensated running sum clipped to [0, 1], made
        nondecreasing and ending at exactly 1; all are formed in one pass,
        once.  A dependent spec first checks that no P(S = s, X_i = 0) =
        P(S = s) - p_i P(Shat_i = s - 1) with p_i > 0 falls below -1e-9.
        """
        if self._cdf_tables is not None:
            return self._cdf_tables
        n = self.n
        live = np.flatnonzero(self.p > 0.0)
        law = self.sum_law()
        if not self.independent and not np.all(law[1:] - self.p[live, None] * self.conditional_sums[live] >= -1e-9):
            raise ValueError("conditional sums are inconsistent with the law of the sum")
        table = np.zeros((live.size + 1, n + 1))
        table[0] = law
        table[1:, :n] = self.conditional_sums[live]
        cdf = np.maximum.accumulate(np.clip(_compensated_cumsum(table), 0.0, 1.0), axis=1)
        cdf[0, n] = 1.0
        cdf[1:, n - 1] = 1.0
        cdf.setflags(write=False)
        self._cdf_tables = (live, cdf[0], cdf[1:, :n])
        return self._cdf_tables

    def monotone_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The monotone (quantile) coupling of S with each Shat_i, as tables (s, t, mass).

        Row k holds the 2n + 1 stretches between the sorted CDF breakpoints
        of S and Shat_i, i the k-th index with p_i > 0, those of S first on a
        tie: a stretch's mass is its length and (s, t) are the two quantiles
        on it, each CDF's breakpoints sorted before its right end.  Stretches
        of positive mass are the pairs of oracle.coupling_given_index, bit
        for bit.  Built once.
        """
        if self._pairs is None:
            n = self.n
            _, F, F_hat = self._cdfs()
            ends = np.concatenate([np.broadcast_to(F, (F_hat.shape[0], n + 1)), F_hat], axis=1)
            order = np.argsort(ends, axis=1, kind="stable")
            ends = np.take_along_axis(ends, order, axis=1)
            from_s = order <= n
            s = np.cumsum(from_s, axis=1) - from_s
            t = np.arange(2 * n + 1) - s
            # past the last breakpoint of S only stretches of mass 0 remain
            self._pairs = (np.minimum(s, n), t, np.diff(ends, axis=1, prepend=0.0))
            for arr in self._pairs:
                arr.setflags(write=False)
        return self._pairs

    def mean_abs_gaps(self) -> np.ndarray:
        """E_i |S - Shat_i| for every index, and 0 where p_i = 0.

        p_i for independent specs; otherwise the correctly rounded sum of
        mass |s - t| over each row of monotone_pairs, a Wasserstein-1 distance.
        """
        if self.independent:
            return self.p.copy()
        s, t, mass = self.monotone_pairs()
        gaps = np.zeros(self.n)
        gaps[self.p > 0.0] = _fsum_rows(mass * np.abs(s - t))
        return gaps

    def to_dict(self) -> dict:
        return {
            "p": self.p.tolist(),
            "independent": self.independent,
            "conditional_sums": self.conditional_sums.tolist(),
        }


def sum_size_bias(spec: CouplingSpec) -> np.ndarray:
    """Law of S* = Shat_I + 1, verified against size-biasing the sum's law."""
    mix = spec.mixture_law()
    direct = size_bias(spec.sum_law()).biased
    gap = float(np.max(np.abs(mix - direct)))
    if not gap <= 1e-9:
        raise ValueError(
            f"mixture law differs from the size-biased sum law by {gap:.3e}; "
            "the conditional tables are inconsistent"
        )
    return mix


def stein_residual_via_size_bias(
    m: GibbsMeasure, W: np.ndarray, Wstar: np.ndarray, f
) -> float:
    """Rate-weighted residual omega (E e^dV(W) g(W+1) - E e^dV(W) E g(W*)).

    With g the Stein solution for m and W* the exact size bias of W this
    equals Ef(W) - mu(f) whenever the rate-weighted mean matches the plain
    mean (E b_W = E W), in particular for W ~ m or a constant-rate target
    whose activity equals the mean of W.
    """
    W = _check_pmf(W, "law of W")
    Wstar = _check_pmf(Wstar, "law of W*")
    n = m.support_max
    if W.size > n + 1:
        raise ValueError("W must live inside the measure's support")
    if Wstar.size > n + 2:
        raise ValueError("W* must live inside 0..N+1")
    g = solve(m, f).g
    b = m.birth_rates[: W.size]
    lhs = _fsum(W * b * g[1 : W.size + 1])
    rate_mean = _fsum(W * b)
    mean_g_star = _fsum(Wstar * g[: Wstar.size])
    return lhs - rate_mean * mean_g_star
