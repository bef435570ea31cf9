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

A joint coupling of (S, Shat_i) given I = i is needed for the distance
bounds: on the event X_i = 1 the redraw can be taken to be the identity
(S = Shat_i + 1 exactly); on X_i = 0 the leftover sum is redrawn
independently.  For independent coordinates that choice degenerates to the
classical perfect coupling with S - Shat_i = X_i.

The layer works in whole-array passes with the bits of the per-element
forms it replaced: independent specs build all n leave-one-out laws, and
the law of S, in one lockstep pass over the coordinates.  A dependent spec
checks its n conditional tables in one pass and forms all n laws given
X_i = 0 as one (n, n+1) table, once; its X_i = 0 slabs (zero_slab_blocks)
and mean absolute gaps (mean_abs_gaps) are built in blocks of indices
holding about measures._CHUNK entries, one index at a time once a slab is
larger, so memory stays O(n^2).  Every correctly rounded sum goes through
one exact kernel, measures._fsum_rows, which adds each row of a table and
returns what math.fsum returns over the same entries.  The tuple loop
coupling_given_index lists the same joint law one pair at a time and is
the reference the blocks are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _CHUNK, GibbsMeasure, _fsum_rows, _sums_to_one
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
    mean = math.fsum((k * base).tolist())
    if not mean > 0.0:
        raise ValueError("size biasing needs a law with positive mean")
    biased = k * base / mean
    return SizeBiasLaw(base=base, biased=biased, mean=mean)


def bernoulli_convolution(p: np.ndarray) -> np.ndarray:
    """Exact law of a sum of independent Bernoulli(p_i) variables."""
    law = np.array([1.0])
    for pi in np.asarray(p, dtype=float):
        law = np.convolve(law, [1.0 - pi, pi])
    return law


def _leave_one_out_laws(p: np.ndarray) -> np.ndarray:
    """Leave-one-out laws of independent Bernoulli(p_i) coordinates, with the full law.

    Row i < n of the (n+1) x (n+1) result is bernoulli_convolution(np.delete(p, i))
    on 0..n-1 and row n is bernoulli_convolution(p), bit for bit: all rows
    are built in one lockstep pass over the coordinates.  At step k the rows
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

    p[i] are the Bernoulli means; conditional_sums[i] is the pmf of
    Shat_i = sum_{j != i} Xhat_j on {0, ..., n-1} given X_i = 1.  With
    independent=True the conditional tables are the leave-one-out
    convolutions and are generated (or verified) automatically, in one
    lockstep pass that ends with the law of S, which the spec keeps.  Their
    column 0 is the product of 1 - p_j over j != i.  Dependent specs form
    the laws of S given X_i = 0, for every index, as one table on first use.
    """

    __slots__ = ("p", "conditional_sums", "independent", "_sum_law", "_given_zero_table")

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
        if not math.fsum(p.tolist()) > 0.0:
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
        self.conditional_sums = conditional_sums
        self.conditional_sums.setflags(write=False)
        self.independent = independent
        self._sum_law = None if sum_law is None else np.asarray(sum_law, dtype=float)
        self._given_zero_table: np.ndarray | None = None

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
        return CouplingSpec(p, conditional_sums=cond, independent=False, sum_law=sum_law)

    @staticmethod
    def from_dict(payload: dict) -> "CouplingSpec":
        if "configurations" in payload:
            return CouplingSpec.from_configurations(
                (entry["bits"], entry["prob"]) for entry in payload["configurations"]
            )
        p = np.asarray(payload["p"], dtype=float)
        if payload.get("independent", False):
            # tables given alongside the flag are checked against the convolutions
            return CouplingSpec(p, payload.get("conditional_sums"), independent=True)
        return CouplingSpec(p, conditional_sums=np.asarray(payload["conditional_sums"], dtype=float))

    # -- derived laws -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.p.size

    @property
    def lam(self) -> float:
        return math.fsum(self.p.tolist())

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
        head = 1.0 - math.fsum(law[1:].tolist())
        if not head >= -1e-9:
            raise ValueError(
                "conditional sums are inconsistent: no law of the sum matches the mixture"
            )
        law[0] = max(head, 0.0)
        law.setflags(write=False)
        self._sum_law = law
        return law

    def _given_zero_laws(self) -> np.ndarray:
        """Row i: the law of S given X_i = 0, peeled off the law of S (dependent specs).

        All rows are formed in one pass on first use and kept, read-only, on
        the spec; a negative entry below -1e-9 in the row of an index with
        p_i > 0 flags the tables as inconsistent, and each such row with
        p_i < 1 is normalised by its correctly rounded sum.  Rows of indices
        with p_i = 0 are never read.
        """
        if self._given_zero_table is not None:
            return self._given_zero_table
        table = np.repeat(self.sum_law()[None, :], self.n, axis=0)
        with np.errstate(invalid="ignore"):  # 0 * inf in a row with p_i = 0
            table[:, 1:] -= self.p[:, None] * self.conditional_sums
        live = self.p > 0.0
        if not np.all(table[live] >= -1e-9):
            raise ValueError("conditional sums are inconsistent with the law of the sum")
        np.clip(table, 0.0, None, out=table)
        scaled = live & (self.p < 1.0)
        table[scaled] /= _fsum_rows(table[scaled])[:, None]
        table.setflags(write=False)
        self._given_zero_table = table
        return table

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError("index out of range")
        if self.p[i] <= 0.0:
            raise ValueError("coupling undefined for an index with zero mean")

    def coupling_given_index(self, i: int) -> list[tuple[float, int, int]]:
        """Joint law of (S, Shat_i) given I = i as (prob, s, s_hat) triples.

        On X_i = 1 the redraw is the identity, so S = Shat_i + 1; on X_i = 0
        the leftover sum is redrawn independently of S.
        """
        self._check_index(i)
        cond = self.conditional_sums[i]
        out: list[tuple[float, int, int]] = []
        if self.independent:
            # Shat_i = S - X_i with X_i independent of Shat_i.
            for s_hat, pr in enumerate(cond):
                if pr == 0.0:
                    continue
                out.append((pr * self.p[i], s_hat + 1, s_hat))
                out.append((pr * (1.0 - self.p[i]), s_hat, s_hat))
            return out
        given_zero = self._given_zero_laws()[i]
        for s_hat, pr_hat in enumerate(cond):
            if pr_hat == 0.0:
                continue
            out.append((pr_hat * self.p[i], s_hat + 1, s_hat))
            if self.p[i] < 1.0:
                for s, pr_s in enumerate(given_zero):
                    if pr_s == 0.0:
                        continue
                    out.append(((1.0 - self.p[i]) * pr_hat * pr_s, s, s_hat))
        return out

    def _gap_table(self) -> np.ndarray:
        """|s - t| for the pairs (s, t) of the X_i = 0 slabs, on 0..n by 0..n-1."""
        states = np.arange(self.n + 1, dtype=float)
        return np.abs(np.subtract.outer(states, states[:-1]))

    def zero_slab_blocks(self):
        """The X_i = 0 parts of coupling_given_index, stacked over blocks of indices.

        Yields (rows, zero) where zero[k, s, t] is the probability of the pair
        (S, Shat_i) = (s, t) on X_i = 0 for i = rows[k], on 0..n by 0..n-1:
        the product coupling_given_index forms, with zeros for the pairs it
        leaves out.  The rows are every index with 0 < p_i < 1 in order (none
        for independent specs, where S = Shat_i on X_i = 0), in blocks of the
        fewest indices whose slabs reach _CHUNK entries: one index at a time
        once its (n+1) x n slab is that large.  Each zero is a fresh array,
        which the caller may overwrite.
        """
        if self.independent:
            return
        mixed = np.flatnonzero((self.p > 0.0) & (self.p < 1.0))
        step = -(-_CHUNK // ((self.n + 1) * self.n))
        for start in range(0, mixed.size, step):
            rows = mixed[start : start + step]
            cond = (1.0 - self.p[rows])[:, None] * self.conditional_sums[rows]
            yield rows, self._given_zero_laws()[rows][:, :, None] * cond[:, None, :]

    def mean_abs_gaps(self) -> np.ndarray:
        """E_i |S - Shat_i| under the canonical coupling for every index, and 0 where p_i = 0.

        Independent specs give p_i.  Otherwise each index's terms, its
        X_i = 1 pairs and its X_i = 0 slab times the state gap, lie along one
        row of a table built per block of zero_slab_blocks, and
        measures._fsum_rows adds every row at once, correctly rounded.
        Indices with p_i = 1 add their X_i = 1 pairs alone.
        """
        if self.independent:
            return self.p.copy()
        n = self.n
        gaps = np.zeros(n)
        sure = np.flatnonzero(self.p == 1.0)
        if sure.size:
            gaps[sure] = _fsum_rows(self.conditional_sums[sure] * self.p[sure, None])
        gap = self._gap_table()
        for rows, zero in self.zero_slab_blocks():
            terms = np.empty((rows.size, n + 2, n))
            terms[:, 0] = self.conditional_sums[rows] * self.p[rows, None]
            np.multiply(zero, gap, out=terms[:, 1:])
            gaps[rows] = _fsum_rows(terms.reshape(rows.size, -1))
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
    lhs = math.fsum((W * b * g[1 : W.size + 1]).tolist())
    rate_mean = math.fsum((W * b).tolist())
    mean_g_star = math.fsum((Wstar * g[: Wstar.size]).tolist())
    return lhs - rate_mean * mean_g_star
