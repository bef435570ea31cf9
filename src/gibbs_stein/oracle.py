"""Reference forms that the fast paths of the library are checked against.

Each form here exists only to check one fast path.  It reads the same
inputs (a measure's pmf and cumulative tables, a spec's CDFs) but shares
none of the fast path's arithmetic: sums are math.fsum over Python floats
or plain loops, never the library's `_fsum`.  `verify` and the tests import
them from here; no other module of the package does.

- `stein.sup_solution_table` and `sup_increment_table`: g_f(j) and its
  increment are affine in the test table f with explicit coefficient
  vectors (`solution_coefficients`, `increment_coefficients`), so their
  supremum over the box [0, 1]^(N+1) is the larger of the positive and
  negative coefficient masses (`_box_supremum`), attained at an indicator
  (`extremal_indicator`).
- `lattice.InteractionModel.log_Wn`: W_n(k) by explicit k-fold summation
  of f_k over the model's grid (`lattice_weight_brute`), in a
  deterministic order and guarded by the size n^k.
- `lattice._pair_terms`: `harmonic_between`, the partial harmonic sums it
  charges, as math.fsum of the reciprocals.
- `size_bias._leave_one_out_laws`: `bernoulli_convolution`, the law of an
  independent Bernoulli sum by repeated np.convolve.
- `size_bias.CouplingSpec.monotone_pairs`: `coupling_given_index` lists the
  coupled pairs of one index as a tuple loop.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .lattice import InteractionModel
from .measures import GibbsMeasure
from .size_bias import CouplingSpec
from .stein import _check_index

# ---------------------------------------------------------------------------
# Exact suprema over the [0, 1]-valued test class
# ---------------------------------------------------------------------------

def solution_coefficients(m: GibbsMeasure, j: int) -> np.ndarray:
    """Coefficients c with g_f(j) = sum_k c[k] f(k) for every test table f."""
    _check_index(m, j, "solution")
    n = m.support_max
    pmf = m.pmf
    tables = m.cumulatives()
    scale = j * pmf[j]
    c = np.empty(n + 1)
    c[:j] = pmf[:j] * (tables.Fbar[j] / scale)
    c[j:] = -pmf[j:] * (tables.F[j - 1] / scale)
    return c


def increment_coefficients(m: GibbsMeasure, j: int) -> np.ndarray:
    """Coefficients d with g_f(j+1) - g_f(j) = sum_k d[k] f(k)."""
    _check_index(m, j, "increment")
    c_j = solution_coefficients(m, j)
    if j == m.support_max:
        # g(N+1) = 0, so the increment at N is -g(N).
        return -c_j
    return solution_coefficients(m, j + 1) - c_j


def _box_supremum(coeffs: np.ndarray, f_support: int | None) -> tuple[float, np.ndarray]:
    """Sup of |sum c_k f_k| over f in [0,1]^m (optionally f = 0 above f_support).

    Returns the value and an attaining indicator table (ties resolved to 0).
    """
    active = coeffs if f_support is None else coeffs[: f_support + 1]
    pos = math.fsum(active[active > 0.0].tolist())
    neg = -math.fsum(active[active < 0.0].tolist())
    f_star = np.zeros(coeffs.size)
    if pos >= neg:
        value, mask = pos, active > 0.0
    else:
        value, mask = neg, active < 0.0
    f_star[: active.size][mask] = 1.0
    return value, f_star


def extremal_indicator(m: GibbsMeasure, j: int, quantity: str = "increment") -> np.ndarray:
    """An indicator test function attaining the exact supremum at j."""
    if quantity == "increment":
        _, f_star = _box_supremum(increment_coefficients(m, j), None)
    elif quantity == "solution":
        _, f_star = _box_supremum(solution_coefficients(m, j), None)
    else:
        raise ValueError("quantity must be 'increment' or 'solution'")
    return f_star


# ---------------------------------------------------------------------------
# Lattice weights and harmonic charges
# ---------------------------------------------------------------------------

_BRUTE_FORCE_GUARD = 10**7


def _fk_ideal(points: tuple[float, ...]) -> float:
    return 1.0


def _fk_repelling(points: tuple[float, ...]) -> float:
    if len(points) <= 1:
        return 1.0
    return 2.0 * math.fsum(
        (points[a] - points[b]) ** 2
        for a in range(len(points))
        for b in range(a + 1, len(points))
    )


def _fk_product(points: tuple[float, ...]) -> float:
    k = len(points)
    if k <= 1:
        return 1.0
    return math.prod(x ** (k - 1) for x in points)


# model kind -> (point rule of its grid, raw interaction f_k at a tuple of points)
_INTERACTIONS = {
    "ideal_gas": ("midpoint", _fk_ideal),
    "repelling": ("midpoint", _fk_repelling),
    "product": ("left_endpoint", _fk_product),
}


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
    rule, fk = _INTERACTIONS[model.kind]
    grid = grid_points(n, rule)
    total = math.fsum(fk(points) for points in itertools.product(grid, repeat=k))
    return total / float(n) ** k


def harmonic_between(x: int, y: int) -> float:
    """Partial harmonic sum over min(x,y)+1 .. max(x,y) (0 when x = y)."""
    lo, hi = min(x, y), max(x, y)
    if lo < 0:
        raise ValueError(f"harmonic sums run over nonnegative states, got {lo}")
    return math.fsum(1.0 / ell for ell in range(lo + 1, hi + 1))


# ---------------------------------------------------------------------------
# Bernoulli sums
# ---------------------------------------------------------------------------

def bernoulli_convolution(p: np.ndarray) -> np.ndarray:
    """Exact law of a sum of independent Bernoulli(p_i) variables."""
    law = np.array([1.0])
    for pi in np.asarray(p, dtype=float):
        law = np.convolve(law, [1.0 - pi, pi])
    return law


def coupling_given_index(spec: CouplingSpec, i: int) -> list[tuple[float, int, int]]:
    """Joint law of (S, Shat_i) given I = i as (prob, s, s_hat) triples of positive prob.

    The perfect coupling Shat_i = S - X_i for independent coordinates;
    otherwise the monotone one, by a two-pointer merge of the CDFs of
    spec._cdfs that takes the CDF of S first on a tie.
    """
    if not 0 <= i < spec.n:
        raise ValueError("index out of range")
    if spec.p[i] <= 0.0:
        raise ValueError("coupling undefined for an index with zero mean")
    cond = spec.conditional_sums[i]
    out: list[tuple[float, int, int]] = []
    if spec.independent:
        # Shat_i = S - X_i with X_i independent of Shat_i.
        for s_hat, pr in enumerate(cond):
            if pr == 0.0:
                continue
            out.append((pr * spec.p[i], s_hat + 1, s_hat))
            out.append((pr * (1.0 - spec.p[i]), s_hat, s_hat))
        return out
    live, F, F_hat = spec._cdfs()
    ends, hat = F.tolist(), F_hat[np.searchsorted(live, i)].tolist()
    n = spec.n
    a = b = 0
    last = 0.0
    while a <= n or b < n:
        s, t = min(a, n), b
        if b == n or (a <= n and ends[a] <= hat[b]):
            end, a = ends[a], a + 1
        else:
            end, b = hat[b], b + 1
        if end != last:
            out.append((end - last, s, t))
        last = end
    return out
