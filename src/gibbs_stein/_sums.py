"""Exact-rounding summation helpers shared by the numerical core.

Everything downstream leans on two primitives: correctly rounded sums of
float sequences (math.fsum) and log-sum-exp for mass accumulation in log
space.  Both are wrapped here so the call sites stay uniform.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np
from scipy.special import logsumexp as _logsumexp

__all__ = ["fsum", "log_sum_exp", "exact_window_sum"]


def fsum(values: Iterable[float]) -> float:
    """Correctly rounded float sum."""
    return math.fsum(values)


def log_sum_exp(log_values: np.ndarray) -> float:
    """log(sum(exp(v))) without intermediate overflow or underflow."""
    return float(_logsumexp(np.asarray(log_values, dtype=float)))


def exact_window_sum(terms: np.ndarray, lo: int, hi: int) -> float:
    """Correctly rounded sum of terms[lo:hi] (empty windows give 0.0)."""
    if hi <= lo:
        return 0.0
    return math.fsum(terms[lo:hi].tolist())
