"""Small statistics used by the benchmark: percentiles, geometric means,
interval self time and a log-log slope fit."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n) of the sorted sample.

    With n >= 100 samples the 90th percentile leaves at least ten samples
    above it, which is why the benchmark insists on 100 operations per run.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile rank must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def gmean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sample)."""
    logs = [math.log(v) for v in values]
    if not logs:
        return 0.0
    return math.exp(math.fsum(logs) / len(logs))


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of [start, end] not covered by any child interval.

    Child intervals may overlap or nest; each is clipped to the parent and
    the union is subtracted once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 if undetermined."""
    pairs = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len({x for x, _ in pairs}) < 2:
        return 0.0
    mx = math.fsum(x for x, _ in pairs) / len(pairs)
    my = math.fsum(y for _, y in pairs) / len(pairs)
    sxx = math.fsum((x - mx) ** 2 for x, _ in pairs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in pairs)
    return sxy / sxx
