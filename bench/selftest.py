"""Tests of the benchmark's own arithmetic and tracer.

Run from the repository root (kept out of the library's default test run):

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from stats import gmean, loglog_slope, percentile, self_time  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_counts_nested_children_once():
    # (2, 3) lies inside (1, 5); the union is (1, 5)
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0), (7.0, 7.5)]) == pytest.approx(5.5)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_self_time_of_fully_covered_span_is_zero():
    assert self_time(0.0, 1.0, [(0.0, 0.6), (0.5, 1.0)]) == pytest.approx(0.0)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    # ten samples lie above the 90th percentile of 100
    assert sum(v > percentile(values, 90) for v in values) == 10


def test_percentile_small_samples():
    assert percentile([7.0], 90) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 90) == 4.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_gmean_and_slope():
    assert gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert gmean([]) == 0.0
    sizes = [10, 20, 40, 80]
    assert loglog_slope(sizes, [n**2 for n in sizes]) == pytest.approx(2.0)
    assert loglog_slope([10, 10], [1.0, 2.0]) == 0.0


def test_summary_sums_self_time_per_group():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("stein.sup_solution_norm", 1.0, 5.0, 0, 0),
        ("stein.sup_increment_exact", 6.0, 7.0, 0, 0),
        ("factors.increment_bound", 7.0, 9.0, 0, 0),
        ("factors.condition", 7.5, 8.5, 3, 0),
        ("factors.condition", 8.5, 8.75, 3, 0),
    ]
    s = summarize(spans)
    assert s["groups"] == ["cli", "stein.sup_norm", "stein.sup_pointwise",
                           "factors.certificate", "factors.condition", "factors.condition"]
    assert s["self_ms"]["stein.sup_norm"] == pytest.approx(4000.0)
    assert s["self_ms"]["stein.sup_pointwise"] == pytest.approx(1000.0)
    assert s["self_ms"]["factors.condition"] == pytest.approx(1250.0)
    assert s["self_ms"]["factors.certificate"] == pytest.approx(750.0)
    assert s["self_ms"]["cli"] == pytest.approx(3000.0)
    assert s["layer_ms"]["factors"] == pytest.approx(2000.0)
    assert s["entries"]["factors.condition"] == 2
    assert s["entries"]["cli"] == 1


def test_tracer_spans_layer_entries_and_counts_nested_calls():
    import gibbs_stein as gs
    from gibbs_stein import compare

    originals = (gs.solve, compare.sup_solution_norm, gs.GibbsMeasure.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert compare.sup_solution_norm is not originals[1]
        tracer.begin_op(0)
        m1, m2 = gs.poisson(2.0, truncation=20), gs.poisson(2.2, truncation=20)
        gs.generator_comparison_bound(m1, m2)
        tracer.end_op()
        gs.poisson(1.0)  # outside an operation: not recorded
    finally:
        tracer.uninstall()
    assert (gs.solve, compare.sup_solution_norm, gs.GibbsMeasure.__init__) == originals
    spans = tracer.spans()
    names = [span[0] for span in spans]
    # constructors nested in `poisson` and suprema nested in the norm are counted, not spanned
    assert names.count("measures.poisson") == 2
    assert "measures.GibbsMeasure.__init__" not in names
    assert tracer.calls["measures.GibbsMeasure.__init__"] == 2
    assert names.count("stein.sup_solution_norm") == 2
    assert "stein.sup_solution_exact" not in names
    assert tracer.calls["stein.sup_solution_exact"] == 40
    assert "compare.tv_distance" in names
    norm = names.index("stein.sup_solution_norm")
    assert names[spans[norm][3]] == "compare.generator_comparison_bound"
    assert tracer.probes[norm] == 20  # support size probe
