"""The benchmark's operations and output checks run against the library.

`test_bench_imports.py` checks that the names the benchmark uses resolve;
this runs them.  `bench/workloads.py` is loaded by path, and a small deck of
each workload is drawn, run and checked with the high-precision oracle on,
so a call, argument or attribute read that the benchmark relies on and the
library no longer serves fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["compare_large", "cli_small_reports", "bernoulli_sums"])
def test_bench_deck_runs_with_no_failed_check(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name]
    deck = workload.deck(np.random.default_rng([1, 0]), 12)
    op = workload.make_op(str(tmp_path))
    assert len(deck) == 12
    for rec in deck:
        checked = workload.check(rec, op(rec), True)
        assert not checked.failed, (rec, checked.failed)
