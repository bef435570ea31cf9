"""Truncated and built-in laws keep their bits: a pinned corpus, the search screen and the log k! table.

`tests/data/truncated_laws.json` pins, for every law of `_cases()`, the
activity and truncation record as hex floats and a sha256 of each of V,
pmf, F, Fbar and the birth rates, so a law that moves by one ulp anywhere
fails here by name.
"""

import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein import measures
from gibbs_stein.lattice import limit_measure

PINNED = os.path.join(os.path.dirname(__file__), "data", "truncated_laws.json")
TOLERANCES = (1e-14, 1e-8, 1e-3)
POISSON_RATES = (0.01, 0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 60.0, 150.0, 400.0, 740.0)


def _repelling_limit(lam, **window):
    return limit_measure(gs.repelling_model(lam), **window)


def _product_limit(z, **window):
    return limit_measure(gs.product_model(z), **window)


def _poisson_least(lam, truncation, tail_tol, least):
    return measures._poisson(lam, truncation, tail_tol, least=least)


def _cases():
    """(label, builder, args, keywords) of every pinned law."""
    calls = []
    for tol in TOLERANCES:
        window = {"tail_tol": tol}
        calls += [(gs.poisson, (lam,), window) for lam in POISSON_RATES]
        calls += [(gs.geometric, (p,), window) for p in (0.01, 0.3, 0.7, 0.99)]
        calls += [(gs.negative_binomial, rp, window) for rp in ((0.5, 0.5), (2.5, 0.4), (30.0, 0.2), (300.0, 0.5))]
        calls += [(_repelling_limit, (lam,), window) for lam in (0.5, 2.0, 10.0)]
        calls += [(_product_limit, (z,), window) for z in (0.5, 3.0, 20.0)]
    # explicit truncations, one of them far below the bulk and one with a loose tolerance
    calls += [(gs.poisson, (3.0,), {"truncation": t}) for t in (0, 1, 16, 60)]
    calls += [(gs.poisson, (100.0,), {"truncation": 0}), (gs.poisson, (3.0,), {"truncation": 5, "tail_tol": 1e-3})]
    calls += [(gs.geometric, (0.3,), {"truncation": t}) for t in (0, 5, 40)]
    calls += [(gs.negative_binomial, (2.5, 0.4), {"truncation": t}) for t in (0, 30)]
    calls += [(builder, (1.0,), {"truncation": 9}) for builder in (_repelling_limit, _product_limit)]
    # an automatic truncation raised to `least`, one already above it, and an explicit one that ignores it
    calls += [(_poisson_least, args, {}) for args in (
        (1.0, None, 1e-14, 50), (5.0, None, 1e-14, 3), (20.0, None, 1e-8, 100), (0.3, None, 1e-3, 120),
        (2.0, 30, 1e-14, 10))]
    return [(_label(builder, args, kw), builder, args, kw) for builder, args, kw in calls]


def _label(builder, args, kw) -> str:
    inner = [*map(repr, args), *(f"{key}={value!r}" for key, value in kw.items())]
    return f"{builder.__name__.lstrip('_')}({', '.join(inner)})"


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def _digest(array) -> str:
    return hashlib.sha256(_bits(array)).hexdigest()


def _record(m) -> dict:
    tables = m.cumulatives()
    tail = m.truncation
    return {
        "omega": m.omega.hex(),
        "truncation": None if tail is None else [tail.bound, tail.tail_mass.hex(), tail.tolerance.hex()],
        **{name: _digest(table) for name, table in (
            ("V", m.V), ("pmf", m.pmf), ("F", tables.F), ("Fbar", tables.Fbar), ("birth", m.birth_rates))},
    }


def test_truncated_laws_match_the_pinned_bits():
    with open(PINNED) as handle:
        pinned = json.load(handle)
    cases = _cases()
    assert sorted(label for label, *_ in cases) == sorted(pinned)
    for label, builder, args, kw in cases:
        assert _record(builder(*args, **kw)) == pinned[label], label


def _screen_grid():
    """The pinned laws and a sweep of the benchmark's Poisson and negative binomial ranges."""
    for _, builder, args, kw in _cases():
        yield lambda builder=builder, args=args, kw=kw: builder(*args, **kw)
    for lam in np.geomspace(0.05, 745.0, 40):
        yield lambda lam=float(lam): gs.poisson(lam)
    for mean in np.geomspace(1.0, 600.0, 12):
        for shape in (0.5, 1.0, 2.0):
            r = float(mean * shape)
            yield lambda r=r, mean=float(mean): gs.negative_binomial(r, r / (r + mean))


def test_the_screen_skips_only_passes_that_find_no_truncation(monkeypatch):
    # with the screen switched off every pass runs; each one the screen would
    # skip must find no N, and the laws must keep the bits they have with it
    screen, tail_bounds = measures._finds_no_truncation, measures._tail_bounds
    pending, skipped = [], []

    def unscreened(log_w, top, rho, tail_tol):
        if screen(log_w, top, rho, tail_tol):
            pending.append(tail_tol)
        return False

    def checked_pass(*args):
        bound, beyond, rest = tail_bounds(*args)
        if pending:
            tail_tol = pending.pop()
            skipped.append(bound.size)
            assert not (bound <= tail_tol).any(), (bound.size, tail_tol, bound.min())
        return bound, beyond, rest

    screened = [_record(build()) for build in _screen_grid()]
    monkeypatch.setattr(measures, "_finds_no_truncation", unscreened)
    monkeypatch.setattr(measures, "_tail_bounds", checked_pass)
    assert [_record(build()) for build in _screen_grid()] == screened
    assert not pending and len(skipped) >= 60, len(skipped)  # 65 passes the screen skips on this grid


def test_every_log_gamma_run_from_one_starts_with_the_shorter_runs_bits():
    rng = np.random.default_rng(24)
    longest = measures._log_gamma_run(1.0, 1 << 16)
    for count in sorted({1, 2, 3, 63, 64, 65, *rng.integers(1, 1 << 16, 200).tolist()}):
        assert _bits(measures._log_gamma_run(1.0, count)) == _bits(longest[:count]), count


def test_log_factorials_grow_one_shared_table_with_the_runs_bits(monkeypatch):
    monkeypatch.setattr(measures, "_LOG_FACTORIALS", measures._readonly(measures._log_gamma_run(1.0, 5)))
    # (count asked, table size after): within the table, doubling, a jump past twice the size
    for count, size in ((3, 5), (5, 5), (6, 10), (10, 10), (11, 20), (50, 50), (51, 100), (100, 100), (4000, 4000)):
        table = measures._log_factorials(count)
        assert _bits(table) == _bits(measures._log_gamma_run(1.0, count)), count
        assert measures._LOG_FACTORIALS.size == size, count
    # the table stops at _MAX_TERMS entries; a longer run is handed out and not kept
    assert measures._log_factorials(measures._MAX_TERMS).size == measures._MAX_TERMS
    longer = measures._log_factorials(measures._MAX_TERMS + 1)
    assert _bits(longer) == _bits(measures._log_gamma_run(1.0, measures._MAX_TERMS + 1))
    assert measures._LOG_FACTORIALS.size == measures._MAX_TERMS


def test_the_log_factorial_table_and_the_laws_that_share_it_are_read_only():
    table = measures._log_factorials(100)
    law = gs.geometric(0.3)
    for array in (table, measures._LOG_FACTORIALS, law.V):
        with pytest.raises(ValueError, match="read-only"):
            array[2] = 0.0
    assert np.shares_memory(law.V, measures._LOG_FACTORIALS)


def _growing_laws():
    """Laws whose log k! runs grow the shared table from a single entry."""
    return [
        lambda: gs.geometric(0.5), lambda: gs.binomial(300, 0.4), lambda: gs.poisson(150.0),
        lambda: gs.geometric(0.02), lambda: gs.binomial(1000, 0.5), lambda: gs.poisson(700.0),
        lambda: gs.discrete_uniform(9000), lambda: gs.hypergeometric(400, 150, 120),
        lambda: gs.from_pmf(np.linspace(1.0, 2.0, 20000)), lambda: gs.geometric(0.001),
    ]


def test_laws_built_from_four_threads_while_the_table_grows_keep_their_bits(monkeypatch):
    expected = [_record(build()) for build in _growing_laws()]
    monkeypatch.setattr(measures, "_LOG_FACTORIALS", measures._readonly(np.zeros(1)))
    start = threading.Barrier(4)
    results, errors = {}, []

    def work(worker):
        try:
            start.wait(timeout=30)
            builds = _growing_laws()
            order = list(range(worker, len(builds))) + list(range(worker))
            for i in order:
                results[worker, i] = _record(builds[i]())
        except Exception as exc:  # re-raised in the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == 4 * len(expected)
    for (worker, i), record in results.items():
        assert record == expected[i], (worker, i)


def test_built_in_laws_take_log_factorials_from_the_warm_table(monkeypatch):
    measures._log_factorials(1 << 12)
    run = measures._log_gamma_run

    def only_other_starts(start, count):
        if start == 1.0:
            raise AssertionError(f"log k! recomputed for {count} entries")
        return run(start, count)

    monkeypatch.setattr(measures, "_log_gamma_run", only_other_starts)
    for build in (lambda: gs.poisson(20.0), lambda: gs.poisson(500.0), lambda: gs.geometric(0.3),
                  lambda: gs.binomial(800, 0.5), lambda: gs.discrete_uniform(100),
                  lambda: gs.from_pmf([1.0, 2.0, 3.0])):
        build()
