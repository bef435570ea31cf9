"""Fuzzed command lines: `main` exits 0 or 2, never with a traceback, and an
exit-2 message names the flag, config key or descriptor at fault; a report
printed with exit 0 holds no NaN.

Each case is drawn per subcommand from a grammar of valid and corrupted flag
values, `--config` files and inline JSON measures.  A part of the command
line is corrupted on purpose or drawn valid; when dropping the corrupted
parts makes the command succeed, they alone are at fault and the message
must name one of them.  `verify` takes only an integer seed and runs its
whole battery, so it is left out.  Drawn support sizes stay at or below
10^4.
"""

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_stein as gs
from gibbs_stein.cli import main


@dataclass(frozen=True)
class Part:
    """Some argv tokens, the strings a message may name them by, and whether they are corrupted."""

    tokens: tuple
    names: tuple
    bad: bool
    files: tuple = ()  # (name, text) pairs written under the case's directory first


def flag(name, value, bad=False, named_by_value=False):
    return Part((name, value), (name, value) if named_by_value else (name,), bad)


BAD_NUMBERS = ["abc", "nan", "inf", "-inf", "-1", "0", "1e309", "", "0x10", "3..1", "1,2"]


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def descriptor():
    """A measure descriptor, valid or corrupted; sizes stay at or below 10^4."""
    valid = st.one_of(
        floats(1e-3, 60.0).map(lambda lam: f"poisson:{lam}"),
        st.tuples(st.integers(1, 10_000), floats(0.01, 0.99)).map(lambda a: f"binomial:{a[0]},{a[1]}"),
        floats(0.05, 0.95).map(lambda p: f"geometric:{p}"),
        st.tuples(floats(0.2, 50.0), floats(0.1, 0.9)).map(lambda a: f"negative_binomial:{a[0]},{a[1]}"),
        st.integers(2, 200).flatmap(lambda pop: st.integers(1, pop - 1).flatmap(
            lambda s: st.integers(1, pop - s).map(lambda d: f"hypergeometric:{pop},{s},{d}"))),
        st.integers(0, 200).map(lambda n: f"discrete_uniform:{n}"),
        st.lists(floats(0.01, 5.0), min_size=1, max_size=12).map(lambda w: "pmf:" + ",".join(w)),
        st.tuples(floats(0.1, 20.0), st.integers(0, 60)).map(
            lambda a: gs.poisson(float(a[0]), truncation=a[1]).to_json()),
    )
    corrupted = st.one_of(
        st.sampled_from(["poisson", "cauchy:1", "binomial:10", "poisson:1,2", "pmf:1,0,1", "pmf:1,-1",
                         "pmf:", "hypergeometric:10,6,7", "binomial:10.5,0.3", "[1, 2]", "{",
                         '{"omega": 1}', '{"omega": -1, "V": [0]}', '{"omega": 1, "V": []}',
                         '{"omega": 1, "V": [0, "x"]}', '{"omega": 1, "V": [0, NaN]}',
                         '{"kind": "poisson", "params": {}, "omega": 1, "V": [0, 0]}',
                         '{"kind": "poisson", "params": {"lam": 9}, "omega": 1, "V": [0, 0]}',
                         "geometric:1e-300", "geometric:1", "negative_binomial:1e300,0.5",
                         "poisson:1e300", "poisson:800"]),
        st.tuples(st.sampled_from(["poisson", "geometric", "binomial", "negative_binomial",
                                   "discrete_uniform", "hypergeometric"]),
                  st.lists(st.sampled_from(BAD_NUMBERS), min_size=1, max_size=3)).map(
            lambda a: f"{a[0]}:{','.join(a[1])}"),
    )
    return st.one_of(valid.map(lambda d: (d, False)), corrupted.map(lambda d: (d, True)))


def measure_part(name):
    return descriptor().map(lambda d: flag(name, d[0], d[1], named_by_value=True))


def choice(name, good, bad):
    return st.one_of(st.sampled_from(good).map(lambda v: flag(name, v)),
                     st.sampled_from(bad).map(lambda v: flag(name, v, True)))


def common():
    """Optional flags every report subcommand takes."""
    return st.lists(st.one_of(
        choice("--truncation", ["0", "3", "40", "200"], ["-3", "abc", "1.5", "", "10000000"]),
        choice("--tail-tol", ["1e-14", "1e-6", "0.5", "1e-320"], ["-1", "nan", "0", "1", "inf", "abc"]),
        choice("--seed", ["0", "7"], ["x", "1.5"]),
        choice("--format", ["csv", "json"], ["xml"]),
        st.booleans().map(lambda ok: Part(
            ("--out", "{dir}/out.txt" if ok else "{dir}/missing/out.txt"), ("--out",), not ok)),
        config(),
    ), max_size=3, unique_by=lambda part: part.tokens[0])


def config():
    """A --config file: flag overrides, or content the config reader must reject."""
    good = st.dictionaries(
        st.sampled_from(["truncation", "tail_tol", "tail-tol", "seed", "format"]),
        st.sampled_from([3, 40, "1e-10", 0, "json"]), max_size=2)
    bad_entries = st.dictionaries(
        st.sampled_from(["truncation", "tail_tol", "truncation_tolerance", "bogus", "seed"]),
        st.sampled_from([None, False, "abc", -1, [2, 3], "nan"]), min_size=1, max_size=2)
    bad_text = st.sampled_from(["[1]", "{", "", "null", '"text"'])

    def part(text, keys, bad):
        names = ("--config", "{dir}/cfg.json", *keys, *(f"--{k.replace('_', '-')}" for k in keys),
                 *(["--tail-tol"] if "truncation_tolerance" in keys else []))
        return Part(("--config", "{dir}/cfg.json"), names, bad, (("cfg.json", text),))

    return st.one_of(
        good.map(lambda d: part(json.dumps(d), tuple(d), False)),
        bad_entries.map(lambda d: part(json.dumps(d), tuple(d), True)),
        bad_text.map(lambda t: part(t, (), True)),
    )


def ranged(name, good_hi, bad):
    good = st.tuples(st.integers(1, good_hi), st.integers(0, 5)).map(lambda a: f"{a[0]}..{a[0] + a[1]}")
    return st.one_of(good.map(lambda v: flag(name, v)), st.sampled_from(bad).map(lambda v: flag(name, v, True)))


def solve_case():
    f = choice("--f", ["indicator:0", "indicator:0,1", "constant:0.5", "[0.5]"],
               ["indicator:x", "indicator:-1", "constant:abc", "constant:2", "constant:nan", "[", "bogus",
                "indicator:99999"])
    return st.tuples(measure_part("--measure"), f, common()).map(lambda t: ["solve", t[0], t[1], *t[2]])


def bounds_case():
    j = st.one_of(st.none(), ranged("--j", 6, ["x", "5..2", "", "0", "-1..2", ","]))
    return st.tuples(measure_part("--measure"), j, common()).map(
        lambda t: ["bounds", t[0], *([t[1]] if t[1] else []), *t[2]])


def compare_case():
    norm = st.one_of(st.none(), choice("--g-norm", ["exact", "rate_spread", "value:1,2"],
                                       ["value:abc,1", "value:3", "value:-1,2", "value:nan,1", "bogus"]))
    return st.tuples(measure_part("--m1"), measure_part("--m2"), norm, common()).map(
        lambda t: ["compare", t[0], t[1], *([t[2]] if t[2] else []), *t[3]])


def lattice_case():
    model = choice("--model", ["repelling", "product", "ideal_gas"], ["bogus"])
    lam = st.one_of(st.none(), floats(0.1, 5.0).map(lambda v: flag("--lambda", v)),
                    st.sampled_from(BAD_NUMBERS).map(lambda v: flag("--lambda", v, True)))
    norm = st.one_of(st.none(), choice("--g-norm", ["exact", "rate_spread"], ["value:1,2"]))
    n = ranged("--n", 40, ["0", "abc", "5..2", "", "-2..3"])
    return st.tuples(model, n, lam, norm, common()).map(
        lambda t: ["lattice", t[0], t[1], *[p for p in t[2:4] if p], *t[4]])


# specs whose tables hold a NaN: a conditional sum law, and the all-zero configuration's probability
NAN_SPECS = [
    json.dumps({"p": [0.5, 0.5], "conditional_sums": [[0.5, math.nan], [0.5, 0.5]]}),
    json.dumps({"configurations": [{"bits": [0, 0], "prob": math.nan}, {"bits": [1, 0], "prob": 0.5},
                                   {"bits": [1, 1], "prob": 0.5}]}),
]


# specs whose tables hold entries so large that their sums overflow the double range
OVERFLOW_SPECS = [
    json.dumps({"p": [0.5, 0.5], "conditional_sums": [[1e308, 1e308], [0.5, 0.5]]}),
    json.dumps({"configurations": [{"bits": [0, 0], "prob": 1e308}, {"bits": [1, 1], "prob": 1e308}]}),
]


def _poisson_payload(**record):
    """poisson(1) as JSON, with some keys of its truncation record replaced."""
    payload = gs.poisson(1.0).to_dict()
    payload["truncation"].update(record)
    return payload


# measures whose JSON holds a NaN or Infinity token, and the words the error names the field by
NONFINITE_MEASURES = [
    *(({"omega": bad, "V": [0, 0]}, "activity omega") for bad in (math.nan, math.inf)),
    *(({"omega": 1, "V": [0, bad]}, "potential") for bad in (math.nan, math.inf)),
    ({**gs.poisson(1.0).to_dict(), "params": {"lam": math.nan}}, "poisson rate"),
    ({"kind": "binomial", "params": {"n": math.inf, "p": 0.5}, "omega": 1, "V": [0, 0]}, "measure field 'params'"),
    *((_poisson_payload(**{key: bad}), f"truncation.{key}")
      for key in ("bound", "tail_mass", "tolerance") for bad in (math.nan, math.inf)),
]


def nonfinite_measure(case):
    payload, field = NONFINITE_MEASURES[case]
    return ["bounds", Part(("--measure", json.dumps(payload)), (field,), True)]


def spec_part(text, bad):
    return Part(("--spec", "{dir}/spec.json"), ("--spec", "{dir}/spec.json"), bad, (("spec.json", text),))


def poisson_sum_case():
    p = st.one_of(
        st.lists(floats(0.0, 1.0), min_size=1, max_size=40).map(lambda ps: flag("--p", ",".join(ps))),
        st.sampled_from(["abc", "1.5", "-0.1", "", "0,0", "0.2,,0.3", "nan"]).map(lambda v: flag("--p", v, True)),
    )
    spec_good = json.dumps({"p": [0.3, 0.2], "independent": True})
    spec = st.sampled_from([
        (spec_good, False), ("{", True), ('{"p": []}', True), ("[1]", True),
        (json.dumps({"p": [0.3, 0.2], "independent": True, "conditional_sums": [[0, 1], [1, 0]]}), True),
        *((text, True) for text in NAN_SPECS),
    ]).map(lambda s: spec_part(*s))
    missing = st.just(Part(("--spec", "{dir}/none.json"), ("--spec",), True))
    return st.tuples(st.one_of(p, spec, missing), common()).map(lambda t: ["poisson-sum", t[0], *t[1]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(parts, directory):
    argv = []
    for part in parts:
        if isinstance(part, str):
            argv.append(part)
            continue
        for name, text in part.files:
            (directory / name).write_text(text)
        argv += [token.replace("{dir}", str(directory)) for token in part.tokens]
    return argv


def names(parts, directory):
    return [name.replace("{dir}", str(directory)) for part in parts if not isinstance(part, str)
            for name in part.names if name]


@settings(max_examples=160, deadline=None, derandomize=True)
@example(parts=["poisson-sum", spec_part(NAN_SPECS[0], True)])
@example(parts=["poisson-sum", spec_part(NAN_SPECS[1], True)])
@example(parts=["poisson-sum", spec_part(OVERFLOW_SPECS[0], True)])
@example(parts=["poisson-sum", spec_part(OVERFLOW_SPECS[1], True)])
@example(parts=nonfinite_measure(0))
@example(parts=nonfinite_measure(1))
@example(parts=nonfinite_measure(2))
@example(parts=nonfinite_measure(3))
@example(parts=nonfinite_measure(4))
@example(parts=nonfinite_measure(5))
@example(parts=nonfinite_measure(6))
@example(parts=nonfinite_measure(7))
@example(parts=nonfinite_measure(8))
@example(parts=nonfinite_measure(9))
@example(parts=nonfinite_measure(10))
@example(parts=nonfinite_measure(11))
@given(parts=st.one_of(solve_case(), bounds_case(), compare_case(), lattice_case(), poisson_sum_case()))
def test_fuzzed_command_lines_exit_zero_or_two_naming_the_fault(parts, tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    code, out, err = run(render(parts, directory))
    assert code in (0, 2), (parts, code, err)
    assert "Traceback" not in err, err
    if code == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE), (parts, out)
        return
    assert any(name in err for name in names(parts, directory)), (parts, err)
    bad = [part for part in parts if not isinstance(part, str) and part.bad]
    if bad and run(render([part for part in parts if part not in bad], directory))[0] == 0:
        assert any(name in err for name in names(bad, directory)), (parts, err)
