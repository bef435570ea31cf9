"""Command-line surface.

Subcommands:

  solve        emit the Stein-equation solution table (j, g, dg) for a
               measure and a test function
  bounds       emit bound certificates for a measure
  compare      certified TV comparison of two measures
  lattice      lattice-vs-limit reports across a range of cell counts
  poisson-sum  Poisson approximation bounds for a Bernoulli-sum coupling
  verify       run the seeded invariant battery

Measure descriptors are either `kind:param1,param2,...` for the built-in
families (listed by --help, e.g. poisson:1.0 or binomial:10,0.3), a path to a
JSON measure file, or inline JSON.  Test functions are
`indicator:0,1,2`, `constant:0.5`, a JSON array, or a path to one.

Every report records the seed it was produced with, and every emitted
float round-trips exactly.  CSV writes floats with 17 significant digits
and non-finite ones as inf/-inf.  JSON has the layout of
`json.dumps(report, indent=2)`, with keys in emission order: floats in
Python's shortest round-trip repr, non-finite ones as Infinity, -Infinity
and NaN, and `solve`'s `mu_f` as a 17-digit string.
A JSON config file given via --config overrides same-named flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import compare as compare_mod
from . import factors, lattice, measures, stein
from .size_bias import CouplingSpec
from .verify import run_verification

_FMT = "{:.17g}"

# lattice model constructors by --model name, each called with the activity
_MODELS = {
    "repelling": lattice.repelling_model,
    "product": lattice.product_model,
    "ideal_gas": lattice.ideal_gas_model,
}


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return _FMT.format(value)
    return str(value)


# Flat reports go through the C encoder, which writes no raw newline inside a
# string: with this item separator every newline it writes lies between items.
_FLAT_ENCODER = json.JSONEncoder(separators=(",\n", ": "), default=_render)


def _indented_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2, default=_render)`, through the C encoder where it can.

    A report whose last entry, "rows", is a nonempty list of nonempty dicts
    is encoded once without indent.  If its text then holds no bracket but
    the payload's brace, the rows' "[" and one brace per row, every row and
    meta value is a scalar and no string holds a bracket, so a few replaces
    lay out the indented text.  Anything else goes to the stdlib's
    pure-Python indenting encoder.
    """
    rows = payload.get("rows")
    if (type(rows) is list and rows and next(reversed(payload)) == "rows"
            and all(type(row) is dict and row for row in rows)):
        text = _FLAT_ENCODER.encode(payload)
        if text.count("{") + text.count("[") == 2 + len(rows):
            head, _, body = text.partition("[")
            # body is '{row},\n{row}...}]}'; its only braces are the rows' own
            inner = body[1:-3].replace("\n", "\n      ").replace("},\n      {", "\n    },\n    {\n      ")
            return "{\n  " + head[1:].replace("\n", "\n  ") + "[\n    {\n      " + inner + "\n    }\n  ]\n}"
    return json.dumps(payload, indent=2, default=_render)


class CliError(Exception):
    """Input that failed to parse; exits with status 2."""


@contextlib.contextmanager
def _blame(flag: str):
    """Report a bad input met inside the block as the fault of `flag`."""
    try:
        yield
    except (CliError, ValueError) as exc:
        raise CliError(f"argument {flag}: {exc}") from exc


_MEASURE_HELP = "a JSON measure file, inline JSON, or kind:params, one of " + ", ".join(
    [f"{kind}:{','.join(name for name, _ in measures.FAMILIES[kind].args)}" for kind in measures.BUILTIN_KINDS]
    + ["pmf:w0,w1,..."]
)


def parse_measure(desc: str, truncation: int | None = None, tail_tol: float = measures.DEFAULT_TAIL_TOL):
    desc = desc.strip()
    try:
        if desc.startswith("{"):
            return measures.GibbsMeasure.from_dict(json.loads(desc))
        if os.path.exists(desc):
            with open(desc) as handle:
                return measures.GibbsMeasure.from_dict(json.load(handle))
        if ":" not in desc:
            raise CliError(f"cannot parse measure descriptor {desc!r}")
        kind, _, arg_text = desc.partition(":")
        args = [float(a) for a in arg_text.split(",") if a != ""]
        if kind == "pmf":
            return measures.from_pmf(np.asarray(args))
        return measures.builtin(kind, *args, truncation=truncation, tail_tol=tail_tol)
    except CliError:
        raise
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"measure descriptor {desc!r}: {exc}") from exc


def parse_test_function(desc: str, size: int) -> np.ndarray:
    desc = desc.strip()
    try:
        if desc.startswith("["):
            return stein.TestFunction(json.loads(desc)).values
        if os.path.exists(desc):
            with open(desc) as handle:
                return stein.TestFunction(json.load(handle)).values
        kind, _, arg_text = desc.partition(":")
        if kind == "indicator":
            points = [int(a) for a in arg_text.split(",") if a != ""]
            return stein.TestFunction.indicator(points, size).values
        if kind == "constant":
            return stein.TestFunction.constant(float(arg_text), size).values
        raise CliError(f"cannot parse test function {desc!r}")
    except CliError:
        raise
    except (ValueError, TypeError) as exc:  # TypeError: a JSON entry that is no number
        raise CliError(f"test function {desc!r}: {exc}") from exc


# argparse types: a bad value exits 2 with "argument --flag: <message>"

def parse_range(text: str) -> list[int]:
    """Integers given as 3,5,8 or as the inclusive range 2..6, at least one."""
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            if hi - lo >= measures._MAX_TERMS:
                raise argparse.ArgumentTypeError(
                    f"a range holds at most {measures._MAX_TERMS} integers, got {text!r}"
                )
            values = list(range(lo, hi + 1))
        else:
            values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers such as 3,5,8 or 2..6, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _cell_counts(text: str) -> list[int]:
    counts = parse_range(text)
    if min(counts, default=1) < 1:
        raise argparse.ArgumentTypeError(f"cell counts must be positive, got {text!r}")
    return counts


def _positive_below(limit: float, what: str):
    """A float type for values in (0, limit)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not 0.0 < value < limit:
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    return parse


_activity = _positive_below(math.inf, "activity must be positive and finite")
_tail_tol = _positive_below(1.0, "tail tolerance must lie strictly between 0 and 1")


def _truncation(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"truncation bound must be nonnegative, got {text!r}")
    return value


def _emit(rows: list[dict], header: list[str], args, extra_meta: dict | None = None):
    meta = {"seed": args.seed}
    meta.update(extra_meta or {})
    if args.format == "json":
        payload = {**meta, "rows": rows}
        text = _indented_json(payload)
    else:
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(row.get(col)) for col in header])
        text = buf.getvalue()
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"argument --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _measure(args, flag: str):
    with _blame(f"--{flag}"):
        return parse_measure(getattr(args, flag), args.truncation, args.tail_tol)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    m = _measure(args, "measure")
    with _blame("--f"):
        f = parse_test_function(args.f, m.support_max + 1)
        sol = stein.solve(m, f)
    g, dg = sol.g.tolist(), sol.delta().tolist() + [None]  # g(N+1) has no increment
    rows = [{"j": j, "g": g_j, "dg": dg_j} for j, (g_j, dg_j) in enumerate(zip(g, dg))]
    _emit(rows, ["j", "g", "dg"], args, {"measure": m.label(), "mu_f": _render(sol.mu_f)})
    return 0


def cmd_bounds(args) -> int:
    m = _measure(args, "measure")
    ladder = args.j or [j for j in (1, 2, 3, 5) if j <= m.support_max]
    with _blame("--j"):
        certs = factors.bound_certificates(m, ladder)
    rows = [cert.to_row() for cert in certs]
    header = ["quantity", "j", "value", "formula", "exactness", "licensed", "conditions", "notes"]
    _emit(rows, header, args, {"measure": m.label()})
    return 0


def cmd_compare(args) -> int:
    m1, m2 = _measure(args, "m1"), _measure(args, "m2")
    source, values = args.g_norm, None
    with _blame("--g-norm"):
        if source.startswith("value:"):
            parts = source.split(":", 1)[1].split(",")
            if len(parts) != 2:
                raise CliError(f"{source!r}: value:X,Y takes two norm bounds")
            values = (float(parts[0]), float(parts[1]))
            if not min(values) >= 0.0:
                raise CliError(f"{source!r}: norm bounds must be nonnegative")
            source = "user"
        elif source not in ("exact", "rate_spread"):
            raise CliError(f"expected exact, rate_spread or value:X,Y, got {source!r}")
        row = compare_mod.generator_comparison(m1, m2, source, values).to_dict()
    header = [
        "m1", "m2", "exact_tv", "certified_bound", "bound_value",
        "branch_used", "tail_term", "g_norm_source", "notes",
    ]
    _emit([row], header, args)
    return 0


def cmd_lattice(args) -> int:
    model = _MODELS[args.model](args.lam)
    # the limit law depends on the activity and truncation alone, the lattice law on n
    with _blame("--lambda" if args.truncation is None else "--truncation"):
        limit = lattice.limit_measure(model, truncation=args.truncation, tail_tol=args.tail_tol)
    rows = []
    for n in args.n:
        try:
            rep = lattice.lattice_comparison_report(model, n, g_norm_source=args.g_norm, limit=limit)
        except ValueError as exc:
            raise CliError(f"argument --n: {n} cells: {exc}") from exc
        rows.append(rep.to_dict())
    header = [
        "n", "exact_tv", "generator_bound", "closed_form",
        "omega_term", "ratio_term", "tail_term", "branch_used", "notes",
    ]
    _emit(rows, header, args, {"model": model.kind, "activity": _render(model.z)})
    return 0


def cmd_poisson_sum(args) -> int:
    flag = "--spec" if args.spec else "--p"
    with _blame(flag):
        try:
            if args.spec:
                with open(args.spec) as handle:
                    spec = CouplingSpec.from_dict(json.load(handle))
            elif args.p:
                spec = CouplingSpec.independent_bernoulli([float(x) for x in args.p.split(",")])
            else:
                raise CliError("poisson-sum needs --p or --spec")
        except (json.JSONDecodeError, OSError) as exc:
            raise CliError(f"coupling specification: {exc}") from exc
    # an explicit truncation is kept as given; otherwise the sum's own size sets it
    with _blame(flag if args.truncation is None else "--truncation"):
        rep = lattice.poisson_sum_bounds(spec, truncation=args.truncation, tail_tol=args.tail_tol)
    header = [
        "lam", "exact_tv", "harmonic_coupling_bound", "linear_coupling_bound",
        "independent_bound", "improved_bound", "pointwise_bound",
    ]
    _emit([rep.to_dict()], header, args)
    return 0


def cmd_verify(args) -> int:
    return run_verification(args.seed, strict=args.strict)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    parser.add_argument("--truncation", type=_truncation, default=None,
                        help="explicit truncation bound for infinite-support laws")
    parser.add_argument("--tail-tol", dest="tail_tol", type=_tail_tol, default=measures.DEFAULT_TAIL_TOL,
                        help="tail mass tolerance for automatic truncation")
    parser.add_argument("--config", default=None,
                        help="JSON file whose entries override same-named flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbs-stein",
        description="Gibbs measures, Stein equations, and certified TV bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solution table for a measure and test function")
    p.add_argument("--measure", required=True, help=_MEASURE_HELP)
    p.add_argument("--f", required=True, help="test function descriptor")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bounds", help="bound certificates for a measure")
    p.add_argument("--measure", required=True, help=_MEASURE_HELP)
    p.add_argument("--j", type=parse_range, default=None, help="indices, e.g. 1,2,5 or 1..10")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("compare", help="certified TV comparison of two measures")
    p.add_argument("--m1", required=True, help=_MEASURE_HELP)
    p.add_argument("--m2", required=True, help=_MEASURE_HELP)
    p.add_argument("--g-norm", dest="g_norm", default="exact",
                   help="exact | rate_spread | value:X,Y")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("lattice", help="lattice-vs-limit reports over a range of n")
    p.add_argument("--model", required=True, choices=_MODELS)
    p.add_argument("--lambda", dest="lam", type=_activity, default=1.0,
                   help="activity (z) of the model")
    p.add_argument("--n", type=_cell_counts, required=True,
                   help="cell counts, e.g. 2..6 or 3,5,8")
    p.add_argument("--g-norm", dest="g_norm", default="exact",
                   choices=("exact", "rate_spread"))
    _add_common(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("poisson-sum", help="Poisson approximation for a Bernoulli sum")
    p.add_argument("--p", default=None, help="comma-separated Bernoulli means")
    p.add_argument("--spec", default=None, help="coupling spec JSON file")
    _add_common(p)
    p.set_defaults(fn=cmd_poisson_sum)

    p = sub.add_parser("verify", help="run the seeded invariant battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--strict", action="store_true",
                   help="count documented-defect checks as failures")
    p.set_defaults(fn=cmd_verify)
    return parser


# config keys that differ from their flag's name
_CONFIG_ALIASES = {
    "lam": "lambda",
    "z": "lambda",
    "truncation_tolerance": "tail_tol",
}


def _config_argv(path: str) -> list[str]:
    """A --config file's entries as flags, so that the parser converts and checks them.

    An entry set to `false` or `null` is an error: it would name no value.
    """
    try:
        with open(path) as handle:
            overrides = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"config file {path!r}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise CliError(f"config file {path!r}: expected a JSON object")
    unset = [key for key, value in overrides.items() if value is False or value is None]
    if unset:
        raise CliError(
            f"config file {path!r}: {', '.join(map(repr, unset))} set to false or null; "
            "give a value or leave the entry out"
        )
    argv = []
    for key, value in overrides.items():
        key = key.replace("-", "_")
        argv.append(f"--{_CONFIG_ALIASES.get(key, key).replace('_', '-')}={value}")
    return argv


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # flags given later win, so the config overrides the command line
            args = parser.parse_args([*argv, *_config_argv(args.config)])
        return args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
