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
families (poisson:1.0, binomial:10,0.3, geometric:0.5,
negative_binomial:2,0.4, hypergeometric:20,5,6, discrete_uniform:3), a path
to a JSON measure file, or inline JSON.  Test functions are
`indicator:0,1,2`, `constant:0.5`, a JSON array, or a path to one.

Floats are rendered with 17 significant digits so that emitted values
round-trip exactly; every report records the seed it was produced with.
A JSON config file given via --config overrides same-named flags.
"""

from __future__ import annotations

import argparse
import csv
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


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return _FMT.format(value)
    return str(value)


class CliError(Exception):
    """Input that failed to parse; exits with status 2."""


def parse_measure(desc: str, truncation: int | None = None, tail_tol: float = 1e-14):
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
            return np.asarray(json.loads(desc), dtype=float)
        if os.path.exists(desc):
            with open(desc) as handle:
                return np.asarray(json.load(handle), dtype=float)
        kind, _, arg_text = desc.partition(":")
        if kind == "indicator":
            points = [int(a) for a in arg_text.split(",") if a != ""]
            return stein.TestFunction.indicator(points, size).values
        if kind == "constant":
            return stein.TestFunction.constant(float(arg_text), size).values
        raise CliError(f"cannot parse test function {desc!r}")
    except CliError:
        raise
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"test function {desc!r}: {exc}") from exc


def parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part != ""]


def _emit(rows: list[dict], header: list[str], args, extra_meta: dict | None = None):
    meta = {"seed": args.seed}
    meta.update(extra_meta or {})
    if args.format == "json":
        payload = {**meta, "rows": rows}
        text = json.dumps(payload, indent=2, default=_render)
    else:
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(row.get(col)) for col in header])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _conditions_text(cert: factors.BoundCertificate) -> str:
    return ";".join(f"{c.name}={'T' if c.holds else 'F'}" for c in cert.conditions)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    m = parse_measure(args.measure, args.truncation, args.tail_tol)
    f = parse_test_function(args.f, m.support_max + 1)
    sol = stein.solve(m, f)
    delta = sol.delta()
    rows = [
        {"j": j, "g": float(sol.g[j]), "dg": float(delta[j]) if j < delta.size else None}
        for j in range(m.support_max + 2)
    ]
    _emit(rows, ["j", "g", "dg"], args, {"measure": m.label(), "mu_f": _render(sol.mu_f)})
    return 0


def cmd_bounds(args) -> int:
    m = parse_measure(args.measure, args.truncation, args.tail_tol)
    ladder = parse_range(args.j) if args.j else [j for j in (1, 2, 3, 5) if j <= m.support_max]
    certs: list[factors.BoundCertificate] = [factors.supnorm_bound(m)]
    try:
        certs.extend(factors.closed_form_bounds(m))
    except ValueError:
        pass
    exact_rows = [
        {
            "quantity": "solution_norm",
            "j": None,
            "value": stein.sup_solution_norm(m),
            "formula": "exact_supremum",
            "exactness": "exact_equality",
            "licensed": True,
            "conditions": "",
            "notes": "",
        }
    ]
    for j in ladder:
        exact, simple = factors.increment_bound(m, j)
        certs.extend([exact, simple, factors.solution_bound(m, j)])
        try:
            # the uniform certificates were added once above
            certs.extend(c for c in factors.closed_form_bounds(m, j=j) if c.j is not None)
        except ValueError:
            pass
        exact_rows.append(
            {
                "quantity": "increment_at_j",
                "j": j,
                "value": stein.sup_increment_exact(m, j),
                "formula": "exact_supremum",
                "exactness": "exact_equality",
                "licensed": True,
                "conditions": "",
                "notes": "",
            }
        )
    rows = []
    for cert in certs:
        row = cert.to_dict()
        row["conditions"] = _conditions_text(cert)
        rows.append(row)
    rows.extend(exact_rows)
    header = ["quantity", "j", "value", "formula", "exactness", "licensed", "conditions", "notes"]
    _emit(rows, header, args, {"measure": m.label()})
    return 0


def cmd_compare(args) -> int:
    m1 = parse_measure(args.m1, args.truncation, args.tail_tol)
    m2 = parse_measure(args.m2, args.truncation, args.tail_tol)
    source, values = args.g_norm, None
    if source.startswith("value:"):
        parts = source.split(":", 1)[1].split(",")
        values = (float(parts[0]), float(parts[1]))
        source = "user"
    if m1.support_max == m2.support_max:
        rep = compare_mod.generator_comparison_bound(m1, m2, source, values)
    elif m1.support_max < m2.support_max:
        rep = compare_mod.generator_comparison_extended(m1, m2, source, values)
    else:
        rep = compare_mod.generator_comparison_extended(m2, m1, source, values)
    row = rep.to_dict()
    header = [
        "m1", "m2", "exact_tv", "certified_bound", "bound_value",
        "branch_used", "tail_term", "g_norm_source", "notes",
    ]
    _emit([row], header, args)
    return 0


def cmd_lattice(args) -> int:
    model = _build_model(args.model, args.lam)
    rows = []
    for n in parse_range(args.n):
        rep = lattice.lattice_comparison_report(
            model,
            n,
            truncation=args.truncation,
            tail_tol=args.tail_tol,
            g_norm_source=args.g_norm,
            per_branch_norms=args.per_branch_norms,
        )
        rows.append(rep.to_dict())
    header = [
        "n", "exact_tv", "generator_bound", "closed_form",
        "omega_term", "ratio_term", "tail_term", "branch_used", "notes",
    ]
    _emit(rows, header, args, {"model": model.kind, "activity": _render(model.z)})
    return 0


def _build_model(name: str, lam: float) -> lattice.InteractionModel:
    if name == "repelling":
        return lattice.repelling_model(lam)
    if name == "product":
        return lattice.product_model(lam)
    if name == "ideal_gas":
        return lattice.ideal_gas_model(lam)
    raise CliError(f"unknown model {name!r}; expected repelling, product, or ideal_gas")


def cmd_poisson_sum(args) -> int:
    try:
        if args.spec:
            with open(args.spec) as handle:
                spec = CouplingSpec.from_dict(json.load(handle))
        elif args.p:
            spec = CouplingSpec.independent_bernoulli([float(x) for x in args.p.split(",")])
        else:
            raise CliError("poisson-sum needs --p or --spec")
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        raise CliError(f"coupling specification: {exc}") from exc
    rep = lattice.poisson_sum_bounds(spec, truncation=args.truncation, tail_tol=args.tail_tol)
    header = [
        "lam", "exact_tv", "harmonic_coupling_bound", "linear_coupling_bound",
        "independent_bound", "improved_bound",
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
    parser.add_argument("--truncation", type=int, default=None,
                        help="explicit truncation bound for infinite-support laws")
    parser.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-14,
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
    p.add_argument("--measure", required=True)
    p.add_argument("--f", required=True, help="test function descriptor")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bounds", help="bound certificates for a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--j", default=None, help="indices, e.g. 1,2,5 or 1..10")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("compare", help="certified TV comparison of two measures")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--g-norm", dest="g_norm", default="exact",
                   help="exact | rate_spread | value:X,Y")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("lattice", help="lattice-vs-limit reports over a range of n")
    p.add_argument("--model", required=True, choices=("repelling", "product", "ideal_gas"))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="activity (z) of the model")
    p.add_argument("--n", required=True, help="cell counts, e.g. 2..6 or 3,5,8")
    p.add_argument("--g-norm", dest="g_norm", default="exact",
                   choices=("exact", "rate_spread"))
    p.add_argument("--per-branch-norms", action="store_true",
                   help="attach each solution norm to its own branch (tighter)")
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


_CONFIG_ALIASES = {
    "lambda": "lam",
    "z": "lam",
    "truncation_tolerance": "tail_tol",
}


def _apply_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                overrides = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config file {args.config!r}: {exc}") from exc
        for key, value in overrides.items():
            key = key.replace("-", "_")
            setattr(args, _CONFIG_ALIASES.get(key, key), value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
