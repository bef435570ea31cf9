"""The pinned command-line corpora under tests/data, and a tool that rebuilds and diffs them.

Each corpus maps a key to the output of one command line, and `command`
gives that command line: the five `<name>_outputs.json` files pin the
report commands, and `verify_seed<seed>.txt` the stdout of
`verify --seed <seed>`.  The pinned-text tests in test_cli.py read their
command lines from here, so a key means one command line everywhere.

    python tests/corpora.py --write   rebuild every corpus from the package in src/
    python tests/corpora.py --diff    for each entry whose output moved, print its key
                                      and changed lines, and each moved number's field
                                      and ulp distance; exit 1 if any moved

An entry is the stdout of a call that exits 0 with nothing on stderr, or
an object with "stdout" and the "exit" and "stderr" it pins; a poisson-sum
entry also carries the spec its call reads from a file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import difflib
import functools
import io
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
sys.path.insert(0, str(TESTS.parent / "src"))

from gibbs_stein import cli  # noqa: E402

NAMES = ("compare", "lattice", "poisson_sum", "bounds", "solve", "verify")
VERIFY_SEEDS = ("42", "7", "1")


@functools.cache
def _compare_pairs() -> dict:
    """The pairs of "<pair>|<format>": equal supports and both nestings; the large
    pairs reach the extended branch and the restricted test class at N = 680."""
    restricted = json.dumps(cli.parse_measure("poisson:500").restricted(560).to_dict())
    return {
        "equal": ("binomial:10,0.3", "binomial:10,0.32"),
        "m1_inside_m2": ("binomial:8,0.3", "binomial:12,0.2"),
        "m2_inside_m1": ("binomial:12,0.2", "binomial:8,0.3"),
        "large_equal": ("poisson:500", "poisson:505"),
        "large_restricted": ("poisson:500", restricted),
    }


# "<model>|<format>" runs the cell counts below and "<model>|<n>|<format>" others: product
# 81..87 runs up to the model's underflow ceiling, and product 88, whose lattice weight
# underflows, pins exit 2 and the error text
_LATTICE_ACTIVITIES = {"repelling": "1", "product": "1", "ideal_gas": "2"}
_LATTICE_CELLS = "3,4,5,6,7,8,10,12,20,40,80"


def command(name: str, key: str, entry, directory: Path | None) -> list[str]:
    """The command line of corpus `name`'s entry `key`; a poisson-sum spec is written under `directory`.

    bounds keys are "<measure>|<ladder>" for CSV and "<measure>|<ladder>|json" for JSON,
    the ladder "default" giving no --j; solve keys are "<measure>|<f>|<format>";
    poisson-sum keys are "<spec>|<format>"; verify keys are seeds.
    """
    fields = key.split("|")
    if name == "compare":
        m1, m2 = _compare_pairs()[fields[0]]
        return ["compare", "--m1", m1, "--m2", m2, "--format", fields[1]]
    if name == "lattice":
        model, *cells, fmt = fields
        return ["lattice", "--model", model, "--lambda", _LATTICE_ACTIVITIES[model],
                "--n", cells[0] if cells else _LATTICE_CELLS, "--format", fmt]
    if name == "poisson_sum":
        spec = directory / "spec.json"
        spec.write_text(json.dumps(entry["spec"]))
        return ["poisson-sum", "--spec", str(spec), "--format", fields[1]]
    if name == "bounds":
        desc, ladder, *fmt = fields
        argv = ["bounds", "--measure", desc] + ([] if ladder == "default" else ["--j", ladder])
        return argv + ["--format", *fmt] if fmt else argv
    if name == "solve":
        desc, f, fmt = fields
        return ["solve", "--measure", desc, "--f", f, "--format", fmt]
    if name == "verify":
        return ["verify", "--seed", key]
    raise ValueError(f"no corpus {name!r}")


def _verify_path(seed: str) -> Path:
    return DATA / f"verify_seed{seed}.txt"


def load(name: str) -> dict:
    """Corpus `name` as pinned: key -> entry, in file order."""
    if name == "verify":
        return {seed: _verify_path(seed).read_bytes().decode() for seed in VERIFY_SEEDS}
    return json.loads((DATA / f"{name}_outputs.json").read_text())


def store(name: str, corpus: dict) -> None:
    if name == "verify":
        for seed, text in corpus.items():
            _verify_path(seed).write_bytes(text.encode())
    else:
        (DATA / f"{name}_outputs.json").write_text(json.dumps(corpus, indent=1) + "\n")


def pinned(entry) -> tuple:
    """(exit, stdout, stderr) an entry pins, None where it pins nothing."""
    if isinstance(entry, str):
        return 0, entry, ""
    return entry.get("exit", 0), entry["stdout"], entry.get("stderr")


def record(name: str, entry, code: int, out: str, err: str):
    """The entry pinning (code, out, err), in the shape of the pinned `entry`."""
    if name == "verify":
        return out
    if isinstance(entry, str):
        return out if (code, err) == (0, "") else {"exit": code, "stdout": out, "stderr": err}
    fields = {**entry, "stdout": out}
    if "exit" in entry or code != 0:
        fields["exit"] = code
    if "stderr" in entry or err:
        fields["stderr"] = err
    return fields


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report_fields(text: str) -> dict:
    """Each value of a CSV or JSON report by its field: meta keys, and rows[i].<column>."""
    if text.startswith("{"):
        payload = json.loads(text)
        rows = payload.pop("rows", [])
        fields = dict(payload)
    else:
        lines = text.splitlines()
        fields = dict(line[2:].partition("=")[::2] for line in lines if line.startswith("# "))
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    for i, row in enumerate(rows):
        fields.update({f"rows[{i}].{column}": value for column, value in row.items()})
    return fields


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def ulps(a: float, b: float) -> int:
    """How many doubles lie from a to b, counting +0 and -0 as one."""

    def ordinal(x: float) -> int:
        (bits,) = struct.unpack("<q", struct.pack("<d", abs(x)))
        return -bits if math.copysign(1.0, x) < 0 else bits

    return abs(ordinal(a) - ordinal(b))


def moved(name: str, old: tuple, new: tuple) -> list[tuple[str, str]]:
    """What moved from the pinned (exit, stdout, stderr) to the new one, as (kind, line) pairs.

    kind is "exit", "-" or "+" for a removed or added line of stdout or
    stderr, or "number" for a moved number of a report, named by its field.
    """
    changes = []
    if old[0] != new[0]:
        changes.append(("exit", f"exit: {old[0]} -> {new[0]}"))
    for stream, before, after in zip(("stdout", "stderr"), old[1:], new[1:]):
        if before is None or before == after:
            continue
        # past the two file headers, each line is a hunk header or a removed or added line
        for line in list(difflib.unified_diff(before.splitlines(), after.splitlines(), lineterm="", n=0))[2:]:
            if line[:1] in "+-":
                changes.append((line[0], f"{stream} {line}"))
    if name != "verify" and old[1] != new[1]:
        try:
            before, after = _report_fields(old[1]), _report_fields(new[1])
        except ValueError:  # a stdout that is no report
            before = after = {}
        for field in sorted(before.keys() & after.keys()):
            a, b = _number(before[field]), _number(after[field])
            if a is not None and b is not None and a.hex() != b.hex():
                distance = "not a number" if math.isnan(a) or math.isnan(b) else f"{ulps(a, b)} ulp"
                changes.append(("number", f"{field}: {a!r} -> {b!r} ({distance})"))
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="rebuild every corpus from src/")
    action.add_argument("--diff", action="store_true", help="name what moved against the pinned corpora")
    args = parser.parse_args(argv)
    entries, moved_entries, tally = 0, 0, collections.Counter()
    with tempfile.TemporaryDirectory() as directory:
        for name in NAMES:
            corpus = load(name)
            for key, entry in corpus.items():
                code, out, err = run(command(name, key, entry, Path(directory)))
                if args.write:
                    corpus[key] = record(name, entry, code, out, err)
                    continue
                entries += 1
                changes = moved(name, pinned(entry), (code, out, err))
                if changes:
                    moved_entries += 1
                    tally.update(kind for kind, _ in changes)
                    print(f"{name} {key}", *(f"  {line}" for _, line in changes), sep="\n")
            if args.write:
                store(name, corpus)
    if args.write:
        return 0
    print(f"{moved_entries} of {entries} entries moved: {tally['-']} lines removed, {tally['+']} added, "
          f"{tally['number']} numbers moved, {tally['exit']} exit statuses changed")
    return 1 if moved_entries else 0


if __name__ == "__main__":
    sys.exit(main())
