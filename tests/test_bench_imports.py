"""The benchmark's scripts call the library by name; every such name must resolve.

`bench/workloads.py` and `bench/selftest.py` are read, not imported: each
attribute chain rooted at `gs`, `cli` or `compare` (the names they bind to
the package, `gibbs_stein.cli` and `gibbs_stein.compare`) is looked up in the
library.  Dropping an export the benchmark uses then fails here, in the test
suite, rather than in every benchmark run.
"""

import ast
from pathlib import Path

import pytest

import gibbs_stein as gs
from gibbs_stein import cli, compare

BENCH = Path(__file__).resolve().parents[1] / "bench"
ROOTS = {"gs": gs, "cli": cli, "compare": compare}


def attribute_chains(source: str) -> set[tuple[str, ...]]:
    """Every outermost attribute chain in the Python source whose root is one of ROOTS, as names."""
    chains, inner = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names, part = [], node
        while isinstance(part, ast.Attribute):
            names.append(part.attr)
            inner.add(id(part.value))
            part = part.value
        if isinstance(part, ast.Name) and part.id in ROOTS:
            chains.add((part.id, *reversed(names)))
    return chains


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_bench_library_names_resolve(script):
    chains = attribute_chains((BENCH / script).read_text())
    assert chains, script
    missing = []
    for root, *names in sorted(chains):
        obj = ROOTS[root]
        for depth, name in enumerate(names):
            if not hasattr(obj, name):
                missing.append(".".join([root, *names[: depth + 1]]))
                break
            obj = getattr(obj, name)
    assert not missing, f"{script} uses names the library does not define: {missing}"


def test_bench_reaches_the_lattice_models_by_name():
    # workloads.py builds each lattice model as getattr(gs, f"{--model}_model")
    for model in cli._MODELS:
        assert callable(getattr(gs, f"{model}_model", None)), model

