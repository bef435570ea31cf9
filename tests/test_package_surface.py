"""The package's layout rules, read from its source.

The reference forms in `gibbs_stein.oracle` check the fast paths, so the
oracle must neither import nor call them, and no library module but
`verify` may lean on the oracle.  The package itself exports exactly the
names that README's quickstart and the benchmark reach, the family
constructors and the lattice-model factories; everything else is reached
through its submodule.
"""

import ast
import inspect
import re
from pathlib import Path

import gibbs_stein as gs
from gibbs_stein import cli
from gibbs_stein.measures import BUILTIN_KINDS, FAMILIES
from test_bench_imports import BENCH, attribute_chains

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gibbs_stein"
FAST_PATHS = {
    "_fsum", "_fsum_rows", "_compensated_cumsum", "_products_over", "sup_solution_table",
    "sup_increment_table", "_pair_terms", "_leave_one_out_laws", "monotone_pairs",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> list[str]:
    """Every name an import statement in the tree binds or reads from, dotted."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return names


def test_only_verify_imports_the_oracle():
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if any("oracle" in name.split(".") for name in _imported(_tree(path)))]
    assert importers == ["verify.py"]


def test_the_oracle_neither_imports_nor_calls_the_fast_paths():
    defined = {node.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path))
               if isinstance(node, ast.FunctionDef)}
    assert FAST_PATHS <= defined  # a renamed fast path must be renamed here too
    tree = _tree(SRC / "oracle.py")
    reached = {name.rsplit(".", 1)[-1] for name in _imported(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reached.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
    assert reached & FAST_PATHS == set()


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library quickstart\s+```python\n(.*?)```", readme, re.S).group(1)


def test_package_exports_what_its_callers_reach():
    reached = set()
    for source in (_quickstart(), (BENCH / "workloads.py").read_text(), (BENCH / "selftest.py").read_text()):
        reached |= {names[0] for root, *names in attribute_chains(source) if root == "gs" and names}
    reached |= {f"{model}_model" for model in cli._MODELS}
    reached |= {FAMILIES[kind].build.__name__ for kind in BUILTIN_KINDS} | {"from_pmf", "__version__"}
    assert sorted(gs.__all__) == sorted(reached)
    public = {name for name, value in vars(gs).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(gs.__all__) - {"__version__"}
