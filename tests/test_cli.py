import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_stein
from gibbs_stein.cli import _indented_json, _render, main, parse_measure, parse_range, parse_test_function


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_measure_descriptors(tmp_path):
    m = parse_measure("poisson:2.0", truncation=20)
    assert m.kind == "poisson" and m.support_max == 20
    m = parse_measure("binomial:10,0.3")
    assert m.support_max == 10
    m = parse_measure("pmf:1,1,0.5")
    assert m.pmf[2] == pytest.approx(0.2)
    path = tmp_path / "measure.json"
    path.write_text(parse_measure("geometric:0.5", truncation=12).to_json())
    again = parse_measure(str(path))
    assert again.kind == "geometric" and again.support_max == 12


def test_parse_helpers():
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("1,4,9") == [1, 4, 9]
    assert len(parse_range("1..1048576")) == 2**20
    with pytest.raises(argparse.ArgumentTypeError, match="at most 1048576 integers"):
        parse_range("0..1048576")  # refused before the list is built
    f = parse_test_function("indicator:0,2", 4)
    assert f.tolist() == [1.0, 0.0, 1.0, 0.0]
    f = parse_test_function("constant:0.5", 3)
    assert f.tolist() == [0.5, 0.5, 0.5]
    f = parse_test_function("[0.1, 0.9]", 2)
    assert f.tolist() == [0.1, 0.9]


def test_solve_csv_roundtrips_17_digits(capsys):
    code, out, _ = run_cli(
        ["solve", "--measure", "poisson:1.0", "--f", "indicator:0", "--truncation", "15"],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "j,g,dg"
    g1 = float(lines[2].split(",")[1])
    # the rendered decimal parses back to the same double the library holds
    import gibbs_stein as gs

    sol = gs.solve(gs.poisson(1.0, truncation=15), gs.TestFunction.indicator([0], 16))
    assert g1 == sol.g[1]


def test_identical_seeds_give_identical_bytes(capsys):
    args = ["lattice", "--model", "product", "--lambda", "1.0", "--n", "3..5", "--seed", "7"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert "# seed=7" in out1


def test_bounds_rows_carry_condition_flags(capsys):
    code, out, _ = run_cli(["bounds", "--measure", "geometric:0.5", "--j", "1,2"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[2].split(",")
    assert "conditions" in header and "licensed" in header
    idx_formula = header.index("formula")
    idx_cond = header.index("conditions")
    for line in lines[3:]:
        cells = line.split(",")
        if cells[idx_formula] in ("increment_exact_form", "increment_rate_reciprocal"):
            assert "rate_sandwich=" in cells[idx_cond]
    assert any("geometric_norm" in line and ",2," in line for line in lines)
    # uniform certificates do not depend on j and appear once per report
    for measure, uniform in (("geometric:0.5", ("norm_rate_spread", "geometric_increment",
                                                "geometric_norm")),
                             ("poisson:1", ("norm_rate_spread", "poisson_increment"))):
        code, out, _ = run_cli(["bounds", "--measure", measure, "--j", "1..5"], capsys)
        assert code == 0
        formulas = [line.split(",")[idx_formula] for line in out.splitlines()[3:]]
        for formula in uniform:
            assert formulas.count(formula) == 1, formula


def test_compare_auto_extends_nested_supports(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            "--m1", "poisson:1.0", "--m2", "poisson:1.0",
            "--truncation", "20", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["exact_tv"] == 0.0
    # nested: conditioned vs full via file descriptors
    import gibbs_stein as gs

    code, out, _ = run_cli(
        [
            "compare",
            "--m1", gs.poisson(1.0, truncation=20).restricted(3).to_json(),
            "--m2", "poisson:1.0",
            "--truncation", "20",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert float(payload["rows"][0]["tail_term"]) > 0


def test_lattice_csv_columns(capsys):
    code, out, _ = run_cli(
        ["lattice", "--model", "repelling", "--lambda", "1", "--n", "2..4"], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:7] == [
        "n", "exact_tv", "generator_bound", "closed_form",
        "omega_term", "ratio_term", "tail_term",
    ]
    assert len(lines) == 4


def test_poisson_sum_command(capsys):
    code, out, _ = run_cli(
        ["poisson-sum", "--p", "1.0,0,0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert float(row["exact_tv"]) == pytest.approx(1 - 2.718281828459045**-1, abs=1e-12)


def test_poisson_sum_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"p": [0.2, 0.3], "independent": True}))
    code, out, _ = run_cli(["poisson-sum", "--spec", str(spec_path)], capsys)
    assert code == 0
    assert "independent_bound" in out


def test_poisson_sum_spec_file_checks_independent_tables(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"p": [0.3, 0.2], "independent": True, "conditional_sums": [[0, 1], [1, 0]]}
    ))
    code, _, err = run_cli(["poisson-sum", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert "conditional sums inconsistent with independence of the coordinates" in err


@pytest.mark.parametrize("payload, message", [
    ({"p": [0.5, 0.5], "conditional_sums": [[1e308, 1e308], [0.5, 0.5]]},
     "conditional sum law 0 is not a probability vector"),
    ({"configurations": [{"bits": [0, 0], "prob": 1e308}, {"bits": [1, 1], "prob": 1e308}]},
     "configuration probabilities must sum to 1"),
], ids=["conditional_sums", "configurations"])
def test_poisson_sum_spec_whose_table_sum_overflows_exits_two(payload, message, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    code, out, err = run_cli(["poisson-sum", "--spec", str(spec_path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: argument --spec: {message}\n"


def test_poisson_sum_target_covers_long_sums(capsys):
    p = ",".join(["0.05"] * 60)
    code, out, _ = run_cli(["poisson-sum", "--p", p, "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert float(row["harmonic_coupling_bound"]) >= float(row["exact_tv"]) > 0.0
    # an explicit truncation is kept as given, so one below n is an error
    code, _, err = run_cli(["poisson-sum", "--p", p, "--truncation", "10"], capsys)
    assert code == 2
    assert "must live inside the target support (n = 60 > N = 10)" in err


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "2..3"}))
    code, out, _ = run_cli(
        [
            "lattice", "--model", "ideal_gas", "--lambda", "1", "--n", "5..9",
            "--config", str(cfg),
        ],
        capsys,
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "n,"))]
    assert len(rows) == 2


def test_parse_failures_exit_two(capsys):
    code, _, err = run_cli(["solve", "--measure", "nonsense", "--f", "constant:1"], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["poisson-sum"], capsys)
    assert code == 2


def test_verify_exits_zero_and_strict_nonzero(capsys):
    code, out, _ = run_cli(["verify", "--seed", "42"], capsys)
    assert code == 0
    assert "PASS" in out and "expected, documented defect" in out
    code, out, _ = run_cli(["verify", "--seed", "42", "--strict"], capsys)
    assert code == 1
    assert "first failing property" in out


@pytest.mark.parametrize("seed", ["42", "7", "1"])
def test_verify_output_matches_the_pinned_text(seed, capsys):
    code, out, err = run_cli(["verify", "--seed", seed], capsys)
    assert code == 0 and err == ""
    pinned = os.path.join(os.path.dirname(__file__), "data", f"verify_seed{seed}.txt")
    with open(pinned, "rb") as handle:
        assert out.encode() == handle.read()


def test_console_entry_point():
    # the child interpreter imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(gibbs_stein.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gibbs_stein.cli", "bounds", "--measure", "poisson:1.0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "norm_rate_spread" in proc.stdout


def test_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all: the measures' log-space numerics are numpy, and scipy is
    # no runtime dependency (test_runtime_imports_are_declared_dependencies)
    src = os.path.dirname(os.path.dirname(gibbs_stein.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gibbs_stein; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_runtime_imports_are_declared_dependencies():
    # every module the package imports, lazily or not, is the standard library's, its own
    # or a [project].dependencies entry; the test extra's scipy serves only as an oracle
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    allowed = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in dependencies}
    allowed |= set(sys.stdlib_module_names) | {"gibbs_stein"}
    undeclared = []
    for path in sorted((root / "src" / "gibbs_stein").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {module}" for module in modules
                           if module.split(".")[0] not in allowed]
    assert undeclared == []


def test_package_runs_as_module():
    src = os.path.dirname(os.path.dirname(gibbs_stein.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gibbs_stein", "poisson-sum", "--p", "0.2,0.3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "harmonic_coupling_bound" in proc.stdout


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        [
            "lattice", "--model", "ideal_gas", "--lambda", "1", "--n", "3,4",
            "--out", str(target),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# seed=0")
    assert text.count("\n") == 6  # three comment lines, header, two rows


def test_full_builtin_descriptor_coverage(capsys):
    for desc in (
        "negative_binomial:2,0.4",
        "hypergeometric:20,5,6",
        "discrete_uniform:4",
    ):
        code, out, _ = run_cli(["bounds", "--measure", desc, "--j", "1"], capsys)
        assert code == 0
        assert "exact_supremum" in out


def test_descriptor_arity_and_integer_params_exit_two(capsys):
    for desc, message in (
        ("binomial:10", "binomial takes n,p"),
        ("hypergeometric:20,5", "hypergeometric takes population,successes,draws"),
        ("poisson:1,2", "poisson takes lam"),
        ("poisson:", "poisson takes lam"),
        ("discrete_uniform:3,4", "discrete_uniform takes n"),
        ("binomial:10.7,0.3", "binomial takes n,p"),
    ):
        code, out, err = run_cli(["bounds", "--measure", desc], capsys)
        assert code == 2, desc
        assert out == "" and message in err, desc


def test_measure_file_with_spoofed_params_exits_two(tmp_path, capsys):
    import gibbs_stein as gs

    payload = gs.poisson(0.5, truncation=30).to_dict()
    payload["params"] = {"lam": 10.0}
    path = tmp_path / "spoofed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["bounds", "--measure", str(path)], capsys)
    assert code == 2
    assert out == "" and "poisson params" in err


def test_measure_file_missing_a_parameter_names_it(tmp_path, capsys):
    import gibbs_stein as gs

    payload = gs.binomial(10, 0.3).to_dict()
    payload["params"] = {"n": 10}
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["bounds", "--measure", str(path)], capsys)
    assert code == 2
    assert out == "" and "binomial measure lacks parameter 'p'" in err


@pytest.mark.parametrize("payload, field", [({"omega": 1}, "V"), ({"V": [0.0, 0.0]}, "omega")])
def test_measure_missing_a_field_names_it(payload, field, tmp_path, capsys):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(payload))
    for desc in (json.dumps(payload), str(path)):
        code, out, err = run_cli(["compare", "--m1", desc, "--m2", "poisson:1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: argument --m1: measure descriptor {desc!r}: measure lacks field {field!r}\n"


@pytest.mark.parametrize("payload, message", [
    ({"omega": [1], "V": [0, 0]}, "measure field 'omega': float() argument"),
    ({"omega": None, "V": [0, 0]}, "measure field 'omega': float() argument"),
    ({"omega": 1, "V": [0, 0], "params": [1]}, "measure field 'params' must be a JSON object"),
    ({"omega": 1, "V": [0, 0], "kind": [1]}, "measure field 'kind' must be a JSON string"),
    ({"omega": 1, "V": [0, 0], "truncation": [1]}, "measure field 'truncation' must be a JSON object"),
    ({"omega": 1, "V": [0, 0], "truncation": {"bound": [1], "tail_mass": 0, "tolerance": 1}},
     "measure field 'truncation.bound': int() argument"),
    ({"omega": 1, "V": [0, 0], "kind": "poisson", "params": {"lam": [1]}}, "measure field 'params': float() argument"),
    ({"omega": "x", "V": [0, 0]}, "measure field 'omega': could not convert string to float: 'x'"),
    ({"omega": 1, "V": ["a", 1]}, "measure field 'V': could not convert string to float: 'a'"),
    ({"omega": 1, "V": [0, 0], "truncation": {"bound": "x", "tail_mass": 0, "tolerance": 1}},
     "measure field 'truncation.bound': invalid literal for int()"),
    ({"omega": 1, "V": [0, 0], "truncation": {"bound": math.nan, "tail_mass": 0, "tolerance": 1}},
     "measure field 'truncation.bound': cannot convert float NaN to integer"),
    ({"omega": 1, "V": [0, 0], "truncation": {"bound": math.inf, "tail_mass": 0, "tolerance": 1}},
     "measure field 'truncation.bound': cannot convert float infinity to integer"),
    ({"omega": 1, "V": [0, 0], "kind": "poisson", "params": {"lam": "x"}},
     "measure field 'params': could not convert string to float: 'x'"),
])
def test_measure_value_of_the_wrong_type_exits_two_naming_the_field(payload, message, capsys):
    desc = json.dumps(payload)
    code, out, err = run_cli(["bounds", "--measure", desc], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: argument --measure: measure descriptor {desc!r}: {message}")


@pytest.mark.parametrize("record, message", [
    ({"tail_mass": -1}, "truncation.tail_mass must be finite and nonnegative, got -1.0"),
    ({"tail_mass": 1e-3, "tolerance": 1e-4},
     "truncation.tolerance must be finite and at least the tail mass 0.001, got 0.0001"),
    ({"bound": 3}, "truncation.bound must equal the tables' last state 16, got 3"),
    ({"bound": -7}, "truncation.bound must equal the tables' last state 16, got -7"),
])
def test_measure_truncation_record_that_does_not_fit_its_table_exits_two(record, message, capsys):
    # NaN and Infinity in each key run as examples in test_cli_fuzz.py
    payload = gibbs_stein.poisson(1.0).to_dict()
    payload["truncation"].update(record)
    desc = json.dumps(payload)
    code, out, err = run_cli(["bounds", "--measure", desc], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: argument --measure: measure descriptor {desc!r}: {message}"), err


@pytest.mark.parametrize("key", ["bound", "tail_mass", "tolerance"])
def test_measure_truncation_missing_a_key_names_it(key, capsys):
    truncation = {"bound": 1, "tail_mass": 0.0, "tolerance": 1e-14}
    del truncation[key]
    desc = json.dumps({"omega": 1, "V": [0, 0], "truncation": truncation})
    code, out, err = run_cli(["bounds", "--measure", desc], capsys)
    assert code == 2 and out == ""
    assert err == f"error: argument --measure: measure descriptor {desc!r}: truncation lacks {key!r}\n"


@pytest.mark.parametrize(
    "kind, params",
    [("binomial", {"n": 1e13, "p": 0.5}), ("discrete_uniform", {"n": 10**12}),
     ("hypergeometric", {"population": 4 * 10**12, "successes": 10**12, "draws": 10**12})],
)
def test_measure_file_whose_params_name_a_huge_support_exits_two(kind, params, tmp_path, capsys):
    # the sizes are compared before the family is rebuilt, which would allocate n + 1 entries
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": kind, "params": params, "omega": 1.0, "V": [0.0] * 4}))
    code, out, err = run_cli(["bounds", "--measure", str(path)], capsys)
    assert code == 2
    assert out == "" and f"{kind} params" in err and "do not match the measure's tables" in err
    assert "the tables 0..3" in err


def test_overflowing_birth_rate_exits_two_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        code, out, err = run_cli(["bounds", "--measure", "pmf:1e-320,1"], capsys)
    assert code == 2
    assert out == ""
    assert "argument --measure" in err and "birth rate b_0 = exp(736.827) overflows double precision" in err
    assert "Warning" not in err


def test_config_values_go_through_the_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": "abc"}))
    with pytest.raises(SystemExit) as exit_info:
        main(["lattice", "--model", "product", "--n", "3", "--config", str(cfg)])
    assert exit_info.value.code == 2
    assert "argument --lambda: invalid float value: 'abc'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"z": 0.7, "g_norm": "rate_spread", "tail-tol": 1e-12}))
    code, out, _ = run_cli(["lattice", "--model", "product", "--n", "3", "--config", str(cfg)], capsys)
    assert code == 0 and "# activity=0.69999999999999996" in out


def test_config_switch_for_the_removed_flag_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_branch_norms": True}))
    with pytest.raises(SystemExit) as exit_info:
        main(["lattice", "--model", "product", "--n", "3", "--config", str(cfg)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --per-branch-norms" in capsys.readouterr().err


def test_config_false_or_null_exits_two_naming_the_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_branch_norms": False, "bogus": None}))
    code, out, err = run_cli(
        ["lattice", "--model", "product", "--n", "3", "--config", str(cfg)], capsys
    )
    assert code == 2
    assert out == "" and "'per_branch_norms'" in err and "'bogus'" in err


@pytest.mark.parametrize("model, lam", [("ideal_gas", "2"), ("repelling", "1")])
def test_lattice_with_limit_truncated_below_n_dominates(model, lam, capsys):
    code, out, _ = run_cli(
        ["lattice", "--model", model, "--lambda", lam, "--n", "10", "--truncation", "5",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["generator_bound"] >= row["exact_tv"] - 1e-10


PINNED_COMPARE = os.path.join(os.path.dirname(__file__), "data", "compare_outputs.json")


def test_compare_output_matches_the_pinned_text(capsys):
    # keys are "<pair>|<g-norm>|<format>"; the pairs cover equal supports and both nestings
    # the large pairs reach the extended branch and the restricted test class at N = 680
    restricted = json.dumps(parse_measure("poisson:500").restricted(560).to_dict())
    pairs = {
        "equal": ("binomial:10,0.3", "binomial:10,0.32"),
        "m1_inside_m2": ("binomial:8,0.3", "binomial:12,0.2"),
        "m2_inside_m1": ("binomial:12,0.2", "binomial:8,0.3"),
        "large_equal": ("poisson:500", "poisson:505"),
        "large_restricted": ("poisson:500", restricted),
    }
    with open(PINNED_COMPARE) as handle:
        pinned = json.load(handle)
    assert len(pinned) == 22
    for key, text in pinned.items():
        pair, source, fmt = key.split("|")
        m1, m2 = pairs[pair]
        code, out, _ = run_cli(
            ["compare", "--m1", m1, "--m2", m2, "--g-norm", source, "--format", fmt], capsys
        )
        assert code == 0 and out == text, key


@pytest.mark.parametrize(
    "argv",
    [
        ["--measure", "poisson:1", "--truncation", "5", "--f", "indicator:9"],
        ["--measure", "poisson:1e-20", "--f", "indicator:0,1"],
        ["--measure", "poisson:1", "--f", "indicator:-1"],
    ],
    ids=["above_truncation", "above_single_state", "negative"],
)
def test_indicator_points_outside_support_exit_two(argv, capsys):
    code, out, err = run_cli(["solve", *argv], capsys)
    assert code == 2
    assert out == "" and "indicator points must lie in 0.." in err


@pytest.mark.parametrize("values", ["[0, 0.5, Infinity]", "[0, NaN, 1]", "[0, 0.5, 1.5]", "[-0.5, 0, 1]"])
@pytest.mark.parametrize("source", ["inline", "file"])
def test_test_function_table_outside_the_unit_interval_exits_two(values, source, tmp_path, capsys):
    desc = values
    if source == "file":
        desc = str(tmp_path / "f.json")
        (tmp_path / "f.json").write_text(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the table is refused before any arithmetic warns
        code, out, err = run_cli(["solve", "--measure", "poisson:1", "--truncation", "2", "--f", desc], capsys)
    assert code == 2 and out == ""
    assert err == f"error: argument --f: test function {desc!r}: test function values must lie in [0, 1]\n"


def test_compare_value_norm_source_needs_two_values(capsys):
    code, out, err = run_cli(
        ["compare", "--m1", "poisson:1", "--m2", "poisson:1.2", "--g-norm", "value:3"], capsys
    )
    assert code == 2
    assert out == "" and "value:X,Y takes two norm bounds" in err


PINNED_LATTICE = os.path.join(os.path.dirname(__file__), "data", "lattice_outputs.json")


def test_lattice_output_matches_the_pinned_text(capsys):
    # keys are "<model>|<format>"; the cell counts run up to 80, below the product
    # model's underflow ceiling
    activities = {"repelling": "1", "product": "1", "ideal_gas": "2"}
    with open(PINNED_LATTICE) as handle:
        pinned = json.load(handle)
    assert len(pinned) == 6
    for key, text in pinned.items():
        model, fmt = key.split("|")
        argv = ["lattice", "--model", model, "--lambda", activities[model],
                "--n", "3,4,5,6,7,8,10,12,20,40,80", "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == text, key


PINNED_POISSON_SUM = os.path.join(os.path.dirname(__file__), "data", "poisson_sum_outputs.json")


def test_poisson_sum_output_matches_the_pinned_text(tmp_path, capsys):
    # keys are "<spec>|<format>"; each entry carries its spec, one independent and
    # one dependent (configuration-level) coupling
    with open(PINNED_POISSON_SUM) as handle:
        pinned = json.load(handle)
    assert len(pinned) == 4
    for key, expected in pinned.items():
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(expected["spec"]))
        fmt = key.split("|")[1]
        code, out, _ = run_cli(["poisson-sum", "--spec", str(spec_path), "--format", fmt], capsys)
        assert code == 0 and out == expected["stdout"], key


PINNED_BOUNDS = os.path.join(os.path.dirname(__file__), "data", "bounds_outputs.json")


def test_bounds_output_matches_the_pinned_text(capsys):
    # keys are "<measure>|<ladder>" for CSV and "<measure>|<ladder>|json" for JSON: the
    # default ladder or --j 1..5, which some supports do not reach, so those calls pin
    # exit 2 and the error text; poisson:500 with --j 1..300 pins 1,204 JSON rows
    with open(PINNED_BOUNDS) as handle:
        pinned = json.load(handle)
    assert len(pinned) == 37
    for key, expected in pinned.items():
        desc, ladder, *fmt = key.split("|")
        argv = ["bounds", "--measure", desc] + ([] if ladder == "default" else ["--j", ladder])
        code, out, err = run_cli(argv + ["--format", *fmt] if fmt else argv, capsys)
        assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"]), key


PINNED_SOLVE = os.path.join(os.path.dirname(__file__), "data", "solve_outputs.json")


def test_solve_output_matches_the_pinned_text(capsys):
    # keys are "<measure>|<f>|<format>": every built-in family with an indicator and a
    # constant test function, and Poisson(500) (N = 681) with the indicator
    with open(PINNED_SOLVE) as handle:
        pinned = json.load(handle)
    assert len(pinned) == 26
    for key, text in pinned.items():
        desc, f, fmt = key.split("|")
        code, out, err = run_cli(["solve", "--measure", desc, "--f", f, "--format", fmt], capsys)
        assert (code, out, err) == (0, text, ""), key


def test_bounds_checks_each_condition_once_per_measure(monkeypatch, capsys):
    from gibbs_stein import factors

    scans = []
    condition = factors.condition

    def counted(m, name):
        scans.append(name)
        return condition(m, name)

    monkeypatch.setattr(factors, "condition", counted)
    code, _, _ = run_cli(["bounds", "--measure", "binomial:40,0.3", "--j", "1..40"], capsys)
    assert code == 0
    assert len(scans) <= 2


def test_lattice_builds_the_limit_law_once_per_call(monkeypatch, capsys):
    from gibbs_stein import lattice

    builds = []
    limit_measure = lattice.limit_measure

    def counted(*args, **kwargs):
        builds.append(args)
        return limit_measure(*args, **kwargs)

    monkeypatch.setattr(lattice, "limit_measure", counted)
    code, _, _ = run_cli(["lattice", "--model", "repelling", "--n", "3..8"], capsys)
    assert code == 0
    assert len(builds) == 1


def test_one_parser_serves_every_call_without_leaking_state(tmp_path, monkeypatch, capsys):
    from gibbs_stein import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation": 12, "seed": 5, "format": "json"}))
    sequence = [
        ["solve", "--measure", "poisson:2", "--f", "indicator:0,3", "--truncation", "20",
         "--format", "json", "--seed", "3"],
        ["bounds", "--measure", "binomial:12,0.4", "--j", "1..4", "--tail-tol", "1e-10", "--seed", "9"],
        ["compare", "--m1", "poisson:1", "--m2", "poisson:1.2", "--g-norm", "rate_spread",
         "--truncation", "30", "--format", "json"],
        ["lattice", "--model", "ideal_gas", "--lambda", "2", "--n", "3..5", "--g-norm", "rate_spread",
         "--truncation", "15", "--tail-tol", "1e-8"],
        ["poisson-sum", "--p", "0.1,0.2,0.05", "--truncation", "8", "--format", "json", "--seed", "4"],
        # the same subcommands with their defaults: nothing set above may stick
        ["solve", "--measure", "poisson:2", "--f", "indicator:0,3"],
        ["bounds", "--measure", "binomial:12,0.4"],
        ["compare", "--m1", "poisson:1", "--m2", "poisson:1.2"],
        ["lattice", "--model", "ideal_gas", "--n", "3..5"],
        ["poisson-sum", "--p", "0.1,0.2,0.05"],
        ["bounds", "--measure", "geometric:0.5", "--config", str(cfg)],
        ["bounds", "--measure", "geometric:0.5"],
        ["lattice", "--model", "product", "--n", "abc"],  # argparse exits 2
        ["compare", "--m1", "poisson:1", "--m2", "poisson:2", "--g-norm", "bogus"],  # a CliError
        ["compare", "--m1", "poisson:1", "--m2", "poisson:1.2"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # each call alone with a fresh parser, last first, so that a value that leaks
    # forward from one call into the next would show
    alone = []
    for argv in reversed(sequence):
        cli._parser.cache_clear()
        alone.insert(0, call(argv))
    assert [code for code, _, _ in alone] == [0] * 12 + [2, 2, 0]
    assert "argument --n: expected integers" in alone[12][2]
    assert alone[13][2].startswith("error: argument --g-norm: expected exact")

    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv, first in zip(sequence, alone):
        assert call(argv) == first, argv
    assert len(builds) == 1


def test_bounds_json_rows_share_one_schema(capsys):
    for desc in ("poisson:1.0", "geometric:0.5", "binomial:10,0.3", "pmf:1,2,3,4"):
        code, out, _ = run_cli(["bounds", "--measure", desc, "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert any(row["formula"] == "exact_supremum" for row in rows)
        assert {tuple(row) for row in rows} == {tuple(rows[0])}, desc


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["bounds", "--measure", "poisson:1", "--j", "x"], None,
         "argument --j: expected integers such as 3,5,8 or 2..6, got 'x'"),
        (["lattice", "--model", "product", "--n", "abc"], None,
         "argument --n: expected integers such as 3,5,8 or 2..6, got 'abc'"),
        (["lattice", "--model", "product", "--n", "3"], {"n": [2, 3]},
         "argument --n: expected integers such as 3,5,8 or 2..6, got '[2, 3]'"),
        (["lattice", "--model", "product", "--n", "0"], None,
         "argument --n: cell counts must be positive, got '0'"),
        (["lattice", "--model", "product", "--n", "3", "--lambda", "-1"], None,
         "argument --lambda: activity must be positive and finite, got '-1'"),
        (["solve", "--measure", "poisson:1", "--f", "constant:1", "--truncation", "-3"], None,
         "argument --truncation: truncation bound must be nonnegative, got '-3'"),
        (["bounds", "--measure", "poisson:1", "--tail-tol", "-1"], None,
         "argument --tail-tol: tail tolerance must lie strictly between 0 and 1, got '-1'"),
        (["bounds", "--measure", "poisson:3", "--tail-tol", "nan"], None,
         "argument --tail-tol: tail tolerance must lie strictly between 0 and 1, got 'nan'"),
        (["bounds", "--measure", "poisson:3"], {"truncation_tolerance": 0},
         "argument --tail-tol: tail tolerance must lie strictly between 0 and 1, got '0'"),
        (["bounds", "--measure", "poisson:3", "--j", "5..2"], None, "argument --j: empty range '5..2'"),
        (["lattice", "--model", "product", "--n", "9..4"], None, "argument --n: empty range '9..4'"),
        (["bounds", "--measure", "poisson:3", "--j", "1..99999999999"], None,
         "argument --j: a range holds at most 1048576 integers, got '1..99999999999'"),
        (["lattice", "--model", "ideal_gas", "--n", "1..99999999999"], None,
         "argument --n: a range holds at most 1048576 integers, got '1..99999999999'"),
    ],
    ids=["bounds_j_not_integer", "lattice_n_not_integer", "lattice_n_json_list_in_config",
         "lattice_n_zero", "lattice_lambda_negative", "solve_truncation_negative",
         "tail_tol_negative", "tail_tol_nan", "tail_tol_zero_in_config", "bounds_j_empty",
         "lattice_n_empty", "bounds_j_huge", "lattice_n_huge"],
)
def test_bad_flag_values_exit_two_naming_the_flag(argv, config, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--measure", "poisson:inf"],
         "argument --measure: measure descriptor 'poisson:inf': poisson rate must be positive and finite"),
        (["bounds", "--measure", "geometric:1e-300"],
         "argument --measure: measure descriptor 'geometric:1e-300': geometric needs 0 < p < 1 "
         "with 1 - p < 1"),
        (["bounds", "--measure", "negative_binomial:2,1e-17"],
         "argument --measure: measure descriptor 'negative_binomial:2,1e-17': negative binomial needs"),
        (["compare", "--m1", "poisson:1", "--m2", "poisson:2", "--g-norm", "value:abc,1"],
         "argument --g-norm: could not convert string to float: 'abc'"),
        (["compare", "--m1", "poisson:1", "--m2", "poisson:2", "--g-norm", "value:-1,1"],
         "argument --g-norm: 'value:-1,1': norm bounds must be nonnegative"),
        (["bounds", "--measure", "pmf:1,2,3,4", "--j", "1..5"],
         "argument --j: increment bound defined for 1 <= j <= 3, got 4"),
        (["bounds", "--measure", "pmf:1,inf"],
         "argument --measure: measure descriptor 'pmf:1,inf': weight 1 is inf; weights must be finite\n"),
        (["bounds", "--measure", "pmf:1,nan,2"],
         "argument --measure: measure descriptor 'pmf:1,nan,2': weight 1 is nan; weights must be finite\n"),
        (["poisson-sum", "--p", "nan,0.5"], "argument --p: Bernoulli means must lie in [0, 1]"),
        (["poisson-sum", "--p", "0.05,0.05,0.05", "--truncation", "1"],
         "argument --truncation: the Bernoulli sum must live inside the target support"),
        (["lattice", "--model", "product", "--n", "2"],
         "argument --n: 2 cells: the product model needs n >= 3"),
        (["lattice", "--model", "ideal_gas", "--n", "3", "--truncation", "2000"],
         "argument --truncation: support weight underflows double precision: pmf(178)"),
        (["bounds", "--measure", "poisson:1", "--out", os.path.join(os.sep, "nonexistent-dir", "x.csv")],
         "argument --out: "),
        (["solve", "--measure", "poisson:1", "--f", "constant:nan"],
         "argument --f: test function 'constant:nan': test function values must lie in [0, 1]\n"),
        (["solve", "--measure", "poisson:1", "--truncation", "0", "--f", '[{"a": 1}]'],
         "argument --f: test function '[{\"a\": 1}]': float() argument must be a string or a real number"),
        (["solve", "--measure", "poisson:1", "--f", "foo:1"], "argument --f: cannot parse test function 'foo:1'\n"),
        # counts whose tables would pass 2**20 entries, refused before any is allocated
        (["bounds", "--measure", "binomial:1e12,0.5"],
         "argument --measure: measure descriptor 'binomial:1e12,0.5': binomial needs n <= 1048575, "
         "got 1000000000000\n"),
        (["bounds", "--measure", "discrete_uniform:1e12"],
         "argument --measure: measure descriptor 'discrete_uniform:1e12': discrete uniform needs "
         "n <= 1048575, got 1000000000000\n"),
        (["solve", "--measure", "hypergeometric:1e13,1e12,1e12", "--f", "constant:0.5"],
         "argument --measure: measure descriptor 'hypergeometric:1e13,1e12,1e12': hypergeometric "
         "needs min(successes, draws) <= 1048575, got 1000000000000\n"),
        (["lattice", "--model", "ideal_gas", "--n", "100000000000"],
         "argument --n: 100000000000 cells: need at most 1048575 cells, got 100000000000\n"),
    ],
    ids=["poisson_inf", "geometric_p_vanishing", "negative_binomial_p_vanishing", "g_norm_not_a_float",
         "g_norm_negative", "j_beyond_support", "pmf_weight_inf", "pmf_weight_nan", "poisson_sum_nan_mean",
         "poisson_sum_truncation_below_n", "lattice_n_below_minimum",
         "lattice_truncation_underflows", "out_directory_missing", "f_constant_nan", "f_table_entry_not_a_number",
         "f_unknown_kind", "binomial_n_huge", "discrete_uniform_n_huge", "hypergeometric_huge",
         "lattice_cells_huge"],
)
def test_bad_values_met_at_run_time_exit_two_naming_the_flag(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: {message}"), err


def test_underflowing_poisson_sum_target_names_the_state(capsys):
    code, out, err = run_cli(["poisson-sum", "--p", ",".join(["0.001"] * 200)], capsys)
    assert code == 2 and out == ""
    # lambda = 0.2 truncated at n = 200: the first pmf entry below the double range
    assert err == "error: argument --p: support weight underflows double precision: pmf(135) = exp(-748.058)\n"
    assert "narrow the truncation window" not in err


def test_coupling_reduction_check_passes_on_every_seed(capsys):
    from gibbs_stein.verify import check_coupling_bound_poisson

    for seed in range(1, 14):
        ok, detail = check_coupling_bound_poisson(np.random.default_rng(seed))
        assert ok and detail.startswith("norm part 0.0e+00"), (seed, detail)
    code, out, _ = run_cli(["verify", "--seed", "7"], capsys)
    assert code == 0 and "FAIL coupling_bound_poisson_reduction" not in out


# strings rich in what the C-encoder fast path must see through: quotes, escapes, NUL,
# line separators and non-ASCII, and in the rich ones brackets and a row boundary
_PLAIN_TEXT = st.lists(st.sampled_from(
    ["a", " ", '"', "\\", ",", ":", "\n", "\x00", "},\n", "\u2028", "\xe9", "\U0001f600"]
), max_size=5).map("".join)
_RICH_TEXT = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(["a", "{", "}", "[", "]", "},\n{", "\n"]), max_size=5).map("".join),
)


def _json_scalars(text):
    return st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.0**-1060, 2**70]),
        text,
        # numpy scalars: float64 is a float, the rest reach the emitter through default=_render
        st.floats().map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_), st.floats(width=32).map(np.float32),
    )


def _payloads():
    """Report-shaped payloads, flat ones with "rows" last and anything else."""
    keys = st.one_of(st.sampled_from(["seed", "measure", "j", "g"]), _PLAIN_TEXT)
    scalars = _json_scalars(_PLAIN_TEXT)
    flat = st.tuples(
        st.dictionaries(keys, scalars, max_size=4),
        st.lists(st.dictionaries(keys, scalars, min_size=1, max_size=5), min_size=1, max_size=4),
    ).map(lambda parts: {**parts[0], "rows": parts[1]})
    keys = st.one_of(st.sampled_from(["seed", "rows", "j"]), _RICH_TEXT)
    scalars = _json_scalars(_RICH_TEXT)
    values = st.one_of(scalars, st.lists(scalars, max_size=2), st.dictionaries(keys, scalars, max_size=2))
    rows = st.one_of(
        st.lists(st.dictionaries(keys, values, min_size=1, max_size=4), min_size=1, max_size=4),
        st.lists(st.one_of(st.dictionaries(keys, values, max_size=4), values), max_size=4),
    )
    anything = st.tuples(st.dictionaries(keys, values, max_size=4), rows, st.booleans()).map(
        lambda parts: {**parts[0], "rows": parts[1]} if parts[2] else {"rows": parts[1], **parts[0]}
    )
    return st.one_of(flat, anything)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(payload=_payloads())
def test_indented_json_is_the_stdlib_indent_2_text(payload):
    assert _indented_json(payload) == json.dumps(payload, indent=2, default=_render)


def test_flat_reports_skip_the_pure_python_encoder(monkeypatch, capsys):
    # json.dumps(indent=2) lays its text out in json.encoder._make_iterencode, in pure
    # Python; every report whose rows hold scalars alone must be encoded without it
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for argv in (
        ["bounds", "--measure", "binomial:30,0.4", "--j", "1..12"],
        ["solve", "--measure", "poisson:3", "--f", "indicator:0,2"],
        ["solve", "--measure", "geometric:0.5", "--f", "constant:0.25"],
        ["lattice", "--model", "repelling", "--n", "3..6"],
        ["poisson-sum", "--p", "0.3,0.2,0.25"],
    ):
        code, out, err = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0 and err == "" and json.loads(out)["rows"], argv
    # compare's row holds the g_norms list, so it alone takes the stdlib encoder
    with pytest.raises(AssertionError, match="pure-Python"):
        main(["compare", "--m1", "poisson:1", "--m2", "poisson:1.1", "--format", "json"])
