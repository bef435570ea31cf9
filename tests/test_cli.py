import json
import os
import subprocess
import sys

import pytest

import gibbs_stein
from gibbs_stein.cli import main, parse_measure, parse_range, parse_test_function


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        [
            "lattice", "--model", "ideal_gas", "--lambda", "1", "--n", "3,4",
            "--per-branch-norms", "--out", str(target),
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
