import csv
import io
import json
import math
from pathlib import Path

import pytest

from qlhv.cli import RULES, main, parse_permutation
from qlhv.qubit import IDENTITY_PERMUTATION, X_FLIP
from qlhv.tolerances import OPTIMUM_TOL, TSIRELSON

DIAG = "0.5773502691896258,0.5773502691896258,0.5773502691896258"

# Reports of the README subcommands with fixed arguments, elapsed_ms removed
# (CSV cases as rows).  A change to any report must be deliberate.
PINNED = json.loads((Path(__file__).parent / "data" / "pinned_reports.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse_permutation():
    assert parse_permutation("(1 5)(2 6)(3 7)(4 8)") == X_FLIP
    assert parse_permutation("") == IDENTITY_PERMUTATION
    assert parse_permutation("(1 2 3)") == (2, 3, 1, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("text", ["(1 2", "(1 1)", "(0 3)", "(1 9)", "(1 2)(2 3)", "abc"])
def test_parse_permutation_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_permutation(text)


def test_report_schema_and_exit_code(capsys):
    code, report = run_json(capsys, "chsh-achieve")
    assert code == 0
    assert set(report) >= {"command", "version", "config", "checks", "elapsed_ms"}
    assert report["command"] == "chsh-achieve"
    for item in report["checks"]:
        assert set(item) == {"name", "expected", "actual", "tolerance", "pass"}
    names = [c["name"] for c in report["checks"]]
    assert "bell_expression" in names
    bell = next(c for c in report["checks"] if c["name"] == "bell_expression")
    assert bell["expected"] == pytest.approx(2.8284271247, abs=1e-9)
    assert bell["tolerance"] == 1e-9
    assert bell["pass"] is True


def test_csv_format(capsys):
    code, out = run(capsys, "chsh-achieve", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "expected", "actual", "tolerance", "pass"]
    assert rows[1][0] == "bell_expression"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "ghz-enumerate", "--out", str(path))
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["command"] == "ghz-enumerate"


def test_chsh_verify_reproducible(capsys):
    code1, report1 = run_json(capsys, "chsh-verify", "--samples", "50", "--seed", "9")
    code2, report2 = run_json(capsys, "chsh-verify", "--samples", "50", "--seed", "9")
    assert code1 == code2 == 0
    report1.pop("elapsed_ms")
    report2.pop("elapsed_ms")
    assert report1 == report2


def test_chsh_verify_requires_seed(capsys):
    code, _ = run(capsys, "chsh-verify", "--samples", "10")
    assert code == 2


def test_chsh_optimize(capsys):
    code, report = run_json(capsys, "chsh-optimize", "--grid", "8", "--seed", "1")
    assert code == 0
    value = report["checks"][0]["actual"]
    assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-6
    assert "model" in report["result"]


def test_ghz_verify(capsys):
    code, report = run_json(capsys, "ghz-verify")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["intersection_size"]["actual"] == 32
    assert checks["xxx_product_constant"]["actual"] == "-i"
    assert checks["joint_condition_solutions"]["actual"] == 64
    assert report["result"]["classical_satisfying_count"] == 8
    assert len(report["result"]["intersection"]) == 32
    assert all(len(a) == 3 and len(a[0]) == 3 for a in report["result"]["intersection"])


def test_qubit_dist_diagonal(capsys):
    code, report = run_json(capsys, "qubit-dist", "--bloch", DIAG)
    assert code == 0
    dist = report["result"]["distribution"]
    assert dist[7] == pytest.approx((1 - math.sqrt(3)) / 8, abs=1e-9)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["retroaction"]["pass"] is True


def test_qubit_dist_rejects_long_vector(capsys):
    code, _ = run(capsys, "qubit-dist", "--bloch", "1,1,0")
    assert code == 2


def test_qubit_expect(capsys):
    code, report = run_json(capsys, "qubit-expect", "--bloch", "0.6,0,0.8")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["expectation_x"]["actual"] == pytest.approx(0.6, abs=1e-12)
    assert checks["expectation_z"]["actual"] == pytest.approx(0.8, abs=1e-12)
    assert checks["oracle_agreement_y"]["pass"] is True


def test_qubit_search_sign_axis(capsys):
    code, report = run_json(capsys, "qubit-search-sign", "--dir", "0,0,1")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["sign_function_exists"]["actual"] is True
    assert report["result"]["signs"] == [1, -1, 1, -1, 1, -1, 1, -1]


def test_qubit_search_sign_off_axis_absent(capsys):
    s = repr(1.0 / math.sqrt(2.0))
    code, report = run_json(capsys, "qubit-search-sign", "--dir", f"{s},{s},0")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["sign_function_exists"]["expected"] is False
    assert checks["sign_function_exists"]["actual"] is False
    assert report["result"]["signs"] is None


def test_qubit_evolve_x_flip(capsys):
    code, report = run_json(
        capsys, "qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 5)(2 6)(3 7)(4 8)"
    )
    assert code == 0
    assert report["result"]["after"] == pytest.approx([0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25])
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["retroaction_preserved"]["pass"] is True


def test_qubit_evolve_strict_rejects_bad_permutation(capsys):
    code, _ = run(capsys, "qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 2)")
    assert code == 2


def test_qubit_evolve_permissive_allows_bad_permutation(capsys):
    with pytest.warns(UserWarning):
        code, report = run_json(
            capsys, "qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 2)", "--permissive"
        )
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert "retroaction_preserved" not in checks


def test_oracle_check(capsys):
    code, report = run_json(capsys, "oracle-check", "--samples", "20", "--seed", "2")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["eigenrelation_xxx_minus"]["pass"] is True
    assert checks["tsirelson_optimal_settings"]["pass"] is True
    assert checks["random_settings_max_leq_tsirelson"]["pass"] is True


def test_oracle_check_samples_require_seed(capsys):
    code, _ = run(capsys, "oracle-check", "--samples", "20")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_malformed_vector_exits_2(capsys):
    for argv in (
        ("qubit-dist", "--bloch", "1,0"),
        ("qubit-dist", "--bloch", "nan,0,0"),
        ("qubit-search-sign", "--dir", "nan,0,1"),
        ("qubit-expect", "--bloch", "0,0,0", "--dir", "inf,0,0"),
    ):
        assert run(capsys, *argv) == (2, ""), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("chsh-verify", "--samples", "0", "--seed", "1"),
        ("chsh-verify", "--samples", "-5", "--seed", "1"),
        ("oracle-check", "--samples", "-3", "--seed", "1"),
    ],
)
def test_non_positive_samples_exit_2(capsys, argv):
    assert run(capsys, *argv) == (2, "")


def test_rules_fail_outside_tolerance_and_on_nan():
    assert RULES["reaches"](TSIRELSON, TSIRELSON - 0.5 * OPTIMUM_TOL, OPTIMUM_TOL)
    assert not RULES["reaches"](TSIRELSON, TSIRELSON + 2e-9, OPTIMUM_TOL)
    assert not RULES["reaches"](TSIRELSON, TSIRELSON - 2.0 * OPTIMUM_TOL, OPTIMUM_TOL)
    for rule in ("equal", "close", "at_most", "at_least", "reaches"):
        assert not RULES[rule](1.0, math.nan, 1e-9), rule
    assert not RULES["all_close"]([1.0, 0.0], [math.nan, 0.0], None)


def _assert_same(expected, actual, path, loose=False):
    """Exact equality, except floats under a check's "actual" or under
    "result", which must agree to 1e-12."""
    if loose and isinstance(expected, float) and isinstance(actual, float):
        assert abs(actual - expected) <= 1e-12, path
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert expected.keys() == actual.keys(), path
        for key in expected:
            loose_here = loose or key in ("actual", "result")
            _assert_same(expected[key], actual[key], f"{path}.{key}", loose_here)
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(expected) == len(actual), path
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{index}]", loose)
    else:
        assert type(actual) is type(expected) and actual == expected, path


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


@pytest.mark.filterwarnings("ignore::UserWarning")   # --permissive warns by design
@pytest.mark.parametrize("case", PINNED, ids=[" ".join(c["argv"]) for c in PINNED])
def test_report_matches_pinned(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    if "csv" in case["argv"]:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == len(case["output"])
        for expected, actual in zip(case["output"], rows):
            assert expected[:2] + expected[3:] == actual[:2] + actual[3:]
            _assert_same(_number(expected[2]), _number(actual[2]), "csv actual", loose=True)
    else:
        report = json.loads(out)
        report.pop("elapsed_ms")
        _assert_same(case["output"], report, "report")
