"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "chsh-sweep": {"samples": 10},
    "claim-library": {"settings": 4, "models": 6, "states": 4, "grids": (4,), "optimizer_seeds": 1},
    "cli-claims": {"verify_samples": 10, "optimize_grid": 4, "oracle_samples": 3},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)
    monkeypatch.setattr(run, "PROBES", 1)


def run_bench(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    out = capsys.readouterr().out
    return rc, out, json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(tiny, capsys, workload, trace):
    rc, out, result = run_bench(capsys, workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for item in result["metrics"].values():
        assert isinstance(item["value"], (int, float)) and math.isfinite(item["value"])
        if not trace:
            assert item["value"] > 0
    assert f"{workload:14} fail_ratio" in out


@pytest.mark.parametrize("workload, constant, wrong", [
    ("chsh-sweep", "CLASSICAL", 0.5),
    ("claim-library", "TSIRELSON", 3.0),
    ("cli-claims", "TSIRELSON", 3.0),
])
def test_wrong_expected_value_fails_the_run(tiny, capsys, monkeypatch, workload, constant, wrong):
    monkeypatch.setattr(workloads, constant, wrong)
    rc, out, result = run_bench(capsys, workload, 0)
    assert rc == 1
    assert not result["correct"] and result["failed"] > 0
    assert "MISS" in out


def test_strict_json_rejects_non_finite_numbers():
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        with pytest.raises(ValueError):
            workloads.strict_json(text)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "chsh-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_keeps_caches_and_records_calls_inside_a_module():
    sys.path.insert(0, str(ROOT / "src"))
    from qlhv import chsh, ghz

    tracer = Tracer()
    tracer.install()
    try:
        chsh.bell_expression(chsh.make_achieving_model())
        ghz.ghz_intersection()
        ghz.ghz_intersection()
        assert ghz.ghz_intersection.cache_info().hits >= 1
    finally:
        tracer.uninstall()
    assert not hasattr(chsh.bell_expression, "__wrapped__")
    run_totals = tracer.totals()[0]
    assert run_totals["chsh.correlation"][0] == 4
    assert run_totals[("chsh.bell_expression", "chsh.correlation")] == 4
    calls, self_s, errors, total_s = run_totals["chsh.bell_expression"]
    assert calls == 1 and errors == 0 and 0 <= self_s <= total_s


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(100)) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)
