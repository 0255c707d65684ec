import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlhv import chsh, cli, qubit
from qlhv.cli import RULES, main, parse_permutation
from qlhv.tolerances import EXACT_TOL, TSIRELSON

DIAG = "0.5773502691896258,0.5773502691896258,0.5773502691896258"
# exchanges m and m+4 for m = 1..4, which flips the x signs
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)
IDENTITY_PERMUTATION = (1, 2, 3, 4, 5, 6, 7, 8)

# Reports of the README subcommands with fixed arguments, elapsed_ms removed
# (CSV cases as rows).  A change to any report must be deliberate.
PINNED_TEXT = (Path(__file__).parent / "data" / "pinned_reports.json").read_text()
PINNED = json.loads(PINNED_TEXT)


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
    assert bell["tolerance"] == 1e-12
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


def test_unwritable_out_exits_2(tmp_path, capsys):
    code = main(["chsh-achieve", "--out", str(tmp_path / "missing" / "report.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _reject_constant(name):
    raise ValueError(f"non-finite number in report: {name}")


def _fresh_python(*args, env=None):
    # a new interpreter, which imports qlhv from nothing, unlike main() here;
    # env adds to the environment
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_fresh_process_runs_a_command():
    proc = _fresh_python("-m", "qlhv.cli", "ghz-verify")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["command"] == "ghz-verify"


@pytest.mark.parametrize("argv, code", [
    (("ghz-verify",), 0),
    (("qubit-evolve", "--bloch", "0.5,0.3,0.1", "--perm", "(1 2)(7 8)"), 1),
    (("qubit-dist", "--bloch", "2,0,0"), 2),
])
def test_entry_point_exits_with_the_code_of_main(argv, code):
    # what the generated qlhv console script runs, reading sys.argv
    proc = _fresh_python("-c", "import sys; from qlhv.cli import main; sys.exit(main())", *argv)
    assert proc.returncode == code, proc.stderr


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# The README's ten subcommand lines.  Only these two import numpy; the
# other eight run in plain Python.
README_COMMANDS = [shlex.split(line, comments=True)[1:] for line in README.splitlines()
                   if line.startswith("qlhv ")]
NUMPY_COMMANDS = {"chsh-verify", "oracle-check"}

# the qlhv modules that importing the CLI loads, and what each command adds
_CLI_MODULES = {"qlhv", "qlhv.cli", "qlhv.tolerances"}
_COMMAND_MODULES = {"chsh": {"qlhv.chsh"}, "ghz": {"qlhv.ghz", "qlhv.quaternions"},
                    "qubit": {"qlhv.qubit"}, "oracle": {"qlhv.oracle"}}
# runs the CLI, its report on stdout, then prints on stderr one JSON line:
# the qlhv modules loaded after `import qlhv.cli`, those loaded after main,
# and whether numpy was loaded
_MAIN_THEN_LOADED = (
    "import json, sys\n"
    "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'qlhv')\n"
    "from qlhv.cli import main\nafter_import = loaded()\ncode = main(sys.argv[1:])\n"
    "print(json.dumps([after_import, loaded(), 'numpy' in sys.modules]), file=sys.stderr)\n"
    "sys.exit(code)\n")


@pytest.fixture(scope="module", params=README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def readme_run(request):
    """One fresh process per README command, which the tests below share."""
    return request.param, _fresh_python("-W", "error", "-c", _MAIN_THEN_LOADED, *request.param)


def test_readme_lists_every_command():
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(cli.COMMANDS)


def test_readme_cli_flags_match_the_parser():
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    defined = {flag for parser in subcommands.values() for action in parser._actions
               if not isinstance(action, argparse._HelpAction) for flag in action.option_strings}
    assert documented == defined


def test_readme_rules_match_cli_rules():
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    documented = re.findall(r"^- `([a-z_]+)`", section, re.MULTILINE)
    assert sorted(documented) == sorted(RULES)


def test_readme_command_loads_numpy_only_if_it_needs_it(readme_run):
    argv, proc = readme_run
    assert proc.returncode == 0, proc.stderr
    *_, numpy_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert json.loads(proc.stdout, parse_constant=_reject_constant)["command"] == argv[0]
    assert numpy_loaded is (argv[0] in NUMPY_COMMANDS)


def test_readme_command_imports_only_its_modules(readme_run):
    argv, proc = readme_run
    assert proc.returncode == 0, proc.stderr
    after_import, after_main, _ = json.loads(proc.stderr.splitlines()[-1])
    expected = _CLI_MODULES | _COMMAND_MODULES[argv[0].split("-")[0]]
    if argv[0] == "qubit-expect":
        expected |= _COMMAND_MODULES["oracle"]
    assert set(after_import) == _CLI_MODULES
    assert set(after_main) == expected


def test_oracle_check_rejects_samples_without_seed_before_numpy():
    proc = _fresh_python("-W", "error", "-c", _MAIN_THEN_LOADED, "oracle-check", "--samples", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    *_, error, loaded = proc.stderr.splitlines()
    assert error == "qlhv oracle-check: error: the following arguments are required: --seed"
    assert json.loads(loaded)[2] is False


@pytest.mark.parametrize("samples, seed, message", [
    ("5", "-1", "seed must be nonnegative"),
    ("0", "1", "samples must be at least 1"),
], ids=["negative seed", "zero samples"])
def test_oracle_check_judges_its_counts_before_numpy(samples, seed, message):
    proc = _fresh_python("-W", "error", "-c", _MAIN_THEN_LOADED, "oracle-check", "--samples", samples,
                         "--seed", seed)
    assert proc.returncode == 2
    assert proc.stdout == ""
    error, loaded = proc.stderr.splitlines()
    assert error == f"error: {message}" and json.loads(loaded)[2] is False


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    probe = ("import sys\nbefore = set(sys.modules)\nimport qlhv.cli\n"
             "print(sorted({'dataclasses', 'inspect', 'numpy'} & (set(sys.modules) - before)))")
    proc = _fresh_python("-W", "error", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_binds_no_public_name():
    proc = _fresh_python("-c", "import qlhv; print([n for n in vars(qlhv) if not n.startswith('_')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chsh_verify_reproducible(capsys):
    code1, report1 = run_json(capsys, "chsh-verify", "--samples", "50", "--seed", "9")
    code2, report2 = run_json(capsys, "chsh-verify", "--samples", "50", "--seed", "9")
    assert code1 == code2 == 0
    report1.pop("elapsed_ms")
    report2.pop("elapsed_ms")
    assert report1 == report2


def test_chsh_verify_matches_a_model_by_model_sweep(capsys):
    # 1,100 samples take more than one batch, and with seed 3, the lowest
    # seed that puts it past row 1,024, the complex maximum is model 1,063,
    # so a second batch off the stream shows.  The reference is one
    # sample_model and bell_expression call per model.
    samples, seed = 1_100, 3
    rng = np.random.default_rng(seed)
    values, gaps = [], []
    for _ in range(samples):
        model = chsh.sample_model(rng)
        values.append(chsh.bell_expression(model))
        gaps.append(values[-1] - chsh.analytic_bound(model.thetas[1], model.thetas[3]))
    rng = np.random.default_rng(seed)
    real = [chsh.bell_expression(chsh.sample_model(rng, phase_choices=(0.0, math.pi)))
            for _ in range(samples)]
    expected = {"max_bell_complex_leq_tsirelson": max(values),
                "max_bell_real_leq_classical": max(real),
                "analytic_bound_dominance_gap": max(gaps),
                "witness_replays": 0.0}

    code, report = run_json(capsys, "chsh-verify", "--samples", str(samples), "--seed", str(seed))
    assert code == 0
    assert {c["name"] for c in report["checks"]} == set(expected)
    for check in report["checks"]:
        assert abs(check["actual"] - expected[check["name"]]) <= 1e-14
    assert report["result"]["complex_witness"]["index"] == values.index(max(values)) == 1_063


def two_generator_sweep(seed, samples, phase_choices):
    """chsh-verify's sweep of one phase regime as it was before one draw served
    both: a generator of its own, blocks of 1,024 models.  Returns every Bell
    value and the largest excess over analytic_bound."""
    rng = np.random.default_rng(seed)
    values, gap = [], -math.inf
    for start in range(0, samples, 1024):
        weights, thetas, bits = chsh.sample_models(rng, min(1024, samples - start), phase_choices)
        values.append(chsh.bell_values(weights, thetas, bits))
        gap = max(gap, float((values[-1] - chsh.analytic_bound(thetas[:, 1], thetas[:, 3])).max()))
    return np.concatenate(values), gap


@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi)])
def test_bell_sweep_does_not_depend_on_the_chunk_size(monkeypatch, capsys, phase_choices):
    # chsh-verify's maximum and witness of one phase regime, with 1,100
    # samples in 158 blocks or in two
    check, witness = (("max_bell_complex_leq_tsirelson", "complex_witness") if phase_choices is None
                      else ("max_bell_real_leq_classical", "real_witness"))
    outcomes = []
    for block in (7, 1024):
        monkeypatch.setattr(chsh, "_BLOCK", block)
        code, report = run_json(capsys, "chsh-verify", "--samples", "1100", "--seed", "107")
        assert code == 0
        actual = {c["name"]: c["actual"] for c in report["checks"]}
        outcomes.append((actual[check], report["result"][witness]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", [0, 3, 7919])
def test_chsh_verify_matches_the_two_generator_sweeps(capsys, seed):
    for samples in (1, 1024, 1025, 2500):
        code, report = run_json(capsys, "chsh-verify", "--samples", str(samples), "--seed", str(seed))
        assert code == 0
        actual = {c["name"]: c["actual"] for c in report["checks"]}
        complex_values, gap = two_generator_sweep(seed, samples, None)
        real_values, _ = two_generator_sweep(seed, samples, (0.0, math.pi))
        assert actual["max_bell_complex_leq_tsirelson"] == complex_values.max()
        assert actual["max_bell_real_leq_classical"] == real_values.max()
        assert actual["analytic_bound_dominance_gap"] == gap
        # the complex witness is the first row that reaches the maximum, the
        # real one the first within EXACT_TOL of it, each replayable from the seed
        near = np.flatnonzero(real_values >= real_values.max() - EXACT_TOL)
        assert report["result"]["real_witness"]["ties"] == len(near)
        for name, values, phase_choices, index in (
                ("complex_witness", complex_values, None, np.argmax(complex_values)),
                ("real_witness", real_values, (0.0, math.pi), near[0])):
            witness = report["result"][name]
            assert witness["index"] == index and witness["value"] == values[index]
            rng = np.random.default_rng(seed)
            chsh.sample_models(rng, witness["index"], phase_choices)
            assert chsh.model_from_dict(witness["model"]) == chsh.sample_model(rng, phase_choices)


# numpy's X86_V2 baseline: these names switch off every dispatch level above
# it, and numpy ignores the name of a feature that the CPU lacks
BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
# (samples, seed); --samples 200 --seed 2 printed another gap at the
# baseline while the bound went through complex abs.  3,000 samples cross
# two 1,024-model block boundaries of bell_sweep
SIMD_CASES = [(samples, seed) for samples in (200, 1_000, 3_000) for seed in range(10)]


def test_chsh_verify_reports_do_not_depend_on_the_simd_level():
    script = ("import json, sys\nfrom qlhv import cli\nreports = []\n"
              "for samples, seed in json.loads(sys.argv[1]):\n"
              "    reports.append(cli.run('chsh-verify', {'samples': samples, 'seed': seed}))\n"
              "    reports[-1].pop('elapsed_ms')\n"
              "print(json.dumps(reports))\n")
    proc = _fresh_python("-c", script, json.dumps(SIMD_CASES), env=BASELINE_SIMD)
    assert proc.returncode == 0, proc.stderr
    for (samples, seed), baseline in zip(SIMD_CASES, json.loads(proc.stdout), strict=True):
        report = json.loads(cli.render_report(cli.run("chsh-verify", {"samples": samples, "seed": seed}), "json"))
        report.pop("elapsed_ms")
        _assert_same(report, baseline, f"--samples {samples} --seed {seed}")


def test_chsh_verify_reports_its_spot_rows(capsys):
    # rows 0 and 1 of the complex regime, replayable from --seed and the index
    for samples, rows in ((1, [0]), (200, [0, 1])):
        code, report = run_json(capsys, "chsh-verify", "--samples", str(samples), "--seed", "7")
        assert code == 0
        spots = report["result"]["spot_rows"]
        assert [spot["index"] for spot in spots] == rows
        weights, thetas, bits = chsh.sample_models(np.random.default_rng(7), samples)
        values = chsh.bell_values(weights, thetas, bits)
        assert [spot["value"] for spot in spots] == values[rows].tolist()
    # at seed 7 the rows have 11 and 9 points, so neither replays a one-point model
    rng = np.random.default_rng(7)
    assert [len(chsh.sample_model(rng).weights) for _ in rows] == [11, 9]


def test_chsh_verify_fails_when_bell_values_moves_only_multi_point_rows(monkeypatch, capsys):
    # the maxima are one-point models here, so only the spot rows see the change
    bell_values = chsh.bell_values

    def halve_multi_point_rows(weights, thetas, bits):
        return bell_values(weights, thetas, bits) * np.where((weights > 0).sum(axis=1) > 1, 0.5, 1.0)

    monkeypatch.setattr(chsh, "bell_values", halve_multi_point_rows)
    code, report = run_json(capsys, "chsh-verify", "--samples", "200", "--seed", "7")
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["witness_replays"]
    witnesses = (report["result"]["complex_witness"], report["result"]["real_witness"])
    assert [len(w["model"]["weights"]) for w in witnesses] == [1, 1]


def test_chsh_verify_fails_when_only_the_batch_decoder_moves(monkeypatch):
    # halved complex phases in _decode_rows alone: every reported row is
    # rebuilt by sample_model, so its replay no longer repeats the batch value
    decode = chsh._decode_rows

    def halved(u, choices):
        weights, thetas, words = decode(u, choices)
        return weights, thetas / 2 if choices is None else thetas, words

    monkeypatch.setattr(chsh, "_decode_rows", halved)
    report = cli.run("chsh-verify", {"samples": 200, "seed": 7})
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["witness_replays"]


def test_chsh_verify_fails_when_the_per_model_combination_moves(monkeypatch):
    # bell_values combines its correlations itself, so the replay through
    # bell_expression is a second route to each value
    correlation = chsh.correlation

    def scaled(model, alice, bob):
        return correlation(model, alice, bob) * (0.9 if alice == "a'" else 1.0)

    monkeypatch.setattr(chsh, "correlation", scaled)
    report = cli.run("chsh-verify", {"samples": 200, "seed": 7})
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["witness_replays"]


def test_chsh_verify_draws_each_block_once(monkeypatch, capsys):
    default_rng, generators = np.random.default_rng, []

    class CountingGenerator:
        """Stands in for a Generator: counts its block draws."""

        def __init__(self, seed):
            self.rng, self.draws = default_rng(seed), 0
            self.bit_generator = self.rng.bit_generator
            generators.append(self)

        def random(self, shape):
            # a block draws (n, 25) uniforms, a rebuilt row 25
            self.draws += isinstance(shape, tuple)
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    for samples, blocks in ((1, 1), (1024, 1), (1025, 2), (2500, 3)):
        generators.clear()
        assert run(capsys, "chsh-verify", "--samples", str(samples), "--seed", "5")[0] == 0
        assert sum(g.draws for g in generators) == blocks


def test_reused_parser_keeps_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "chsh-verify", "--samples", "5", "--seed", "1")[0] == 0
    assert run(capsys, "chsh-verify")[0] == 2
    assert run(capsys, "oracle-check", "--help")[0] == 0
    assert run(capsys, "oracle-check") == (2, "")
    code, report = run_json(capsys, "chsh-achieve")
    assert code == 0
    assert report["config"] == {}


def test_chsh_verify_requires_seed(capsys):
    code, _ = run(capsys, "chsh-verify", "--samples", "10")
    assert code == 2


def test_chsh_optimize(capsys):
    code, report = run_json(capsys, "chsh-optimize", "--grid", "8", "--seed", "1")
    assert code == 0
    value = report["checks"][0]["actual"]
    assert abs(value - TSIRELSON) <= EXACT_TOL
    assert "model" in report["result"]


def test_chsh_achieve_fails_for_a_bob_phase_off_quadrature(monkeypatch, capsys):
    # the value moves with the square of the phase error: 2e-5 moves it by
    # about 1.4e-10, inside BOUND_TOL but not inside EXACT_TOL
    def shifted():
        return chsh._single_point_model(7 * math.pi / 4, 0.0, math.pi / 4, math.pi / 2 + 2e-5)

    monkeypatch.setattr(chsh, "make_achieving_model", shifted)
    code, report = run_json(capsys, "chsh-achieve")
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["bell_expression"]


def test_chsh_optimize_fails_for_a_shifted_optimizer_output(monkeypatch, capsys):
    maximize_bell = chsh.maximize_bell

    def shifted(grid_steps, refine_iters=50, rng_seed=0):
        model, _ = maximize_bell(grid_steps, refine_iters, rng_seed)
        t1, t2, t3, t4 = model.thetas
        moved = model._replace(thetas=(t1, t2, t3, (t4 + 1e-4) % math.tau))
        return moved, chsh.bell_expression(moved)

    monkeypatch.setattr(chsh, "maximize_bell", shifted)
    code, report = run_json(capsys, "chsh-optimize", "--grid", "16", "--seed", "7")
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["optimizer_reaches_tsirelson"]


def test_chsh_optimize_fails_for_an_optimizer_value_above_tsirelson(monkeypatch, capsys):
    # 1e-11 above the proved bound: more than EXACT_TOL, less than BOUND_TOL
    def above(grid_steps, refine_iters=50, rng_seed=0):
        return chsh.make_achieving_model(), TSIRELSON + 1e-11

    monkeypatch.setattr(chsh, "maximize_bell", above)
    code, report = run_json(capsys, "chsh-optimize", "--grid", "16", "--seed", "7")
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["optimizer_reaches_tsirelson"]


def test_chsh_optimize_rejects_a_negative_seed(capsys):
    assert main(["chsh-optimize", "--grid", "8", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: rng_seed must be nonnegative\n")


@pytest.mark.parametrize("command", ["chsh-verify", "oracle-check"])
def test_seeds_follow_the_count_rule(capsys, command):
    assert main([command, "--samples", "5", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must be nonnegative\n")


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


def test_qubit_dist_claims_the_l1_minimum_weight_on_stabilizer_and_magic_states():
    # min_weight_l1 claims the least weight (1 - |r|_1)/8: 0 at the 6
    # stabilizer states, the paper's floor (1 - sqrt(3))/8 at the 8 T-type
    # states (+-1, +-1, +-1)/sqrt(3), and (1 - sqrt(2))/8 at the 12 H-type
    # states, (+-1, +-1, 0)/sqrt(2) and its permutations
    signs = (1.0, -1.0)
    stabilizer = [tuple(s if i == k else 0.0 for i in range(3)) for k in range(3) for s in signs]
    t_type = [tuple(s / math.sqrt(3.0) for s in eps) for eps in itertools.product(signs, repeat=3)]
    h_type = {r for x, y in itertools.product(signs, repeat=2)
              for r in itertools.permutations((x / math.sqrt(2.0), y / math.sqrt(2.0), 0.0))}
    assert (len(stabilizer), len(t_type), len(h_type)) == (6, 8, 12)
    for states, least in ((stabilizer, 0.0), (t_type, (1.0 - math.sqrt(3.0)) / 8.0),
                          (h_type, (1.0 - math.sqrt(2.0)) / 8.0)):
        for r in states:
            report = cli.run("qubit-dist", {"bloch": list(r)})
            checks = {c["name"]: c for c in report["checks"]}
            assert all(c["pass"] for c in report["checks"]), r
            assert abs(checks["min_weight_l1"]["expected"] - least) <= EXACT_TOL, r
            assert abs(min(report["result"]["distribution"]) - least) <= EXACT_TOL, r


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


def _cycle_notation(perm):
    cycles, seen = [], set()
    for start in range(1, 9):
        if start not in seen and perm[start - 1] != start:
            cycle = [start]
            while perm[cycle[-1] - 1] != start:
                cycle.append(perm[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles)


def test_qubit_evolve_claims_a_state_for_48_of_the_384_permutations(capsys):
    # every accepted permutation keeps the pair sums; only 48 map the
    # distribution of r = (0.5, 0.3, 0.1) to a state distribution
    exits, off = [], {}
    for perm in filter(qubit.commutes_with_antipode, itertools.permutations(range(1, 9))):
        text = _cycle_notation(perm)
        assert parse_permutation(text) == perm
        code, report = run_json(capsys, "qubit-evolve", "--bloch", "0.5,0.3,0.1", "--perm", text)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["retroaction_preserved"]["pass"] is True
        assert code == (0 if checks["state_preserved"]["pass"] else 1)
        exits.append(code)
        off[perm] = checks["state_preserved"]["actual"]
    assert len(exits) == 384 and exits.count(0) == 48
    assert off[parse_permutation("(1 2)(7 8)")] == pytest.approx(0.0125, abs=1e-15)


@pytest.mark.parametrize("perm, axis", [("(1 5)(2 6)(3 7)(4 8)", 0), ("(1 3)(2 4)(5 7)(6 8)", 1),
                                         ("(1 2)(3 4)(5 6)(7 8)", 2)])
def test_qubit_evolve_sign_flips_preserve_the_state(capsys, perm, axis):
    # each flips the sign of one axis of r
    for r in ((1.0, 0.0, 0.0), (0.5, 0.3, 0.1), (-0.2, 0.6, -0.7)):
        code, report = run_json(capsys, "qubit-evolve", "--bloch=" + ",".join(map(str, r)), "--perm", perm)
        assert code == 0
        flipped = [-c if k == axis else c for k, c in enumerate(r)]
        assert report["result"]["bloch_after"] == pytest.approx(flipped, abs=1e-15)


def test_qubit_evolve_strict_rejects_bad_permutation(capsys):
    assert run(capsys, "qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 2)") == (2, "")
    # there is no flag that lets such a permutation through
    assert main(["qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 5)(2 6)(3 7)(4 8)",
                 "--permissive"]) == 2
    assert "unrecognized arguments: --permissive" in capsys.readouterr().err


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


def test_oracle_check_does_not_depend_on_the_settings_block(monkeypatch, capsys):
    # 50 settings in 8 blocks or in one
    reports = []
    for block in (7, 1024):
        monkeypatch.setattr(cli, "_SETTINGS_BLOCK", block)
        code, report = run_json(capsys, "oracle-check", "--samples", "50", "--seed", "7")
        assert code == 0
        report.pop("elapsed_ms")
        reports.append(report)
    _assert_same(*reports, "report")


def test_qubit_expect_takes_no_direction(capsys):
    assert main(["qubit-expect", "--bloch", "0.6,0,0.8", "--dir", "0,0,1"]) == 2
    assert "unrecognized arguments: --dir 0,0,1" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_malformed_vector_exits_2(capsys):
    # the model's rules judge a vector; main prints their message, no report
    for argv, message in (
        (("qubit-dist", "--bloch", "2,0,0"), "outside Bloch ball"),
        (("qubit-dist", "--bloch", "1,0"), "Bloch vector must have three components"),
        (("qubit-dist", "--bloch", "nan,0,0"), "outside Bloch ball"),
        (("qubit-search-sign", "--dir", "nan,0,1"), "non-unit direction"),
        (("qubit-search-sign", "--dir", "0,0,2"), "non-unit direction"),
        (("qubit-search-sign", "--dir", "inf,0,1"), "non-unit direction"),
    ):
        assert main(list(argv)) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


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


# bad input, and the flag that fails to parse (None: the library rejects it)
BAD_INPUT = [
    (("qubit-dist", "--bloch", "a,0,0"), "--bloch"),
    (("chsh-verify", "--samples", "x", "--seed", "1"), "--samples"),
    (("qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 2"), "--perm"),
    (("chsh-verify", "--samples", "0", "--seed", "1"), None),
    (("oracle-check", "--samples", "-3", "--seed", "1"), None),
    (("chsh-optimize", "--grid", "3", "--seed", "1"), None),
    (("qubit-dist", "--bloch", "2,0,0"), None),
    (("qubit-evolve", "--bloch", "1,0,0", "--perm", "(1 2)"), None),
    (("chsh-verify", "--samples", "5", "--seed", "-1"), None),
    (("oracle-check", "--samples", "5", "--seed", "-1"), None),
]


@pytest.mark.parametrize("argv, flag", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT])
def test_bad_input_prints_one_error_line(capsys, argv, flag):
    # a flag that does not parse and a value the library rejects take one
    # path: exit 2, no report, one line that names the flag if it did not parse
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert err.startswith(f"error: {flag}: ") if flag else not err.startswith("error: --")


# (command, flag) for every flag of every command, each of them required
REQUIRED_FLAGS = [(name, flag) for name, command in cli.COMMANDS.items() for flag, _ in command.args]


@pytest.mark.parametrize("command, flag", REQUIRED_FLAGS, ids=[" ".join(pair) for pair in REQUIRED_FLAGS])
def test_missing_required_flag_is_an_argparse_usage_error(capsys, command, flag):
    # argparse, not run's missing-key check, turns the flag away; argparse
    # parses no value, so "1" stands for each other flag
    others = [arg for other, _ in cli.COMMANDS[command].args if other != flag for arg in (other, "1")]
    assert main([command, *others]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"qlhv {command}: error: the following arguments are required: {flag}"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_lists_the_report_flags_before_the_command_flags(capsys, command):
    assert main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # argparse may wrap a long usage line, so whitespace is compared collapsed
    usage = " ".join(out.split("\n\n")[0].split())
    # every command flag is required, so none is in brackets
    own = [f"{flag} {flag[2:].upper()}" for flag, _ in cli.COMMANDS[command].args]
    assert usage == " ".join([f"usage: qlhv {command} [-h] [--out OUT] [--format {{json,csv}}]", *own])


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_handler_reads_the_config_that_the_report_prints(monkeypatch, argv):
    seen = {}

    def handler(config):
        seen["config"] = config
        return [], None

    def render(report, fmt):
        seen["report"] = report
        return ""

    monkeypatch.setitem(cli.COMMANDS, argv[0], cli.COMMANDS[argv[0]]._replace(run=handler))
    monkeypatch.setattr(cli, "render_report", render)
    assert main(argv) == 0
    assert type(seen["config"]) is dict and seen["report"]["config"] is seen["config"]
    # keyed by the given flags, each value parsed
    assert list(seen["config"]) == [arg[2:] for arg in argv if arg.startswith("--")]
    assert not any(isinstance(value, str) for value in seen["config"].values())


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_run_returns_the_report_that_main_prints(capsys, argv):
    # a printed report's command and config rerun in process
    _, printed = run_json(capsys, *argv)
    report = json.loads(cli.render_report(cli.run(printed["command"], printed["config"]), "json"))
    assert capsys.readouterr() == ("", "")
    report["elapsed_ms"] = printed["elapsed_ms"]
    assert list(report.items()) == list(printed.items())


# a config that main never builds but a recorded report could carry
MALFORMED_CONFIG = [
    ("nope", {}, "unknown command: 'nope'"),
    ("chsh-verify", {"samples": 200}, "chsh-verify: missing config key 'seed'"),
    ("oracle-check", {}, "oracle-check: missing config key 'samples'"),
    ("qubit-expect", {"bloch": [0.6, 0, 0.8], "dir": [0, 0, 1]}, "qubit-expect: unknown config key 'dir'"),
    ("qubit-dist", {"bloch": [0, 0, 1], "extra": 1}, "qubit-dist: unknown config key 'extra'"),
    ("ghz-verify", [], "ghz-verify: config must be a dict, got []"),
    ("ghz-verify", None, "ghz-verify: config must be a dict, got None"),
    (["ghz-verify"], {}, "unknown command: ['ghz-verify']"),
    # the seed is judged before the sample count
    ("chsh-verify", {"samples": 0, "seed": -1}, "seed must be nonnegative"),
    ("chsh-verify", {"samples": 200, "seed": "7"},
     "chsh-verify: config value 'seed' must be a number or a list of numbers, got '7'"),
    ("chsh-optimize", {"grid": True, "seed": 7},
     "chsh-optimize: config value 'grid' must be a number or a list of numbers, got True"),
    ("qubit-dist", {"bloch": [[0.6], 0.8, 0.0]},
     "qubit-dist: config value 'bloch' must be a number or a list of numbers, got [[0.6], 0.8, 0.0]"),
]


@pytest.mark.parametrize("command, config, message", MALFORMED_CONFIG,
                         ids=[message for _, _, message in MALFORMED_CONFIG])
def test_run_rejects_a_malformed_config(command, config, message):
    with pytest.raises(ValueError) as error:
        cli.run(command, config)
    assert str(error.value) == message


# configs of numpy numbers, which main never builds, and the argv whose
# report run must then return
NUMPY_CONFIGS = [
    ("qubit-dist", {"bloch": np.array([0.6, 0.8, 0.0])}, ("--bloch", "0.6,0.8,0.0")),
    ("chsh-verify", {"samples": np.int64(200), "seed": np.int64(7)}, ("--samples", "200", "--seed", "7")),
    ("chsh-optimize", {"grid": np.int64(16), "seed": np.int64(7)}, ("--grid", "16", "--seed", "7")),
    ("oracle-check", {"samples": np.int64(5), "seed": np.int64(1)}, ("--samples", "5", "--seed", "1")),
]


@pytest.mark.parametrize("command, config, flags", NUMPY_CONFIGS, ids=[c[0] for c in NUMPY_CONFIGS])
def test_run_stores_numpy_config_values_as_python_numbers(capsys, command, config, flags):
    report = cli.run(command, config)
    assert all(type(v) in (int, float) or type(v) is list and {type(x) for x in v} <= {int, float}
               for v in report["config"].values()), report["config"]
    rendered = json.loads(cli.render_report(report, "json"))
    _, printed = run_json(capsys, command, *flags)
    rendered["elapsed_ms"] = printed["elapsed_ms"]
    _assert_same(printed, rendered, "report")


def test_run_raises_on_bad_input_and_prints_nothing(capsys):
    with pytest.raises(ValueError, match="^outside Bloch ball$"):
        cli.run("qubit-dist", {"bloch": [2, 0, 0]})
    assert capsys.readouterr() == ("", "")


def test_main_renders_the_report_of_run(monkeypatch, capsys):
    report = {"command": "ghz-enumerate", "checks": [{"pass": False}]}
    monkeypatch.setattr(cli, "run", lambda command, config: report)
    monkeypatch.setattr(cli, "render_report", lambda given, fmt: f"{given is report} {fmt}\n")
    assert main(["ghz-enumerate", "--format", "csv"]) == 1
    assert capsys.readouterr() == ("True csv\n", "")


def test_rules_fail_outside_tolerance_and_on_nan():
    tol = 1e-6
    assert RULES["close"](TSIRELSON, TSIRELSON - 0.5 * tol, tol)
    assert not RULES["close"](TSIRELSON, TSIRELSON + 2.0 * tol, tol)
    assert not RULES["close"](TSIRELSON, TSIRELSON - 2.0 * tol, tol)
    for rule in ("equal", "close", "at_most", "at_least"):
        assert not RULES[rule](1.0, math.nan, 1e-9), rule


def _assert_same(expected, actual, path):
    """Exact equality, of floats too, and of each value's type."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        assert expected.keys() == actual.keys(), path
        for key in expected:
            _assert_same(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(expected) == len(actual), path
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{index}]")
    else:
        assert type(actual) is type(expected) and actual == expected, path


@pytest.mark.parametrize("case", PINNED, ids=[" ".join(c["argv"]) for c in PINNED])
def test_report_matches_pinned(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    if "csv" in case["argv"]:
        assert list(csv.reader(io.StringIO(out))) == case["output"]
    else:
        report = json.loads(out)
        report.pop("elapsed_ms")
        _assert_same(case["output"], report, "report")


@pytest.mark.parametrize("argv", [
    ("qubit-expect", "--bloch", "0.3,-0.2,0.4"),
    ("qubit-evolve", "--bloch", "0.3,-0.2,0.4", "--perm", "(1 5)(2 6)(3 7)(4 8)"),
], ids=["qubit-expect", "qubit-evolve"])
def test_qubit_reports_do_not_depend_on_how_sum_adds(monkeypatch, capsys, argv):
    # sum() compensates float sums from CPython 3.12, as math.fsum does: a
    # report that went through it would differ by interpreter
    reports = []
    for compensated in (False, True):
        if compensated:
            monkeypatch.setattr(qubit, "sum", math.fsum, raising=False)
        code, report = run_json(capsys, *argv)
        assert code == 0
        report.pop("elapsed_ms")
        reports.append(report)
    _assert_same(*reports, "report")


def test_pinned_reports_are_in_the_layout_record_pinned_writes():
    # tests/data/record_pinned.py re-records nothing in a file of another layout
    assert json.dumps(json.loads(PINNED_TEXT), indent=1) == PINNED_TEXT
