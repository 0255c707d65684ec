"""The three benchmark workloads and the correctness gate every pass goes through.

A workload runs passes.  Every pass of a run repeats the same inputs, drawn
from the run seed, so that call i of one pass is the same work as call i of
any other; each pass times its calls from outside and checks every output
against values and tolerances owned here (the acceptance tests' tolerances).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# Expected values and tolerances of the gate.
TSIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
NEGATIVE_WEIGHT = (1.0 - math.sqrt(3.0)) / 8.0
OPTIMUM_TOL = 1e-6
BOUND_TOL = 1e-9
QUBIT_TOL = 1e-12

# Input sizes of one pass.
SIZES = {
    "chsh-sweep": {"samples": 1_000},
    "claim-library": {"settings": 2_000, "models": 2_000, "states": 1_000,
                      "grids": (8, 16, 32), "optimizer_seeds": 4},
    "cli-claims": {"verify_samples": 200, "optimize_grid": 16, "oracle_samples": 50},
}

# Sign of the x, y, z components at hidden values 1..8, lexicographic in
# (+, -): the gate's own copy, used to predict qubit-dist weights.
_SIGNS = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], dtype=float)

# Permutations of 1..8 that commute with m -> 9-m, in cycle notation.
_PERMUTATIONS = {
    "(1 5)(2 6)(3 7)(4 8)": (5, 6, 7, 8, 1, 2, 3, 4),
    "(1 3)(2 4)(5 7)(6 8)": (3, 4, 1, 2, 7, 8, 5, 6),
    "(1 2)(3 4)(5 6)(7 8)": (2, 1, 4, 3, 6, 5, 8, 7),
}


class Reference:
    """Paired timing against a fixed reference kernel owned by the benchmark.

    The machine is shared, and other tenants slow this CPU by up to 2x for
    seconds at a time.  The kernel runs right before each timed call (at
    most every ``EVERY_S`` seconds; long calls are bracketed by a run before
    and after) and a call's time is reported as wall time x ``NOMINAL_S`` /
    the kernel's time: seconds at the speed at which the kernel takes
    ``NOMINAL_S``.  The kernel runs no qlhv code, so a change to qlhv cannot
    move it.
    """

    NOMINAL_S = 0.004   # a fixed scale: the kernel's fastest run medians on the machine of BENCH_1.json
    EVERY_S = 0.05

    def __init__(self):
        self.scale = 1.0
        self.raw: list[float] = []
        self._due = 0.0

    @staticmethod
    def kernel() -> None:
        rows = {}
        acc = 0.0
        for i in range(400):
            w = np.asarray((0.25, 0.5, 0.125, 0.125), dtype=float)
            bits = np.asarray((1, 0, 1, 1), dtype=int)
            parity = 1.0 - 2.0 * ((bits + i) % 2)
            acc += abs(complex(np.exp(1j * (i * 0.01))) * complex(np.dot(w, parity)))
            rows[i & 31] = tuple(float(x) for x in w)

    def paired(self, seconds: float, before: float) -> float:
        """``seconds`` of a call bracketed by two kernel timings: ``before``
        (``raw[-1]`` when the call began) and one taken now."""
        self.refresh(force=True)
        return seconds * 2.0 * self.NOMINAL_S / (before + self.raw[-1])

    def refresh(self, force: bool = False) -> None:
        """Re-time the kernel if it is due (or forced) and update the scale."""
        if force or time.perf_counter() >= self._due:
            start = time.perf_counter()
            self.kernel()
            took = time.perf_counter() - start
            self.raw.append(took)
            self.scale = self.NOMINAL_S / took
            self._due = time.perf_counter() + self.EVERY_S


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class Gate:
    """Counts correctness checks; every miss counts in fail_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)
        return bool(ok)

    def report(self, gate_name: str, rc: int, text: str, command: str):
        """Exit code 0, strict JSON, the right command and every check passed;
        returns the parsed report, or None when it cannot be read."""
        self.check(rc == 0, f"{gate_name}: exit code {rc}")
        try:
            report = strict_json(text)
        except ValueError as exc:
            self.check(False, f"{gate_name}: report is not strict JSON ({exc})")
            return None
        self.check(report.get("command") == command, f"{gate_name}: command {report.get('command')!r}")
        for item in report.get("checks", []):
            self.check(item.get("pass") is True, f"{gate_name}: check {item.get('name')} failed")
        self.check(bool(report.get("checks")), f"{gate_name}: report has no checks")
        return report


def random_bloch(rng) -> list[float]:
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        if float(r @ r) <= 1.0:
            return [float(c) for c in r]


@dataclass
class Pass:
    wall: float = 0.0
    calls: list = field(default_factory=list)       # per-call latencies, seconds
    phases: dict = field(default_factory=dict)      # phase -> (first call, end call, items)
    peak_rss_kb: int = 0
    children: list = field(default_factory=list)    # cli-claims: per-process records


def _checks_by_name(report) -> dict:
    return {item["name"]: item for item in report.get("checks", [])}


# ---------------------------------------------------------------- chsh-sweep

def expect_chsh_verify(gate: Gate, name: str, report, samples: int, seed: int) -> None:
    checks = _checks_by_name(report)
    gate.check(report.get("config") == {"samples": samples, "seed": seed}, f"{name}: config")
    complex_max = checks.get("max_bell_complex_leq_tsirelson", {}).get("actual")
    real_max = checks.get("max_bell_real_leq_classical", {}).get("actual")
    gap = checks.get("analytic_bound_dominance_gap", {}).get("actual")
    gate.check(complex_max is not None and complex_max <= TSIRELSON + BOUND_TOL,
               f"{name}: complex max {complex_max}")
    gate.check(real_max is not None and real_max <= CLASSICAL + BOUND_TOL, f"{name}: real max {real_max}")
    gate.check(gap is not None and gap <= BOUND_TOL, f"{name}: dominance gap {gap}")


class ChshSweep:
    """`cli.main(["chsh-verify", ...])` in-process: criterion 2's computation.
    A pass is one call of 10^3 samples (2 x 10^3 models), not 10^4, so that a
    run repeats it often enough for a steady median on a shared machine."""

    probe_mode = "sweep"
    in_process = True

    def __init__(self, src: Path):
        from qlhv import cli
        self.cli = cli

    def run_pass(self, seed: int, index: int, gate: Gate, ref: Reference, tracer=None) -> Pass:
        samples = SIZES["chsh-sweep"]["samples"]
        argv = ["chsh-verify", "--samples", str(samples), "--seed", str(seed)]
        out = io.StringIO()
        ref.refresh(force=True)
        before = ref.raw[-1]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        wall = time.perf_counter() - start
        name = f"pass {index}"
        report = gate.report(name, rc, out.getvalue(), "chsh-verify")
        if report is not None:
            expect_chsh_verify(gate, name, report, samples, seed)
        return Pass(wall=wall, calls=[ref.paired(wall, before)], phases={"models": (0, 1, 2 * samples)})


# ---------------------------------------------------------------- claim-library

class ClaimLibrary:
    """The per-call library path of acceptance criteria 9, 2, 6 and 3."""

    probe_mode = "library"
    in_process = True

    def __init__(self, src: Path):
        from qlhv import chsh, oracle, qubit
        self.chsh, self.oracle, self.qubit = chsh, oracle, qubit

    def run_pass(self, seed: int, index: int, gate: Gate, ref: Reference, tracer=None) -> Pass:
        chsh, oracle, qubit = self.chsh, self.oracle, self.qubit
        size = SIZES["claim-library"]
        clock = time.perf_counter
        inputs = np.random.default_rng(seed)
        dirs = inputs.standard_normal((size["settings"], 4, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        s = 1.0 / math.sqrt(2.0)
        settings = [((1, 0, 0), (0, 1, 0), (s, s, 0.0), (s, -s, 0.0))] + list(dirs)
        blochs = [(1 / math.sqrt(3.0),) * 3] + [random_bloch(inputs) for _ in range(size["states"])]
        optimizer_seeds = [int(v) for v in inputs.integers(0, 2**31, size["optimizer_seeds"])]
        model_rng = np.random.default_rng(int(inputs.integers(0, 2**31)))
        result = Pass()
        calls = result.calls
        started = clock()

        # criterion 9: quantum CHSH values
        for number, quad in enumerate(settings):
            ref.refresh()
            t = clock()
            value = oracle.chsh_quantum_value(*quad)
            calls.append(ref.scale * (clock() - t))
            if number == 0:
                gate.check(abs(value - TSIRELSON) <= OPTIMUM_TOL, f"optimal settings value {value}")
            else:
                gate.check(value <= TSIRELSON + BOUND_TOL, f"settings {number} value {value}")
        result.phases["settings"] = (0, len(calls), len(settings))

        # criterion 2: one model at a time, complex then real phases
        mark = len(calls)
        half = size["models"] // 2
        for number in range(size["models"]):
            real = number >= half
            ref.refresh()
            t = clock()
            model = chsh.sample_model(model_rng, phase_choices=(0.0, math.pi) if real else None)
            value = chsh.bell_expression(model)
            bound = chsh.analytic_bound(model.thetas[1], model.thetas[3])
            calls.append(ref.scale * (clock() - t))
            limit = CLASSICAL if real else TSIRELSON
            gate.check(value <= limit + BOUND_TOL, f"model {number} value {value}")
            gate.check(value <= bound + BOUND_TOL, f"model {number} above its bound {bound}")
        result.phases["models"] = (mark, len(calls), size["models"])

        # criterion 6: qubit states against the oracle
        mark = len(calls)
        axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        for number, r in enumerate(blochs):
            ref.refresh()
            t = clock()
            dist = qubit.state_distribution(r)
            retro = qubit.retroaction_check(dist)
            lhv = [qubit.axis_expectation(dist, axis) for axis in qubit.AXES]
            quantum = [oracle.qubit_expectation(r, n) for n in axes]
            calls.append(ref.scale * (clock() - t))
            w = dist.weights
            gate.check(retro, f"state {number}: retroaction")
            gate.check(all(abs(w[m] + w[7 - m] - 0.25) <= QUBIT_TOL for m in range(4)),
                       f"state {number}: pair sums")
            gate.check(all(abs(a - c) <= QUBIT_TOL for a, c in zip(lhv, r)), f"state {number}: expectations")
            gate.check(all(abs(a - q) <= QUBIT_TOL for a, q in zip(lhv, quantum)),
                       f"state {number}: oracle agreement")
            if number == 0:
                gate.check(abs(w[7] - NEGATIVE_WEIGHT) <= QUBIT_TOL, f"negative weight {w[7]}")
        result.phases["states"] = (mark, len(calls), len(blochs))

        # criterion 3: the optimizer
        mark = len(calls)
        for grid in size["grids"]:
            for opt_seed in optimizer_seeds:
                ref.refresh()
                t = clock()
                _, value = chsh.maximize_bell(grid, 50, opt_seed)
                calls.append(ref.scale * (clock() - t))
                gate.check(TSIRELSON - OPTIMUM_TOL <= value <= TSIRELSON + BOUND_TOL,
                           f"maximize_bell({grid}, seed {opt_seed}) = {value}")
        result.phases["optimizer"] = (mark, len(calls), len(calls) - mark)
        result.wall = clock() - started
        return result


# ---------------------------------------------------------------- cli-claims

def run_child(argv, env) -> tuple[int, str, float, int, float]:
    """Run one child to completion: (exit code, stdout, wall seconds, peak RSS
    in KiB, seconds until its first output line).  Its stderr passes through."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        first_line_s = time.perf_counter() - start
        out = first + proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss, first_line_s


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def cli_commands(seed: int) -> list:
    """The ten README subcommands with seeded inputs: [(argv, expect)]."""
    size = SIZES["cli-claims"]
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, 2**31))

    def fmt(vec):
        return ",".join(repr(float(c)) for c in vec)

    dist_r, expect_r, evolve_r = random_bloch(rng), random_bloch(rng), random_bloch(rng)
    if rng.random() < 0.5:
        direction = [0.0, 0.0, 0.0]
        direction[int(rng.integers(3))] = float(rng.choice((-1.0, 1.0)))
    else:
        direction = rng.standard_normal(3)
        direction = [float(c) for c in direction / np.linalg.norm(direction)]
    perm_text = list(_PERMUTATIONS)[int(rng.integers(len(_PERMUTATIONS)))]
    return [
        (["chsh-achieve"], lambda g, n, r: _expect_close(g, n, r, "bell_expression", TSIRELSON, BOUND_TOL)),
        (["chsh-verify", "--samples", str(size["verify_samples"]), "--seed", str(s)],
         lambda g, n, r: expect_chsh_verify(g, n, r, size["verify_samples"], s)),
        (["chsh-optimize", "--grid", str(size["optimize_grid"]), "--seed", str(s)],
         lambda g, n, r: _expect_close(g, n, r, "optimizer_reaches_tsirelson", TSIRELSON, OPTIMUM_TOL)),
        (["ghz-enumerate"], _expect_ghz_enumerate),
        (["ghz-verify"], _expect_ghz_verify),
        (["qubit-dist", f"--bloch={fmt(dist_r)}"], lambda g, n, r: _expect_dist(g, n, r, dist_r)),
        (["qubit-expect", f"--bloch={fmt(expect_r)}"], lambda g, n, r: _expect_axes(g, n, r, expect_r)),
        (["qubit-search-sign", f"--dir={fmt(direction)}"], lambda g, n, r: _expect_sign(g, n, r, direction)),
        (["qubit-evolve", f"--bloch={fmt(evolve_r)}", "--perm", perm_text],
         lambda g, n, r: _expect_evolve(g, n, r, _PERMUTATIONS[perm_text])),
        (["oracle-check", "--samples", str(size["oracle_samples"]), "--seed", str(s)], _expect_oracle),
    ]


def _expect_close(gate, name, report, check, expected, tol):
    actual = _checks_by_name(report).get(check, {}).get("actual")
    gate.check(actual is not None and abs(actual - expected) <= tol, f"{name}: {check} = {actual}")


def _expect_ghz_enumerate(gate, name, report):
    checks = _checks_by_name(report)
    gate.check(checks.get("assignment_count", {}).get("actual") == 512, f"{name}: assignment count")
    for pattern in ("xyy", "yxy", "yyx"):
        gate.check(checks.get(f"condition_set_size_{pattern}", {}).get("actual") == 256,
                   f"{name}: condition set {pattern}")


def _expect_ghz_verify(gate, name, report):
    checks = _checks_by_name(report)
    expected = {"intersection_size": 32, "xxx_product_constant": "-i", "joint_condition_solutions": 64,
                "xxx_constant_on_joint_solutions": "-i", "classical_parity_constant": 1}
    for check, value in expected.items():
        gate.check(checks.get(check, {}).get("actual") == value, f"{name}: {check}")
    gate.check(len(report.get("result", {}).get("intersection", [])) == 32, f"{name}: exported intersection")


def _expect_dist(gate, name, report, r):
    weights = report.get("result", {}).get("distribution", [])
    predicted = (1.0 + _SIGNS @ np.asarray(r)) / 8.0
    gate.check(len(weights) == 8 and np.all(np.abs(np.asarray(weights) - predicted) <= QUBIT_TOL),
               f"{name}: weights")
    gate.check(len(weights) == 8 and all(abs(weights[m] + weights[7 - m] - 0.25) <= QUBIT_TOL
                                         for m in range(4)), f"{name}: pair sums")


def _expect_axes(gate, name, report, r):
    for idx, axis in enumerate("xyz"):
        _expect_close(gate, name, report, f"expectation_{axis}", r[idx], QUBIT_TOL)


def _expect_sign(gate, name, report, direction):
    axis_aligned = sorted(abs(c) for c in direction) == [0.0, 0.0, 1.0]
    found = report.get("result", {}).get("signs") is not None
    gate.check(found == axis_aligned, f"{name}: sign function exists = {found}")


def _expect_evolve(gate, name, report, perm):
    result = report.get("result", {})
    before, after = result.get("before", []), result.get("after", [])
    gate.check(len(before) == 8 and after == [before[perm[m] - 1] for m in range(8)], f"{name}: pulled-back weights")
    gate.check("retroaction_preserved" in _checks_by_name(report), f"{name}: retroaction checked")


def _expect_oracle(gate, name, report):
    _expect_close(gate, name, report, "tsirelson_optimal_settings", TSIRELSON, OPTIMUM_TOL)
    worst = _checks_by_name(report).get("random_settings_max_leq_tsirelson", {}).get("actual")
    gate.check(worst is not None and worst <= TSIRELSON + BOUND_TOL, f"{name}: random settings max {worst}")


class CliClaims:
    """The ten subcommands, each a fresh process, one after another."""

    probe_mode = "cli"
    in_process = False

    def __init__(self, src: Path):
        self.env = child_env(src)

    def run_pass(self, seed: int, index: int, gate: Gate, ref: Reference, tracer=None) -> Pass:
        result = Pass()
        for argv, expect in cli_commands(seed):
            if tracer is None:
                child = [sys.executable, "-m", "qlhv.cli", *argv]
            else:
                child = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
            ref.refresh(force=True)
            before = ref.raw[-1]
            rc, out, wall, rss_kb, _ = run_child(child, self.env)
            paired_wall = ref.paired(wall, before)
            record = {"command": argv[0], "wall": wall}
            name = f"pass {index} {argv[0]}"
            text = out
            if tracer is not None:
                try:
                    payload = strict_json(out)
                    rc, text = payload["rc"], payload["report"]
                except ValueError as exc:
                    gate.check(False, f"{name}: child output ({exc})")
                    payload = None
                if payload is not None:
                    record.update(import_s=payload["import_s"], main_s=payload["main_s"])
                    tracer.absorb(payload["names"], payload["spans"], index)
            report = gate.report(name, rc, text, argv[0])
            if report is not None:
                expect(gate, name, report)
            if argv[0] == "chsh-verify":
                position = len(result.calls)
                result.phases["models"] = (position, position + 1, 2 * int(argv[2]))
            result.calls.append(paired_wall)
            result.wall += wall
            result.peak_rss_kb = max(result.peak_rss_kb, rss_kb)
            result.children.append(record)
        return result

