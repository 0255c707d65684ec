"""Command-line runner: one subcommand per experiment family.

Every command emits a machine-readable report ({command, version, config,
checks, elapsed_ms}, JSON by default, CSV as a flat check table) and exits
0 only if every check passes.  Randomized commands require an explicit
seed, so reports are reproducible by construction.

A command is one record of COMMANDS: help text, (flag, parse, required)
triples and a handler.  argparse reads each flag as text; main converts the
given flags once, each by its parse, into config, keyed by flag name without
"--", which is both the handler's only argument and the report's config.
A flag that does not parse raises ValueError naming it; the library judges
every parsed value, counts and seeds by tolerances.count.  Either
ValueError prints one "error: ..." line and exits 2.

run(command, config) turns a config into its report and is the one place
that judges claims: a handler returns its claims (name, expected, actual,
rule, tolerance) and an optional result payload, and RULES decides each
claim's pass.  It prints nothing, so a recorded report's command and config
rerun in process.  main is its shell: argv to config, the exit code 2 on
bad input, and rendering and writing the report.  The console script and
`python -m qlhv.cli` call sys.exit(main()).
chsh-verify's result names its maximal models, with their records, and two
spot rows, which --seed and the index replay; one claim replays all of them
by the per-model route.

numpy is imported only by chsh-verify, for its generator and arrays, and by
oracle-check, for the oracle's matrices and its random settings; the other
eight commands, chsh-optimize and qubit-expect among them, run in plain
Python.  Each handler imports the one qlhv module it runs: chsh-* load chsh,
ghz-* load ghz (and its quaternions), qubit-* load qubit, and qubit-expect
and oracle-check load oracle; csv is imported only by the CSV format.  So a
command's process compiles no module that it does not run.

main(argv) may be called repeatedly in one process: the parser is built on
the first call and reused, and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .tolerances import (
    BOUND_TOL,
    CLASSICAL,
    EXACT_TOL,
    NEGATIVE_WEIGHT_FLOOR,
    OPTIMUM_TOL,
    TSIRELSON,
    count,
)


# ---------------------------------------------------------------- arguments

def parse_permutation(text: str):
    """Parse disjoint cycle notation over 1..8, e.g. "(1 5)(2 6)(3 7)(4 8)".
    The empty string is the identity.  Elements may not repeat."""
    if not re.fullmatch(r"\s*(\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)*", text):
        raise ValueError(f"malformed permutation: {text!r}")
    cycles = [[int(tok) for tok in re.findall(r"\d+", body)]
              for body in re.findall(r"\(([^()]*)\)", text)]
    elements = [value for cycle in cycles for value in cycle]
    if not all(1 <= value <= 8 for value in elements) or len(set(elements)) < len(elements):
        raise ValueError(f"permutation elements must be distinct and in 1..8: {text!r}")
    mapping = {m: m for m in range(1, 9)}
    for cycle in cycles:
        for pos, value in enumerate(cycle):
            mapping[value] = cycle[(pos + 1) % len(cycle)]
    return tuple(mapping[m] for m in range(1, 9))


def _vector3(text: str) -> tuple[float, ...]:
    """Comma-separated floats; the model's rules judge the vector."""
    return tuple(float(p) for p in text.split(","))


# ---------------------------------------------------------------- claims

# rule -> pass(expected, actual, tolerance); written so that NaN fails.
# `reaches` allows the tolerance below the expected value but only
# BOUND_TOL above it.
RULES = {
    "equal": lambda expected, actual, tol: actual == expected,
    "close": lambda expected, actual, tol: abs(actual - expected) <= tol,
    "at_most": lambda expected, actual, tol: actual <= expected + tol,
    "at_least": lambda expected, actual, tol: actual >= expected - tol,
    "reaches": lambda expected, actual, tol: expected - tol <= actual <= expected + BOUND_TOL,
}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    import csv
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=("name", "expected", "actual", "tolerance", "pass"))
    writer.writeheader()
    writer.writerows(report["checks"])   # csv writes None as ""
    return buffer.getvalue()


# ---------------------------------------------------------------- handlers

def _chsh_achieve(config):
    from . import chsh
    model = chsh.make_achieving_model()
    claims = [("bell_expression", TSIRELSON, chsh.bell_expression(model), "close", BOUND_TOL)]
    correlations = {f"E({a},{b})": chsh.correlation(model, a, b)
                    for a in chsh.ALICE_SETTINGS for b in chsh.BOB_SETTINGS}
    # JSON has no complex numbers: each correlation is written as [re, im]
    return claims, {"model": chsh.model_to_dict(model),
                    "correlations": {k: [z.real, z.imag] for k, z in correlations.items()}}


def _chsh_verify(config):
    import numpy as np
    from . import chsh
    rng = np.random.default_rng(count(config["seed"], "seed", 0))
    complex_max, real_max, gap, spots = chsh.bell_sweep(rng, config["samples"])
    witnesses = {name: {"index": w.index, "value": w.value, "model": chsh.model_to_dict(w.model)}
                 for name, w in (("complex_witness", complex_max), ("real_witness", real_max))}
    # the scalar route replays each witness from its printed record, and each
    # spot row, which --seed and its index replay, in process
    replayed = [(chsh.model_from_dict(w["model"]), w["value"]) for w in witnesses.values()]
    replayed += [(w.model, w.value) for w in spots]
    replay = max(abs(chsh.bell_expression(model) - value) for model, value in replayed)
    claims = [
        ("max_bell_complex_leq_tsirelson", TSIRELSON, complex_max.value, "at_most", BOUND_TOL),
        ("max_bell_real_leq_classical", CLASSICAL, real_max.value, "at_most", BOUND_TOL),
        ("analytic_bound_dominance_gap", 0.0, gap, "at_most", BOUND_TOL),
        ("witness_replays", 0.0, replay, "close", EXACT_TOL),
    ]
    return claims, {**witnesses, "spot_rows": [{"index": w.index, "value": w.value} for w in spots]}


def _chsh_optimize(config):
    from . import chsh
    model, value = chsh.maximize_bell(config["grid"], rng_seed=config["seed"])
    claims = [("optimizer_reaches_tsirelson", TSIRELSON, value, "reaches", OPTIMUM_TOL)]
    return claims, {"model": chsh.model_to_dict(model)}


def _ghz_enumerate(config):
    from . import ghz
    claims = [("assignment_count", 512, len(ghz.enumerate_assignments()), "equal", None)]
    claims += [(f"condition_set_size_{p}", 256, len(ghz.condition_set(p)), "equal", None)
               for p in ghz.PATTERNS]
    return claims, None


def _ghz_verify(config):
    from . import ghz

    def products(assignments):
        return "/".join(sorted({str(ghz.xxx_product(a)) for a in assignments}))

    aligned = ghz.ghz_intersection()
    joint = ghz.full_intersection()
    parity = ghz.classical_parity_check()
    claims = [
        ("intersection_size", 32, len(aligned), "equal", None),
        ("xxx_product_constant", "-i", products(aligned), "equal", None),
        ("joint_condition_solutions", 64, len(joint), "equal", None),
        ("xxx_constant_on_joint_solutions", "-i", products(joint), "equal", None),
        ("classical_parity_constant", 1, parity.constant_product, "equal", None),
    ]
    return claims, {"classical_satisfying_count": parity.satisfying_count,
                    "intersection": ghz.export_assignments(aligned)}


def _qubit_dist(config):
    from . import qubit
    dist = qubit.state_distribution(config["bloch"])
    claims = [
        ("retroaction", True, qubit.retroaction_check(dist), "equal", None),
        ("min_weight_floor", NEGATIVE_WEIGHT_FLOOR, min(dist.weights), "at_least", EXACT_TOL),
    ]
    return claims, {"distribution": list(dist.weights)}


def _qubit_expect(config):
    from . import oracle, qubit
    dist = qubit.state_distribution(config["bloch"])
    claims = []
    for idx, axis in enumerate(qubit.AXES):
        lhv = qubit.axis_expectation(dist, axis)
        quantum = oracle.qubit_expectation(config["bloch"], tuple(float(i == idx) for i in range(3)))
        claims.append((f"expectation_{axis}", config["bloch"][idx], lhv, "close", EXACT_TOL))
        claims.append((f"oracle_agreement_{axis}", quantum, lhv, "close", EXACT_TOL))
    if "dir" not in config:
        return claims, None
    return claims, {"oracle_direction_expectation": oracle.qubit_expectation(config["bloch"], config["dir"])}


def _qubit_search_sign(config):
    from . import qubit
    found = qubit.sign_function_search(config["dir"])
    magnitudes = sorted(abs(c) for c in config["dir"])
    on_axis = all(abs(m - t) <= BOUND_TOL for m, t in zip(magnitudes, (0.0, 0.0, 1.0)))
    claims = [("sign_function_exists", on_axis, found is not None, "equal", None)]
    return claims, {"signs": None if found is None else list(found)}


def _qubit_evolve(config):
    from . import qubit
    dist = qubit.state_distribution(config["bloch"])
    evolved = qubit.evolve_permutation(dist, config["perm"])
    # the evolved weights are a state iff they are the distribution of their
    # own axis expectations r', which lie in the Bloch ball for every accepted s
    bloch_after = [qubit.axis_expectation(evolved, axis) for axis in qubit.AXES]
    state = qubit.state_distribution(bloch_after)
    off = max(abs(a - b) for a, b in zip(evolved.weights, state.weights))
    claims = [("retroaction_preserved", True, qubit.retroaction_check(evolved), "equal", None),
              ("state_preserved", 0.0, off, "close", EXACT_TOL)]
    return claims, {"before": list(dist.weights), "after": list(evolved.weights),
                    "bloch_after": bloch_after}


def _oracle_check(config):
    samples = count(config.get("samples", 0), "samples", 0)
    seed = count(config.get("seed", 0), "seed", 0)
    if samples and "seed" not in config:
        raise ValueError("--samples requires --seed")
    import numpy as np
    from . import oracle
    state = oracle.ghz_state()
    claims = [(f"eigenrelation_{axes}_{'plus' if sign > 0 else 'minus'}", True,
               oracle.verify_eigenrelation(oracle.three_party_operator(axes), state, sign),
               "equal", None)
              for axes, sign in (("xyy", 1), ("yxy", 1), ("yyx", 1), ("xxx", -1))]
    s = 1.0 / math.sqrt(2.0)
    optimal = oracle.chsh_quantum_value((1, 0, 0), (0, 1, 0), (s, s, 0.0), (s, -s, 0.0))
    claims.append(("tsirelson_optimal_settings", TSIRELSON, optimal, "close", OPTIMUM_TOL))
    if samples:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            dirs = rng.standard_normal((4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            worst = max(worst, oracle.chsh_quantum_value(*dirs))
        claims.append(("random_settings_max_leq_tsirelson", TSIRELSON, worst, "at_most", BOUND_TOL))
    return claims, None


# ---------------------------------------------------------------- commands

class Command(NamedTuple):
    help: str
    run: Callable
    args: tuple = ()    # (flag, parse, required) triples


_SEED = ("--seed", int, True)
_BLOCH = ("--bloch", _vector3, True)

COMMANDS = {
    "chsh-achieve": Command("evaluate the saturating configuration", _chsh_achieve),
    "chsh-verify": Command("randomized Bell-bound sweep", _chsh_verify, (
        ("--samples", int, True), _SEED)),
    "chsh-optimize": Command("numerical Bell maximizer", _chsh_optimize, (
        ("--grid", int, True), _SEED)),
    "ghz-enumerate": Command("count assignments and condition sets", _ghz_enumerate),
    "ghz-verify": Command("intersection, product and parity checks", _ghz_verify),
    "qubit-dist": Command("hidden-variable distribution of a state", _qubit_dist, (_BLOCH,)),
    "qubit-expect": Command("axis expectations vs the quantum oracle", _qubit_expect, (
        _BLOCH, ("--dir", _vector3, False))),
    "qubit-search-sign": Command("exhaustive sign-assignment search", _qubit_search_sign, (
        ("--dir", _vector3, True),)),
    "qubit-evolve": Command("permute the hidden-variable weights", _qubit_evolve, (
        _BLOCH, ("--perm", parse_permutation, True))),
    "oracle-check": Command("quantum ground-truth checks", _oracle_check, (
        ("--samples", int, False), ("--seed", int, False))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlhv", description="Verification runner for the "
                                     "phase- and quaternion-valued hidden-variable toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, _, required in command.args:
            p.add_argument(flag, required=required)
    return parser


def run(command: str, config: dict) -> dict:
    """The report of command on config, a dict keyed by flag name without
    "--", as main prints it: the handler's claims, each judged by RULES,
    timed with the handler in elapsed_ms.  The config's keys must be the
    command's flags, every required one among them: an unknown command, an
    unknown key or a missing required key raises ValueError naming it.  The
    library's ValueError on a bad value propagates; run prints nothing."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command: {command!r}")
    flags = {flag[2:]: required for flag, _, required in COMMANDS[command].args}
    for key in config:
        if key not in flags:
            raise ValueError(f"{command}: unknown config key {key!r}")
    for key, required in flags.items():
        if required and key not in config:
            raise ValueError(f"{command}: missing config key {key!r}")
    started = time.perf_counter()
    claims, result = COMMANDS[command].run(config)
    checks = [{"name": name, "expected": expected, "actual": actual, "tolerance": tol,
               "pass": bool(RULES[rule](expected, actual, tol))}
              for name, expected, actual, rule, tol in claims]
    report = {"command": command, "version": __version__, "config": config, "checks": checks,
              "elapsed_ms": (time.perf_counter() - started) * 1000.0}
    return report if result is None else {**report, "result": result}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    try:
        config = {}
        for flag, parse, _ in COMMANDS[args.command].args:
            if (given := getattr(args, flag[2:])) is not None:
                try:
                    config[flag[2:]] = parse(given)
                except ValueError as exc:
                    raise ValueError(f"{flag}: {exc}") from None
        report = run(args.command, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    return 0 if all(item["pass"] for item in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
