"""Command-line runner: one subcommand per experiment family.

Every command emits a machine-readable report ({command, version, config,
checks, elapsed_ms}, JSON by default, CSV as a flat check table) and exits
0 only if every check passes.  Randomized commands require an explicit
seed, so reports are reproducible by construction.

A command is one record of COMMANDS: help text, argument specs and a
handler.  A handler returns its claims (name, expected, actual, rule,
tolerance) and an optional result payload; RULES decides each claim's
pass, and the report's config is the parsed arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import chsh, ghz, oracle, qubit
from .tolerances import (
    BOUND_TOL,
    CLASSICAL,
    EXACT_TOL,
    NEGATIVE_WEIGHT_FLOOR,
    OPTIMUM_TOL,
    TSIRELSON,
    bloch_vector,
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


def _vector3(text: str) -> tuple[float, float, float]:
    vec = tuple(float(p) for p in text.split(","))
    if len(vec) != 3 or not all(math.isfinite(c) for c in vec):
        raise ValueError("expected three finite comma-separated components")
    return vec


def _bloch(text: str) -> tuple[float, float, float]:
    return tuple(bloch_vector(_vector3(text)).tolist())


def _at_least(minimum: int) -> Callable[[str], int]:
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _argument_type(parse: Callable):
    """An argparse type that reports the ValueError message of parse."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


# ---------------------------------------------------------------- claims

# rule -> pass(expected, actual, tolerance); written so that NaN fails.
# `reaches` allows the tolerance below the expected value but only
# BOUND_TOL above it; `all_close` compares each component at BOUND_TOL.
RULES = {
    "equal": lambda expected, actual, tol: actual == expected,
    "close": lambda expected, actual, tol: abs(actual - expected) <= tol,
    "at_most": lambda expected, actual, tol: actual <= expected + tol,
    "at_least": lambda expected, actual, tol: actual >= expected - tol,
    "reaches": lambda expected, actual, tol: expected - tol <= actual <= expected + BOUND_TOL,
    "all_close": lambda expected, actual, tol: len(actual) == len(expected)
    and all(abs(a - e) <= BOUND_TOL for a, e in zip(actual, expected)),
}


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=("name", "expected", "actual", "tolerance", "pass"))
    writer.writeheader()
    writer.writerows(_jsonable(report["checks"]))   # csv writes None as ""
    return buffer.getvalue()


# ---------------------------------------------------------------- handlers

def _chsh_achieve(args):
    model = chsh.make_achieving_model()
    claims = [("bell_expression", TSIRELSON, chsh.bell_expression(model), "close", BOUND_TOL)]
    correlations = {f"E({a},{b})": chsh.correlation(model, a, b)
                    for a in chsh.ALICE_SETTINGS for b in chsh.BOB_SETTINGS}
    return claims, {"model": chsh.model_to_dict(model), "correlations": correlations}


def _chsh_verify(args):
    rng = np.random.default_rng(args.seed)
    values, gaps = [], []
    for _ in range(args.samples):
        model = chsh.sample_model(rng)
        values.append(chsh.bell_expression(model))
        gaps.append(values[-1] - chsh.analytic_bound(model.thetas[1], model.thetas[3]))
    rng = np.random.default_rng(args.seed)
    real = [chsh.bell_expression(chsh.sample_model(rng, phase_choices=(0.0, math.pi)))
            for _ in range(args.samples)]
    claims = [
        ("max_bell_complex_leq_tsirelson", TSIRELSON, max(values), "at_most", BOUND_TOL),
        ("max_bell_real_leq_classical", CLASSICAL, max(real), "at_most", BOUND_TOL),
        ("analytic_bound_dominance_gap", 0.0, max(gaps), "at_most", BOUND_TOL),
    ]
    return claims, None


def _chsh_optimize(args):
    model, value = chsh.maximize_bell(args.grid, rng_seed=args.seed)
    claims = [("optimizer_reaches_tsirelson", TSIRELSON, value, "reaches", OPTIMUM_TOL)]
    return claims, {"model": chsh.model_to_dict(model)}


def _ghz_enumerate(args):
    claims = [("assignment_count", 512, len(ghz.enumerate_assignments()), "equal", None)]
    claims += [(f"condition_set_size_{p}", 256, len(ghz.condition_set(p)), "equal", None)
               for p in ghz.PATTERNS]
    return claims, None


def _ghz_verify(args):
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


def _qubit_dist(args):
    dist = qubit.state_distribution(args.bloch)
    claims = [
        ("weight_sum", 1.0, float(sum(dist.weights)), "close", EXACT_TOL),
        ("retroaction", True, qubit.retroaction_check(dist), "equal", None),
        ("min_weight_floor", NEGATIVE_WEIGHT_FLOOR, dist.min_weight(), "at_least", EXACT_TOL),
    ]
    return claims, {"distribution": list(dist.weights)}


def _qubit_expect(args):
    dist = qubit.state_distribution(args.bloch)
    claims = []
    for idx, axis in enumerate(qubit.AXES):
        lhv = qubit.axis_expectation(dist, axis)
        quantum = oracle.qubit_expectation(args.bloch, np.eye(3)[idx])
        claims.append((f"expectation_{axis}", args.bloch[idx], lhv, "close", EXACT_TOL))
        claims.append((f"oracle_agreement_{axis}", quantum, lhv, "close", EXACT_TOL))
    if args.dir is None:
        return claims, None
    return claims, {"oracle_direction_expectation": oracle.qubit_expectation(args.bloch, args.dir)}


def _qubit_search_sign(args):
    found = qubit.sign_function_search(args.dir)
    magnitudes = sorted(abs(c) for c in args.dir)
    on_axis = all(abs(m - t) <= BOUND_TOL for m, t in zip(magnitudes, (0.0, 0.0, 1.0)))
    claims = [("sign_function_exists", on_axis, found is not None, "equal", None)]
    result = {"signs": None if found is None else list(found)}
    if found is not None:
        achieved = list(np.array(found, dtype=float) @ qubit.SIGN_TABLE / 8.0)
        claims.append(("achieved_direction", list(args.dir), achieved, "all_close", None))
        result["achieved_direction"] = achieved
    return claims, result


def _qubit_evolve(args):
    dist = qubit.state_distribution(args.bloch)
    evolved = qubit.evolve_permutation(dist, args.perm, strict=args.strict)
    claims = [("mass_preserved", 1.0, float(sum(evolved.weights)), "close", EXACT_TOL)]
    if qubit.commutes_with_antipode(args.perm):
        retroaction = qubit.retroaction_check(evolved)
        claims.append(("retroaction_preserved", True, retroaction, "equal", None))
    return claims, {"before": list(dist.weights), "after": list(evolved.weights)}


def _oracle_check(args):
    state = oracle.ghz_state()
    claims = [(f"eigenrelation_{axes}_{'plus' if sign > 0 else 'minus'}", True,
               oracle.verify_eigenrelation(oracle.three_party_operator(axes), state, sign),
               "equal", None)
              for axes, sign in (("xyy", 1), ("yxy", 1), ("yyx", 1), ("xxx", -1))]
    s = 1.0 / math.sqrt(2.0)
    optimal = oracle.chsh_quantum_value((1, 0, 0), (0, 1, 0), (s, s, 0.0), (s, -s, 0.0))
    claims.append(("tsirelson_optimal_settings", TSIRELSON, optimal, "close", OPTIMUM_TOL))
    if args.samples:
        if args.seed is None:
            raise ValueError("--samples requires --seed")
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.samples):
            dirs = rng.standard_normal((4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            worst = max(worst, oracle.chsh_quantum_value(*dirs))
        claims.append(("random_settings_max_leq_tsirelson", TSIRELSON, worst, "at_most", BOUND_TOL))
    return claims, None


# ---------------------------------------------------------------- commands

class Command(NamedTuple):
    help: str
    run: Callable
    # (flag, argparse keywords); a list of them is a mutually exclusive group
    args: tuple = ()


_SEED = ("--seed", {"type": int, "required": True})
_BLOCH = ("--bloch", {"type": _bloch, "required": True})

COMMANDS = {
    "chsh-achieve": Command("evaluate the saturating configuration", _chsh_achieve),
    "chsh-verify": Command("randomized Bell-bound sweep", _chsh_verify, (
        ("--samples", {"type": _at_least(1), "required": True}), _SEED)),
    "chsh-optimize": Command("numerical Bell maximizer", _chsh_optimize, (
        ("--grid", {"type": int, "required": True}), _SEED)),
    "ghz-enumerate": Command("count assignments and condition sets", _ghz_enumerate),
    "ghz-verify": Command("intersection, product and parity checks", _ghz_verify),
    "qubit-dist": Command("hidden-variable distribution of a state", _qubit_dist, (_BLOCH,)),
    "qubit-expect": Command("axis expectations vs the quantum oracle", _qubit_expect, (
        _BLOCH, ("--dir", {"type": _vector3}))),
    "qubit-search-sign": Command("exhaustive sign-assignment search", _qubit_search_sign, (
        ("--dir", {"type": _vector3, "required": True}),)),
    "qubit-evolve": Command("permute the hidden-variable weights", _qubit_evolve, (
        _BLOCH,
        ("--perm", {"type": parse_permutation, "required": True}),
        [("--strict", {"dest": "strict", "action": "store_true", "default": True}),
         ("--permissive", {"dest": "strict", "action": "store_false"})])),
    "oracle-check": Command("quantum ground-truth checks", _oracle_check, (
        ("--samples", {"type": _at_least(0)}), ("--seed", {"type": int}))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlhv", description="Verification runner for the "
                                     "phase- and quaternion-valued hidden-variable toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for spec in command.args:
            group = p.add_mutually_exclusive_group() if isinstance(spec, list) else p
            for flag, kwargs in spec if isinstance(spec, list) else [spec]:
                if "type" in kwargs:
                    kwargs = {**kwargs, "type": _argument_type(kwargs["type"])}
                group.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    started = time.perf_counter()
    try:
        claims, result = COMMANDS[args.command].run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = [
        {"name": name, "expected": expected, "actual": actual, "tolerance": tol,
         "pass": bool(RULES[rule](expected, actual, tol))}
        for name, expected, actual, rule, tol in claims
    ]
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    common = ("command", "out", "format")
    report = {
        "command": args.command,
        "version": __version__,
        "config": {k: v for k, v in vars(args).items() if k not in common and v is not None},
        "checks": checks,
        "elapsed_ms": elapsed_ms,
    }
    if result is not None:
        report["result"] = result

    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    return 0 if all(item["pass"] for item in checks) else 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
