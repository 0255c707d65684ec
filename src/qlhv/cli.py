"""Command-line runner: one subcommand per experiment family.

Every command emits a machine-readable report ({command, version, config,
checks, elapsed_ms}, and a result object for a command with a natural
payload: distributions, models, the exported intersection), as strict JSON
with no NaN or Infinity by default, or as a flat CSV check table, and
exits 0 only if every check passes.  Randomized commands require an
explicit seed, so reports are reproducible by construction.

A command is one record of COMMANDS: help text, (flag, parse) pairs and a
handler.  Every command flag is required, so each command has one config
shape, and no flag depends on another.  argparse reads each flag as text;
main converts every flag once, by its parse, into config, keyed by flag
name without "--", which is both the handler's only argument and the
report's config.  A flag is read as an integer, comma-separated numbers or
cycle notation, and one that does not parse raises ValueError naming it,
as in "--bloch: could not convert string to float: 'a'".  The library
judges every parsed value, counts and seeds by tolerances.count.  Either
ValueError prints one "error: ..." line on stderr, prints no report and
exits 2, as does a --out path that cannot be written.  A missing flag or
an unknown one is argparse's usage message, also exit 2.  The report's
config prints a vector as a list of numbers and a permutation as the list
of the images of 1..8.

run(command, config) turns a config into its report and is the one place
that judges claims: a handler returns its claims (name, expected, actual,
rule, tolerance) and an optional result payload, and RULES decides each
claim's pass.  It prints nothing, so a recorded report's command and config
rerun in process.  main is its shell: argv to config, the exit code 2 on
bad input, and rendering and writing the report.  The console script and
`python -m qlhv.cli` call sys.exit(main()).

chsh-verify's result names its maximal models, with their records, and two
spot rows.  The library rebuilds each of these rows from --seed and its
index through the per-model decoder, not the batch decoder, and one claim
replays all of them by the per-model route (see _chsh_verify).

numpy is imported only by chsh-verify, through chsh.bell_sweep, which builds
the generator from --seed, and by oracle-check, for the oracle's matrices
and its random settings; the other eight commands, chsh-optimize and
qubit-expect among them, run in plain Python, and import qlhv.cli loads
neither numpy nor dataclasses.  Each handler imports the one qlhv module it
runs: chsh-* load chsh, ghz-* load ghz (and its quaternions), qubit-* load
qubit, and qubit-expect and oracle-check load oracle; csv is imported only
by the CSV format.  So a command's process compiles no module that it does
not run.

main(argv) returns the exit code and may be called repeatedly in one
process: the parser is built on the first call and reused, and each call
parses into a fresh namespace, so nothing carries over.
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
    TSIRELSON,
    bloch_vector,
    count,
    integer,
    is_real,
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
RULES = {
    "equal": lambda expected, actual, tol: actual == expected,
    "close": lambda expected, actual, tol: abs(actual - expected) <= tol,
    "at_most": lambda expected, actual, tol: actual <= expected + tol,
    "at_least": lambda expected, actual, tol: actual >= expected - tol,
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
    claims = [("bell_expression", TSIRELSON, chsh.bell_expression(model), "close", EXACT_TOL)]
    correlations = {f"E({a},{b})": chsh.correlation(model, a, b)
                    for a in chsh.ALICE_SETTINGS for b in chsh.BOB_SETTINGS}
    # JSON has no complex numbers: each correlation is written as [re, im]
    return claims, {"model": chsh.model_to_dict(model),
                    "correlations": {k: [z.real, z.imag] for k, z in correlations.items()}}


def _chsh_verify(config):
    """bell_sweep over --samples models drawn from --seed; the batch size
    bounds memory and is not part of the stream.
    The result holds complex_witness and real_witness, each {index, value,
    model}: a sample counted from 0, its Bell value and its model_to_dict
    record.  The real witness also counts its ties.  The check
    max_bell_real_leq_classical still reads the real maximum itself.
    spot_rows holds the {index, value} of samples 0 and 1 under complex
    phases (sample 0 alone for --samples 1), whose records are not printed.
    witness_replays reads each witness record back with model_from_dict,
    evaluates it and both spot rows with bell_expression, and passes when
    every value equals the reported one within EXACT_TOL.  The complex
    witness nearly always has one point (71 of 80 reports over seeds 0-39
    with 200 and 10,000 samples), while most rows have several (samples 0
    and 1 of --seed 7 have 11 and 9), so through the spot rows a batch-route
    bug that moves only multi-point rows fails the report.  bell_sweep
    rebuilds every one of these models from --seed and its index through
    sample_model, which shares no decoder with the batch, so a fault of the
    batch decoder fails witness_replays as well."""
    from . import chsh
    sweep = chsh.bell_sweep(config["seed"], config["samples"])
    witnesses = {name: {"index": w.index, "value": w.value, "model": chsh.model_to_dict(w.model)}
                 for name, w in (("complex_witness", sweep.complex_witness),
                                 ("real_witness", sweep.real_witness))}
    witnesses["real_witness"]["ties"] = sweep.real_ties
    # the scalar route replays each witness from its printed record, and each
    # spot row, which --seed and its index replay, in process
    replayed = [(chsh.model_from_dict(w["model"]), w["value"]) for w in witnesses.values()]
    replayed += [(w.model, w.value) for w in sweep.spots]
    replay = max(abs(chsh.bell_expression(model) - value) for model, value in replayed)
    claims = [
        ("max_bell_complex_leq_tsirelson", TSIRELSON, sweep.complex_witness.value, "at_most", BOUND_TOL),
        ("max_bell_real_leq_classical", CLASSICAL, sweep.real_max, "at_most", BOUND_TOL),
        ("analytic_bound_dominance_gap", 0.0, sweep.gap, "at_most", BOUND_TOL),
        ("witness_replays", 0.0, replay, "close", EXACT_TOL),
    ]
    return claims, {**witnesses, "spot_rows": [{"index": w.index, "value": w.value} for w in sweep.spots]}


def _chsh_optimize(config):
    from . import chsh
    model, value = chsh.maximize_bell(config["grid"], rng_seed=config["seed"])
    claims = [("optimizer_reaches_tsirelson", TSIRELSON, value, "close", EXACT_TOL)]
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
    """The paper's floor, min_weight_floor, and min_weight_l1: the least of
    the eight weights equals (1 - |x| - |y| - |z|)/8, the weight (1 + eps.r)/8
    at eps = -sign(r).  The enumerated weights and the closed form are two
    routes, so a model that shrinks every state toward the maximally mixed
    one, which the one-sided floor lets pass, fails min_weight_l1."""
    from . import qubit
    r = bloch_vector(config["bloch"])
    dist = qubit.state_distribution(r)
    # the least of the eight (1 + eps.r)/8 is at eps = -sign(r): (1 - |r|_1)/8,
    # added left to right, as sum() adds only up to CPython 3.11
    l1_floor = (1.0 - (abs(r[0]) + abs(r[1]) + abs(r[2]))) / 8.0
    claims = [
        ("retroaction", True, qubit.retroaction_check(dist), "equal", None),
        ("min_weight_floor", NEGATIVE_WEIGHT_FLOOR, min(dist.weights), "at_least", EXACT_TOL),
        ("min_weight_l1", l1_floor, min(dist.weights), "close", EXACT_TOL),
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
    return claims, None


def _qubit_search_sign(config):
    from . import qubit
    found = qubit.sign_function_search(config["dir"])
    magnitudes = sorted(abs(c) for c in config["dir"])
    on_axis = all(abs(m - t) <= BOUND_TOL for m, t in zip(magnitudes, (0.0, 0.0, 1.0)))
    claims = [("sign_function_exists", on_axis, found is not None, "equal", None)]
    return claims, {"signs": None if found is None else list(found)}


def _qubit_evolve(config):
    """Every accepted permutation keeps the pair sums, so every report
    claims retroaction_preserved.  state_preserved claims that the evolved
    weights equal state_distribution(r') within EXACT_TOL, where r', the
    result's bloch_after, is their own axis expectations.  A permutation
    that keeps the pair sums can still leave the state space: for --bloch
    0.5,0.3,0.1 only 48 of the 384 pass, and --perm "(1 2)(7 8)" exits 1
    with the weights 0.0125 away."""
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


_SETTINGS_BLOCK = 1024


def _oracle_check(config):
    """The GHZ eigenrelations, Tsirelson's bound at the optimal settings and
    the largest value over --samples random settings from a generator
    seeded with --seed.  The settings are drawn in standard_normal blocks
    of at most _SETTINGS_BLOCK, which bounds memory and, like chsh-verify's
    batch size, is not part of the stream of draws of (4, 3).  --samples is
    at least 1 and --seed nonnegative; both are judged before numpy is
    imported."""
    samples = count(config["samples"], "samples", 1)
    seed = count(config["seed"], "seed", 0)
    import numpy as np
    from . import oracle
    state = oracle.ghz_state()
    claims = [(f"eigenrelation_{axes}_{'plus' if sign > 0 else 'minus'}", True,
               oracle.verify_eigenrelation(oracle.three_party_operator(axes), state, sign),
               "equal", None)
              for axes, sign in (("xyy", 1), ("yxy", 1), ("yyx", 1), ("xxx", -1))]
    s = 1.0 / math.sqrt(2.0)
    optimal = oracle.chsh_quantum_value((1, 0, 0), (0, 1, 0), (s, s, 0.0), (s, -s, 0.0))
    claims.append(("tsirelson_optimal_settings", TSIRELSON, optimal, "close", EXACT_TOL))
    rng, worst = np.random.default_rng(seed), -math.inf
    for left in range(samples, 0, -_SETTINGS_BLOCK):
        settings = rng.standard_normal((min(_SETTINGS_BLOCK, left), 4, 3))
        settings /= np.linalg.norm(settings, axis=2, keepdims=True)
        worst = max(worst, *(oracle.chsh_quantum_value(*dirs) for dirs in settings))
    claims.append(("random_settings_max_leq_tsirelson", TSIRELSON, worst, "at_most", BOUND_TOL))
    return claims, None


# ---------------------------------------------------------------- commands

class Command(NamedTuple):
    help: str
    run: Callable
    args: tuple = ()    # (flag, parse) pairs


_SEED = ("--seed", int)
_BLOCH = ("--bloch", _vector3)

COMMANDS = {
    "chsh-achieve": Command("evaluate the saturating configuration", _chsh_achieve),
    "chsh-verify": Command("randomized Bell-bound sweep", _chsh_verify, (
        ("--samples", int), _SEED)),
    "chsh-optimize": Command("numerical Bell maximizer", _chsh_optimize, (
        ("--grid", int), _SEED)),
    "ghz-enumerate": Command("count assignments and condition sets", _ghz_enumerate),
    "ghz-verify": Command("intersection, product and parity checks", _ghz_verify),
    "qubit-dist": Command("hidden-variable distribution of a state", _qubit_dist, (_BLOCH,)),
    "qubit-expect": Command("axis expectations vs the quantum oracle", _qubit_expect, (_BLOCH,)),
    "qubit-search-sign": Command("exhaustive sign-assignment search", _qubit_search_sign, (
        ("--dir", _vector3),)),
    "qubit-evolve": Command("permute the hidden-variable weights", _qubit_evolve, (
        _BLOCH, ("--perm", parse_permutation))),
    "oracle-check": Command("quantum ground-truth checks", _oracle_check, (
        ("--samples", int), _SEED)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlhv", description="Verification runner for the "
                                     "phase- and quaternion-valued hidden-variable toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, _ in command.args:
            p.add_argument(flag, required=True)
    return parser


def _config_value(command: str, key: str, value):
    # a config value as run stores it: an int, a float or a list of them.
    # tolist gives a numpy scalar or array as Python numbers
    value = value.tolist() if hasattr(value, "tolist") else value
    listed = isinstance(value, (list, tuple))
    plain = [i if (i := integer(x)) is not None else float(x) if is_real(x) else None
             for x in (value if listed else [value])]
    if None in plain:
        raise ValueError(f"{command}: config value {key!r} must be a number or a list of numbers, got {value!r}")
    return plain if listed else plain[0]


def run(command: str, config: dict) -> dict:
    """The report of command on config, a dict keyed by flag name without
    "--", as main prints it: the handler's claims, each judged by RULES,
    timed with the handler in elapsed_ms.  The config's keys must be
    exactly the command's flags: an unknown command, an unknown key or a
    missing key raises ValueError naming it, as does a command that is not
    a str or a config that is not a dict, as run("chsh-verify", {"samples":
    200}) raises ValueError("chsh-verify: missing config key 'seed'"),
    run("oracle-check", {}) raises ValueError("oracle-check: missing config
    key 'samples'") and run("ghz-verify", None) raises
    ValueError("ghz-verify: config must be a dict, got None").  The
    library's ValueError on a bad value propagates, as run("qubit-dist",
    {"bloch": [2, 0, 0]}) raises ValueError("outside Bloch ball"); run
    prints nothing.

    The report's config, which the handler also reads, holds each value as
    a Python int (an integer by the rule of qlhv.tolerances, such as
    np.int64(7)), a float (any other real, such as np.float64) or a list
    of them (from a tuple, a list or a numpy array), so the report is JSON
    whatever numbers the config held; any other value, such as a str, a
    bool or a nested list, raises ValueError naming its key."""
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValueError(f"unknown command: {command!r}")
    if not isinstance(config, dict):
        raise ValueError(f"{command}: config must be a dict, got {config!r}")
    keys = [flag[2:] for flag, _ in COMMANDS[command].args]
    for key in config:
        if key not in keys:
            raise ValueError(f"{command}: unknown config key {key!r}")
    for key in keys:
        if key not in config:
            raise ValueError(f"{command}: missing config key {key!r}")
    config = {key: _config_value(command, key, value) for key, value in config.items()}
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
        for flag, parse in COMMANDS[args.command].args:
            try:
                config[flag[2:]] = parse(getattr(args, flag[2:]))
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
