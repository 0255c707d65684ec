"""A boundary fuzz: every config that cli.run takes gives a report that
renders as strict JSON and as CSV, or a ValueError, and a config is valid
only when it holds exactly its command's flags.  Model records round-trip
through model_to_dict and model_from_dict, and a mangled record raises
ValueError.  Every value argument of the library's public functions and
record constructors, one at a time, takes each hostile value, and the call
returns or raises ValueError.  The hypothesis examples are derandomized and
the library cases are listed, so each test is deterministic, and their
counts are small, so no sweep runs long."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlhv import chsh, cli, ghz, oracle, quaternions, qubit, tolerances
from qlhv.quaternions import Basis, Q8Element

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])

# hostile values for any config key: non-finite and non-real numbers,
# numpy scalars and arrays, nested containers.  Every integer here is at
# most 5, so no count drawn from the pool runs long
HOSTILE = [
    math.nan, math.inf, -math.inf, -0.0, 1.5, -1, 0, 5, -(10**30), True, False, None, "7", "", b"7",
    1 + 2j, np.float64(math.nan), np.float64(math.inf), np.int64(3), np.float32(0.5), np.bool_(True),
    np.array(5), np.array([0.6, 0.0, 0.8]), np.array([[0.6], [0.0], [0.8]]), np.array(["a", "b", "c"]),
    [], [None], [math.nan, 0.0, 0.0], [math.inf, 0.0, 1.0], [1, 2, 3], [0.6, 0.8], [[0.6], 0.8, 0.0],
    [0.6, "0", 0.8], {"bloch": [0, 0, 1]}, {}, [{"a": 1}], (0.6, 0.0, 0.8),
]

# valid values of each config key: samples at most 5 and grids at most 16
VALID = {
    "samples": st.integers(1, 5) | st.sampled_from([np.int64(2)]),
    "seed": st.integers(0, 10**6) | st.sampled_from([2**70, np.int64(7), np.uint8(3)]),
    "grid": st.integers(4, 16),
    "bloch": st.sampled_from([[0.6, 0, 0.8], (0.3, -0.2, 0.4), [1, 0, 0], [0.0, 0.0, 0.0],
                              [0.5773502691896258] * 3, np.array([0.0, -0.6, 0.8])]),
    "dir": st.sampled_from([[0, 0, 1], (-1.0, 0.0, 0.0), [0.6, 0, 0.8], np.array([0.0, 1.0, 0.0]),
                            [2**-0.5, 2**-0.5, 0.0]]),
    "perm": st.sampled_from([list(range(1, 9)), (5, 6, 7, 8, 1, 2, 3, 4), [2, 1, 3, 4, 5, 6, 7, 8],
                             [1, 2, 3, 4, 5, 6, 7, 9], np.array([3, 4, 1, 2, 7, 8, 5, 6])]),
}


@st.composite
def configs(draw):
    """(command, config, shaped): a config of the command's keys, each value
    valid or hostile, with one key dropped or one unknown key added in some
    examples; shaped is whether its keys are exactly the command's."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    keys = [flag[2:] for flag, _ in cli.COMMANDS[command].args]
    # two parts valid to one hostile, so that every command often runs
    config = {key: draw(VALID[key] if draw(st.integers(0, 2)) else st.sampled_from(HOSTILE))
              for key in keys}
    change = draw(st.integers(0, 5))   # 0 drops a key, 1 adds one
    if change == 0 and keys:
        del config[draw(st.sampled_from(keys))]
    elif change == 1:
        unknown = draw(st.sampled_from([key for key in [*VALID, "extra", "out", "format"] if key not in keys]))
        config[unknown] = draw(VALID.get(unknown, st.just(1)) | st.sampled_from(HOSTILE))
    return command, config, set(config) == set(keys)


def _reject_constant(name):
    raise AssertionError(f"non-finite number in a report: {name}")


@settings(FUZZ, max_examples=1000)
@given(configs())
def test_run_gives_a_strict_report_or_a_value_error(case):
    command, config, shaped = case
    try:
        report = cli.run(command, config)
    except ValueError:
        return
    assert shaped, f"{command} ran on config keys {sorted(config)}"
    assert list(report["config"]) == list(config)
    # allow_nan=False: a NaN or infinity in the report raises here
    text = cli.render_report(report, "json")
    assert json.loads(text, parse_constant=_reject_constant)["command"] == command
    rows = list(csv.reader(io.StringIO(cli.render_report(report, "csv"))))
    assert rows[0] == ["name", "expected", "actual", "tolerance", "pass"]
    assert [row[0] for row in rows[1:]] == [check["name"] for check in report["checks"]]


@st.composite
def models(draw):
    """A model drawn as the sweep draws one, or with hypothesis's own
    weights, phases and bits."""
    if draw(st.booleans()):
        phase_choices = draw(st.sampled_from([None, (0.0, math.pi)]))
        return chsh.sample_model(np.random.default_rng(draw(st.integers(0, 2**32))), phase_choices)
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    weights = [w / sum(raw) for w in raw]
    thetas = draw(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    bits = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(4)]
    return chsh.ChshModel(weights, thetas, bits)


@FUZZ
@given(models())
def test_model_records_round_trip(model):
    assert chsh.model_from_dict(model_record := chsh.model_to_dict(model)) == model
    assert json.loads(json.dumps(model_record, allow_nan=False)) == model_record


# each can stand for no weight or phase: non-real or non-finite
BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, None, "0.5", b"0", 2j, [0.5], {"w": 1},
               np.float64(math.nan)]
# each is neither 0 nor 1 by ==
BAD_BITS = [2, -1, 0.5, None, "1", b"1", math.nan, 2j, [0], {}]
# none is a list or a tuple
NOT_LISTS = [None, 5, 0.5, "abc", b"ab", {"a": 1}, True]


@st.composite
def mangled_records(draw):
    """A model record with one fault: a key gone, a field that is no list,
    one bad weight, phase or bit, an extra label, or no mapping at all."""
    record = chsh.model_to_dict(draw(models()))
    fault = draw(st.sampled_from(["drop", "not a list", "weight", "phase", "bit", "label", "not a mapping"]))
    if fault == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif fault == "not a list":
        record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from(NOT_LISTS))
    elif fault in ("weight", "phase"):
        values = record["weights" if fault == "weight" else "theta"]
        # a negative weight is a number, but no probability
        bad = BAD_NUMBERS + [-0.5] if fault == "weight" else BAD_NUMBERS
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(bad))
    elif fault == "bit":
        vec = record[draw(st.sampled_from(["f1", "f2", "f3", "f4"]))]
        vec[draw(st.integers(0, len(vec) - 1))] = draw(st.sampled_from(BAD_BITS))
    elif fault == "label":
        record["points"].append("extra")
    else:
        record = draw(st.sampled_from([list(record.items()), json.dumps(record), None]))
    return record


@FUZZ
@given(mangled_records())
def test_mangled_model_records_raise_value_error(record):
    try:
        chsh.model_from_dict(record)
    except ValueError:
        return
    raise AssertionError(f"model_from_dict read {record!r}")


MODEL = chsh.make_achieving_model()
DIST = qubit.state_distribution([0.3, -0.2, 0.4])
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)


def _rng():
    # a fresh generator per call, so that every call draws the same stream
    return np.random.default_rng(7)


# name -> (a call of the function on its value arguments alone, valid values
# of those).  Records, generators and matrices are held valid inside the
# call: bell_expression, bell_values, model_to_dict, retroaction_check,
# evolve_mixture and q8_mul take nothing else, so they are not listed.
# Counts stay at 5 or below and grids at 16 or below
LIBRARY = {
    "chsh.ChshModel": (chsh.ChshModel, ([0.5, 0.5], [0.0, 1.0, 2.0, 3.0], [[0, 1]] * 4)),
    "chsh.correlation": (lambda alice, bob: chsh.correlation(MODEL, alice, bob), ("a", "b")),
    "chsh.analytic_bound": (chsh.analytic_bound, (np.zeros(2), np.array([0.5, 1.5]))),
    "chsh.analytic_bound.floats": (chsh.analytic_bound, (0.0, math.pi / 2)),
    "chsh.maximize_bell": (chsh.maximize_bell, (8, 3, 0)),
    "chsh.sample_model": (lambda choices: chsh.sample_model(_rng(), choices), ((0.0, math.pi),)),
    "chsh.sample_models": (lambda count, choices: chsh.sample_models(_rng(), count, choices), (3, None)),
    "chsh.bell_sweep": (chsh.bell_sweep, (7, 3)),
    "chsh.model_from_dict": (chsh.model_from_dict, (chsh.model_to_dict(MODEL),)),
    "ghz.condition_set": (ghz.condition_set, ("yxy",)),
    "ghz.xxx_product": (ghz.xxx_product, (5,)),
    "ghz.export_assignments": (ghz.export_assignments, ([0, 7, 511],)),
    "oracle.pauli": (oracle.pauli, ("y",)),
    "oracle.three_party_operator": (oracle.three_party_operator, ("xyy",)),
    "oracle.verify_eigenrelation": (
        lambda expected: oracle.verify_eigenrelation(oracle.three_party_operator("xyy"), oracle.ghz_state(),
                                                     expected), (1,)),
    "oracle.direction_operator": (oracle.direction_operator, ([0.0, 0.6, 0.8],)),
    "oracle.density_matrix": (oracle.density_matrix, ([0.3, -0.2, 0.4],)),
    "oracle.qubit_expectation": (oracle.qubit_expectation, ([0.3, -0.2, 0.4], [0.0, 0.6, 0.8])),
    "oracle.chsh_quantum_value": (oracle.chsh_quantum_value, ([0, 0, 1], [1, 0, 0], [0.6, 0, 0.8], [0.8, 0, -0.6])),
    "qubit.SignedDistribution": (qubit.SignedDistribution, ([0.125] * 8,)),
    "qubit.state_distribution": (qubit.state_distribution, ([0.6, 0.0, 0.8],)),
    "qubit.axis_expectation": (lambda axis: qubit.axis_expectation(DIST, axis), ("z",)),
    "qubit.sign_function_search": (qubit.sign_function_search, ([0, 0, 1],)),
    "qubit.commutes_with_antipode": (qubit.commutes_with_antipode, (X_FLIP,)),
    "qubit.PermutationMix": (qubit.PermutationMix, ([(X_FLIP, 0.5), (list(range(1, 9)), 0.5)],)),
    "qubit.PermutationMix.term": (lambda perm, weight: qubit.PermutationMix([(perm, weight)]), (X_FLIP, 1.0)),
    "qubit.evolve_permutation": (lambda s: qubit.evolve_permutation(DIST, s), (X_FLIP,)),
    "quaternions.Q8Element": (Q8Element, (Basis.J, -1)),
    "quaternions.q8_product": (quaternions.q8_product, ([Q8Element(Basis.I), Q8Element(Basis.K, -1)],)),
    "quaternions.q8_product.factor": (lambda factor: quaternions.q8_product([Q8Element(Basis.I), factor]),
                                      (Q8Element(Basis.J),)),
    "tolerances.is_real": (tolerances.is_real, (0.5,)),
    "tolerances.integer": (tolerances.integer, (3,)),
    "tolerances.count": (lambda value: tolerances.count(value, "count", 1), (3,)),
    "tolerances.reals": (lambda values: tolerances.reals(values, "need reals"), ([0.5, 1],)),
    "tolerances.bloch_vector": (tolerances.bloch_vector, ([0.6, 0.0, 0.8],)),
    "tolerances.unit_direction": (tolerances.unit_direction, ([0.0, 1.0, 0.0],)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_gives_a_value_or_a_value_error(name):
    call, valid = LIBRARY[name]
    call(*valid)
    for position, value in enumerate(valid):
        for atom in HOSTILE:
            args = [*valid[:position], atom, *valid[position + 1:]]
            # numpy's floating-point warnings, on an infinite phase, are no escape
            with np.errstate(all="ignore"):
                try:
                    call(*args)
                except ValueError:
                    pass
                except Exception as error:
                    raise AssertionError(f"{name} argument {position} = {atom!r}: {error!r}") from error
        # a name is a str: its value as a 0-d array, unhashable yet equal to
        # the name and so `in` a tuple of names, names nothing
        if isinstance(value, str):
            with pytest.raises(ValueError):
                call(*valid[:position], np.array(value), *valid[position + 1:])


@pytest.mark.parametrize("seed", [True, 7.0, "7", None, -1], ids=repr)
def test_bell_sweep_rejects_a_seed_that_is_no_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be"):
        chsh.bell_sweep(seed, 3)
