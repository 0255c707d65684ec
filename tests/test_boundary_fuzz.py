"""A boundary fuzz: every config that cli.run takes gives a report that
renders as strict JSON and as CSV, or a ValueError, and a config is valid
only when it holds exactly its command's flags.  Model records round-trip
through model_to_dict and model_from_dict, and a mangled record raises
ValueError.  The examples are derandomized, so the test is deterministic,
and their counts are small, so no sweep runs long."""

import csv
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from qlhv import chsh, cli

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
