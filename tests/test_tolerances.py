"""The rules of qlhv.tolerances: the real and the integer rule that every
input boundary applies, and the closed Bloch ball and the unit sphere, as
plain-Python validators that return a 3-tuple of floats."""

import math

import numpy as np
import pytest

from qlhv.chsh import ChshModel, model_from_dict, model_to_dict
from qlhv.ghz import _checked
from qlhv.qubit import PermutationMix, SignedDistribution
from qlhv.quaternions import Basis, Q8Element
from qlhv.tolerances import bloch_vector, integer, is_real, unit_direction

# exchanges m and m+4 for m = 1..4, which flips the x signs
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)
IDENTITY_PERMUTATION = (1, 2, 3, 4, 5, 6, 7, 8)

# (value, the number it stands for, the rules that accept it), one of each
# kind that a caller may pass
VALUE_KINDS = [
    pytest.param(True, 1.0, set(), id="bool"),
    pytest.param("0.5", 0.5, set(), id="str"),
    pytest.param(b"\x01", 1.0, set(), id="bytes"),
    pytest.param(None, 0.0, set(), id="none"),
    pytest.param(1j, 1.0, set(), id="complex"),
    pytest.param(np.float64(1.0), 1.0, {"real"}, id="numpy-float"),
    pytest.param(np.int64(1), 1.0, {"real", "integer"}, id="numpy-int"),
    pytest.param(1, 1.0, {"real", "integer"}, id="int"),
    pytest.param(0.5, 0.5, {"real"}, id="float"),
    pytest.param(1.0, 1.0, {"real"}, id="integral-float"),
]


def _model_record(weights, thetas):
    record = model_to_dict(ChshModel((0.5, 0.5), (0.0,) * 4, ((0, 0),) * 4))
    return {**record, "weights": list(weights), "theta": list(thetas)}


# (the rule, the boundary): each boundary puts the value v in one slot of an
# input that is valid where v is the number x it stands for, and returns what
# it stores there.  The number 1 is a valid sign, permutation entry and GHZ
# assignment; xxx_product and export_assignments store an assignment through
# ghz._checked.
BOUNDARIES = [
    pytest.param("real", lambda v, x: bloch_vector((v, 0.0, 0.0))[0], id="bloch_vector"),
    pytest.param("real", lambda v, x: unit_direction((v, math.sqrt(1.0 - x * x), 0.0))[0],
                 id="unit_direction"),
    pytest.param("real", lambda v, x: SignedDistribution((v, 1.0 - x) + (0.0,) * 6).weights[0],
                 id="SignedDistribution"),
    pytest.param("real", lambda v, x: ChshModel((v, 1.0 - x), (0.0,) * 4, ((0, 0),) * 4).weights[0],
                 id="ChshModel-weight"),
    pytest.param("real", lambda v, x: ChshModel((1.0,), (v, 0.0, 0.0, 0.0), ((0,),) * 4).thetas[0],
                 id="ChshModel-phase"),
    pytest.param("real", lambda v, x: model_from_dict(_model_record((v, 1.0 - x), (0.0,) * 4)).weights[0],
                 id="model_from_dict-weight"),
    pytest.param("real", lambda v, x: model_from_dict(_model_record((0.5, 0.5), (v, 0.0, 0.0, 0.0))).thetas[0],
                 id="model_from_dict-phase"),
    pytest.param("real", lambda v, x: PermutationMix(((X_FLIP, v), (IDENTITY_PERMUTATION, 1.0 - x))).terms[0][1],
                 id="PermutationMix-weight"),
    pytest.param("integer", lambda v, x: Q8Element(Basis.I, v).sign, id="Q8Element-sign"),
    pytest.param("integer", lambda v, x: PermutationMix((((v, 2, 3, 4, 5, 6, 7, 8), 1.0),)).terms[0][0][0],
                 id="permutation-entry"),
    pytest.param("integer", lambda v, x: _checked(v), id="ghz-assignment"),
]


@pytest.mark.parametrize("rule, boundary", BOUNDARIES)
@pytest.mark.parametrize("value, number, rules", VALUE_KINDS)
def test_each_boundary_accepts_exactly_what_its_number_rule_accepts(rule, boundary, value, number, rules):
    assert is_real(value) == ("real" in rules)
    assert (integer(value) is not None) == ("integer" in rules)
    if rule in rules:
        stored = boundary(value, number)
        assert type(stored) is {"real": float, "integer": int}[rule] and stored == number
    else:
        with pytest.raises(ValueError):
            boundary(value, number)


class Generated:
    """Iterates as a fresh generator of (0.6, 0.8, 0.0) each time, so that
    every test that takes it sees the three numbers."""

    def __iter__(self):
        yield from (0.6, 0.8, 0.0)


# Each would pass the range check if its shape or its components were not
# checked: (0.6, 0.8) is a unit vector inside the ball.  Only a tuple, a list
# or an array is a vector: a set iterates in hash order, a dict as its keys.
NOT_THREE_NUMBERS = [
    pytest.param("abc", id="string"),
    pytest.param("100", id="string-of-three-digits"),
    pytest.param(((0.6, 0.8, 0.0),), id="nested"),
    pytest.param(((0.6,), (0.8,), (0.0,)), id="nested-columns"),
    pytest.param((0.6, 0.8), id="two-components"),
    pytest.param((0.6, 0.8, 0.0, 0.0), id="four-components"),
    pytest.param((None, 0.8, 0.6), id="none-component"),
    pytest.param(("x", 0.8, 0.6), id="string-component"),
    pytest.param(0.6, id="number"),
    pytest.param(b"\x00\x00\x01", id="bytes"),
    pytest.param(np.array([True, False, False]), id="numpy-bool-row"),
    pytest.param(np.array([0.6 + 0j, 0.8, 0.0]), id="numpy-complex-row"),
    pytest.param(np.array(["0.6", "0.8", "0"]), id="numpy-str-row"),
    pytest.param(np.array([[0.6, 0.8, 0.0]]), id="numpy-2d-row"),
    pytest.param(np.array([[0.6], [0.8], [0.0]]), id="numpy-2d-column"),
    pytest.param(np.array(0.6), id="numpy-0d"),
    pytest.param({0.6, 0.8, 0.0}, id="set"),
    pytest.param(dict.fromkeys((0.6, 0.8, 0.0)), id="dict"),
    pytest.param(Generated(), id="generator"),
]
NON_FINITE = [pytest.param(math.nan, id="nan"), pytest.param(math.inf, id="inf"),
              pytest.param(-math.inf, id="-inf")]


@pytest.mark.parametrize("r", NOT_THREE_NUMBERS)
def test_bloch_vector_rejects_what_is_not_three_numbers(r):
    with pytest.raises(ValueError, match="^Bloch vector must have three components$"):
        bloch_vector(r)


@pytest.mark.parametrize("n", NOT_THREE_NUMBERS)
def test_unit_direction_rejects_what_is_not_three_numbers(n):
    with pytest.raises(ValueError, match="^non-unit direction$"):
        unit_direction(n)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("index", range(3))
def test_non_finite_components_fail_both_rules(bad, index):
    vec = [0.0, 0.0, 0.0]
    vec[index] = bad
    with pytest.raises(ValueError, match="^outside Bloch ball$"):
        bloch_vector(vec)
    vec[(index + 1) % 3] = 1.0   # a unit vector but for the bad component
    with pytest.raises(ValueError, match="^non-unit direction$"):
        unit_direction(vec)


def test_range_limits():
    assert bloch_vector((0.6, 0.8, 1e-7)) == (0.6, 0.8, 1e-7)
    with pytest.raises(ValueError, match="^outside Bloch ball$"):
        bloch_vector((0.6, 0.8, 1e-5))
    assert unit_direction((0.6, 0.8, 1e-5)) == (0.6, 0.8, 1e-5)
    with pytest.raises(ValueError, match="^non-unit direction$"):
        unit_direction((0.6, 0.8, 1e-4))
    with pytest.raises(ValueError, match="^non-unit direction$"):
        unit_direction((0.0, 0.0, 0.0))


@pytest.mark.parametrize("rule", [bloch_vector, unit_direction])
def test_arrays_and_lists_give_the_floats_of_a_tuple(rule):
    for given, expected in (((0.36, 0.48, 0.8), (0.36, 0.48, 0.8)), ((0, 0, 1), (0.0, 0.0, 1.0))):
        for form in (tuple, list, np.array):
            vec = rule(form(given))
            assert type(vec) is tuple and vec == expected
            assert all(type(c) is float for c in vec)
