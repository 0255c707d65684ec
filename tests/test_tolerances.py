"""The two input rules of qlhv.tolerances: the closed Bloch ball and the unit
sphere, as plain-Python validators that return a 3-tuple of floats."""

import math

import numpy as np
import pytest

from qlhv.tolerances import bloch_vector, unit_direction

# Each would pass the range check if its shape or its components were not
# checked: (0.6, 0.8) is a unit vector inside the ball.
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
