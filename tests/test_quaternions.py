import itertools
import math

import pytest
from hypothesis import given, strategies as st

from qlhv.quaternions import (
    Basis,
    ONE,
    I,
    J,
    K,
    Q8Element,
    Q8_ELEMENTS,
    canonical_phase,
    phase_pair_magnitudes,
    q8_mul,
    q8_product,
)

SQRT2 = math.sqrt(2.0)


def hamilton(p, q):
    """Float Hamilton product of (w, x, y, z) quaternions: the reference the
    exact group table is checked against."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def embed(e):
    """An exact group element as (w, x, y, z) floats."""
    coords = [0.0] * 4
    coords[e.basis] = float(e.sign)
    return tuple(coords)


def test_eight_distinct_elements():
    assert len(set(Q8_ELEMENTS)) == 8


def test_hamilton_table():
    assert q8_mul(I, J) == K
    assert q8_mul(J, K) == I
    assert q8_mul(K, I) == J
    assert q8_mul(J, I) == -K
    assert q8_mul(K, J) == -I
    assert q8_mul(I, K) == -J
    for unit in (I, J, K):
        assert q8_mul(unit, unit) == -ONE


def test_group_laws_exhaustive():
    # closure, associativity (512 triples), identity, inverses
    for a, b in itertools.product(Q8_ELEMENTS, repeat=2):
        assert q8_mul(a, b) in Q8_ELEMENTS
    for a, b, c in itertools.product(Q8_ELEMENTS, repeat=3):
        assert q8_mul(q8_mul(a, b), c) == q8_mul(a, q8_mul(b, c))
    for a in Q8_ELEMENTS:
        assert q8_mul(a, ONE) == a
        assert q8_mul(ONE, a) == a
        assert q8_mul(a, a.inverse()) == ONE


def test_q8_product_examples():
    assert q8_product([I, I, I]) == -I
    assert q8_product([I, -I, -I]) == -I
    assert q8_product([ONE]) == ONE
    assert q8_product([J, -J]) == ONE


def test_q8_product_empty_errors():
    with pytest.raises(ValueError, match="empty product"):
        q8_product([])


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        Q8Element(Basis.I, 2)


def test_labels_round_trip():
    for e in Q8_ELEMENTS:
        assert Q8Element.from_label(str(e)) == e
    assert Q8Element.from_label("i") == I
    with pytest.raises(ValueError):
        Q8Element.from_label("+q")


def test_float_embedding_matches_exact_product():
    for a, b in itertools.product(Q8_ELEMENTS, repeat=2):
        assert hamilton(embed(a), embed(b)) == embed(q8_mul(a, b))


def test_canonical_phase():
    assert canonical_phase(0.0) == 0.0
    assert canonical_phase(2.0 * math.pi) == 0.0
    assert canonical_phase(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert 0.0 <= canonical_phase(123.456) < 2.0 * math.pi


def test_phase_pair_magnitude_examples():
    plus, minus = phase_pair_magnitudes(0.0, math.pi / 2)
    assert plus == pytest.approx(SQRT2, abs=1e-12)
    assert minus == pytest.approx(SQRT2, abs=1e-12)
    assert phase_pair_magnitudes(0.0, 0.0) == pytest.approx((2.0, 0.0), abs=1e-12)
    plus, minus = phase_pair_magnitudes(0.0, math.pi / 3)
    assert plus == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert minus == pytest.approx(1.0, abs=1e-12)
    assert plus + minus == pytest.approx(2.7320508, abs=1e-6)


@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
)
def test_phase_pair_properties(t2, t4):
    plus, minus = phase_pair_magnitudes(t2, t4)
    assert plus * plus + minus * minus == pytest.approx(4.0, abs=1e-12)
    assert plus + minus <= 2.0 * SQRT2 + 1e-12
    # saturation happens only when the phases differ by pi/2 mod pi; the
    # value degrades quadratically, so near-saturation pins the difference
    if plus + minus >= 2.0 * SQRT2 - 1e-9:
        diff = abs(t2 - t4) % math.pi
        assert abs(diff - math.pi / 2) < 1e-4


def test_saturation_at_exact_quarter_turn():
    for base in (0.0, 1.0, 2.5):
        plus, minus = phase_pair_magnitudes(base, base + math.pi / 2)
        assert plus + minus == pytest.approx(2.0 * SQRT2, abs=1e-12)
