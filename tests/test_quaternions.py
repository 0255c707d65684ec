import itertools

import pytest

from qlhv.quaternions import Basis, Q8Element, q8_mul, q8_product


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


# the eight group elements, and the four units with sign +1
Q8_ELEMENTS = [Q8Element(basis, sign) for basis in Basis for sign in (1, -1)]
ONE, I, J, K = (Q8Element(basis, 1) for basis in Basis)


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
        assert any(q8_mul(a, b) == ONE == q8_mul(b, a) for b in Q8_ELEMENTS)


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


def test_bad_basis_rejected():
    # an int has no symbol, so str() of such an element would raise KeyError
    for basis in (1, 4, "i", None):
        with pytest.raises(ValueError, match="basis must be a Basis member"):
            Q8Element(basis, 1)


def test_float_embedding_matches_exact_product():
    for a, b in itertools.product(Q8_ELEMENTS, repeat=2):
        assert hamilton(embed(a), embed(b)) == embed(q8_mul(a, b))
