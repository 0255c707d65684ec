"""The four validating records of the package are immutable tuples that no
constructor path builds invalid: the class, _make, and _replace all run its
checks."""

import pytest

from qlhv.chsh import ChshModel
from qlhv.qubit import PermutationMix, SignedDistribution
from qlhv.quaternions import Basis, Q8Element

# exchanges m and m+4 for m = 1..4, which flips the x signs
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)
IDENTITY_PERMUTATION = (1, 2, 3, 4, 5, 6, 7, 8)

# (a valid record, its fields, one field with an invalid value)
RECORDS = [
    pytest.param(ChshModel((0.5, 0.5), (0.0,) * 4, ((0, 1),) * 4), ("weights", "thetas", "bits"),
                 ("weights", (0.6, 0.6)), id="ChshModel"),
    pytest.param(Q8Element(Basis.J, -1), ("basis", "sign"), ("sign", 2), id="Q8Element"),
    pytest.param(SignedDistribution((0.125,) * 8), ("weights",), ("weights", (0.5,) * 8),
                 id="SignedDistribution"),
    pytest.param(PermutationMix(((IDENTITY_PERMUTATION, 0.5), (X_FLIP, 0.5))), ("terms",),
                 ("terms", ((X_FLIP, 1.5),)), id="PermutationMix"),
]


@pytest.mark.parametrize("record, fields, invalid", RECORDS)
def test_record_is_immutable_and_never_invalid(record, fields, invalid):
    cls, (field, value) = type(record), invalid
    assert cls._fields == fields
    changed = {**record._asdict(), field: value}
    with pytest.raises(ValueError):
        cls(**changed)
    with pytest.raises(ValueError):
        cls._make(changed.values())
    with pytest.raises(ValueError):
        record._replace(**{field: value})
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "no other attribute either"
    copy = cls(*record)
    assert copy == record and hash(copy) == hash(record) and copy._replace() == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"


def test_q8_elements_order_by_basis_then_sign():
    elements = [Q8Element(basis, sign) for basis in Basis for sign in (1, -1)]
    assert sorted(elements) == sorted(elements, key=lambda e: (e.basis, e.sign))
    assert Q8Element(Basis.ONE, 1) < Q8Element(Basis.I, -1) < Q8Element(Basis.I, 1)


def test_records_built_from_lists_hold_tuples():
    weights, thetas, bits = [0.5, 0.5], [0.0] * 4, [[0, 1] for _ in range(4)]
    model = ChshModel(weights, thetas, bits)
    perm = list(X_FLIP)
    mix = PermutationMix([[perm, 1.0]])
    weights[0], thetas[0], bits[0][0], perm[0] = 5.0, 1.0, 1, 1
    assert model == ChshModel((0.5, 0.5), (0.0,) * 4, ((0, 1),) * 4)
    assert mix == PermutationMix(((X_FLIP, 1.0),))
    for field in (*model, *model.bits, mix.terms, *mix.terms, mix.terms[0][0]):
        assert type(field) is tuple
    assert hash(model) == hash(ChshModel(*model)) and hash(mix) == hash(PermutationMix(*mix))
