"""The five records of the package are immutable tuples that no constructor
path builds invalid: the class, _make, and _replace all run its checks."""

import pytest

from qlhv.chsh import ChshModel
from qlhv.ghz import ParityCheckReport, classical_parity_check
from qlhv.qubit import IDENTITY_PERMUTATION, X_FLIP, PermutationMix, SignedDistribution
from qlhv.quaternions import Basis, Q8Element, Q8_ELEMENTS

# (a valid record, its fields, one field with an invalid value)
RECORDS = [
    pytest.param(ChshModel((0.5, 0.5), (0.0,) * 4, ((0, 1),) * 4), ("weights", "thetas", "bits"),
                 ("weights", (0.6, 0.6)), id="ChshModel"),
    pytest.param(Q8Element(Basis.J, -1), ("basis", "sign"), ("sign", 2), id="Q8Element"),
    pytest.param(SignedDistribution((0.125,) * 8), ("weights",), ("weights", (0.5,) * 8),
                 id="SignedDistribution"),
    pytest.param(PermutationMix(((IDENTITY_PERMUTATION, 0.5), (X_FLIP, 0.5))), ("terms",),
                 ("terms", ((X_FLIP, 1.5),)), id="PermutationMix"),
    pytest.param(classical_parity_check(), ("satisfying_count", "xxx_sign_products"),
                 ("satisfying_count", -1), id="ParityCheckReport"),
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
    assert sorted(Q8_ELEMENTS) == sorted(Q8_ELEMENTS, key=lambda e: (e.basis, e.sign))
    assert Q8Element(Basis.ONE, 1) < Q8Element(Basis.I, -1) < Q8Element(Basis.I, 1)


def test_parity_report_rejects_malformed_fields():
    with pytest.raises(ValueError, match="satisfying count"):
        ParityCheckReport(True, frozenset({1}))
    with pytest.raises(ValueError, match="sign products"):
        ParityCheckReport(8, frozenset({1, 2}))
    with pytest.raises(ValueError, match="sign products"):
        ParityCheckReport(8, {1})
