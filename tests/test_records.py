"""The `Record` base: immutability, equality, hashing and repr."""

from __future__ import annotations

import pytest

from stringnet import Record
from stringnet.category import CategoryParams, GradedMorphism, GradedObject, identity
from stringnet.cyclotomic import CycNum
from stringnet.diagrams import SliceDiagram
from stringnet.frobenius import frobenius_zr
from stringnet.rspin import AdmissibilityReport, MarkedPLCW, standard_decomposition


class _Point(Record):
    __slots__ = _fields = ("x", "y")


class _Pair(Record):
    __slots__ = _fields = ("x", "y")


def test_equal_arguments_give_equal_records():
    assert CategoryParams(5) == CategoryParams(5)
    assert hash(CategoryParams(5)) == hash(CategoryParams(5))
    assert CategoryParams(5) != CategoryParams(3)
    # the constructor normalises grades before they are compared
    assert GradedObject(3, (4, -1)) == GradedObject(3, (1, 2))
    assert hash(GradedObject(3, (4, -1))) == hash(GradedObject(3, (1, 2)))
    assert len({GradedObject(3, (4,)), GradedObject(3, (1,)), GradedObject(3, (2,))}) == 2


def test_classes_with_the_same_fields_are_never_equal():
    assert _Point(1, 2) == _Point(1, 2)
    assert _Point(1, 2) != _Pair(1, 2)
    assert _Point(1, 2) != (1, 2)


def test_records_are_immutable():
    params = CategoryParams(3)
    with pytest.raises(AttributeError):
        params.r = 4
    with pytest.raises(AttributeError):
        del params.r
    with pytest.raises(AttributeError):
        params.extra = 1
    f_data = frobenius_zr(params)  # keeps an instance dict for its cached property
    with pytest.raises(AttributeError):
        f_data.mu = f_data.delta
    assert params.r == 3 and f_data.nakayama_pair is f_data.nakayama_pair


def test_field_count_is_checked():
    with pytest.raises(TypeError, match="takes 2 fields, got 1"):
        _Point(1)


def test_repr_names_every_field():
    assert repr(CategoryParams(3)) == "CategoryParams(r=3)"
    assert repr(AdmissibilityReport(False, {0: 1})) == "AdmissibilityReport(ok=False, residues={0: 1})"


def test_admissibility_report_compares_every_field():
    a = AdmissibilityReport(False, {0: 1})
    assert a == AdmissibilityReport(False, {0: 1})
    assert a != AdmissibilityReport(False, {0: 2})
    assert a != AdmissibilityReport(True, {0: 1})


def test_equal_markings_are_equal_and_hash_equal():
    complex_ = standard_decomposition(1)
    m = MarkedPLCW(complex_, 2, {0: 0, 1: 3})
    same = MarkedPLCW(complex_, 2, {0: 2, 1: 1})
    assert m == same and hash(m) == hash(same)
    assert "indices=(0, 1)" in repr(m)


def test_shared_values_survive_deletion_and_assignment():
    """identity(x) and CycNum.one(r) are memoised, one instance per process."""
    x = GradedObject(3, (0, 1))
    diagram = SliceDiagram(x, [[identity(x)], [identity(x)]])
    with pytest.raises(AttributeError):
        del identity(x).columns
    with pytest.raises(AttributeError):
        del diagram.layers
    with pytest.raises(AttributeError):
        del CycNum.one(3).nums
    with pytest.raises(AttributeError):
        identity(x).columns = ()
    with pytest.raises(AttributeError):
        CycNum.one(3).den = 2
    one = CycNum(3, [1, 0])
    assert identity(x) == GradedMorphism(x, x, {(0, 0): one, (1, 1): one})
    assert diagram == SliceDiagram(x, [[identity(x)], [identity(x)]])
    assert CycNum.one(3) == one and CycNum.one(3).nums == (1, 0)
