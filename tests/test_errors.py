"""errors.Record, the base of the library's frozen records."""

import copy
import pickle

import pytest

from grifcalc.characters import (Character, enumerate_type, galois_orbit,
                                 rational_class)
from grifcalc.errors import Record
from grifcalc.hodge import CIData, hypersurface_prim_hodge
from grifcalc.invariant import distinguished_triple
from grifcalc.jacobian import HypersurfaceRing, TensorSum
from grifcalc.mulkernel import (RankOneGenerator, StandardTensor,
                                index_monomial, span_equals_kernel,
                                standardize)
from grifcalc.report import CheckResult, ReportDocument, ReportOptions


class Pair(Record):
    __slots__ = ("left", "right")


class Single(Record):
    __slots__ = ("value",)


def test_record_binds_each_field_once_by_position_or_keyword():
    assert Pair(1, 2) == Pair(1, right=2) == Pair(right=2, left=1)
    assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)
    message = "Pair takes exactly the fields left, right"
    for args, named in (((1,), {}), ((), {"left": 1}),  # missing
                        ((1, 2, 3), {}), ((1, 2), {"other": 3}),  # extra
                        ((1,), {"left": 1, "right": 2})):  # repeated
        with pytest.raises(TypeError) as info:
            Pair(*args, **named)
        assert str(info.value) == message


def test_record_compares_hashes_and_prints_its_fields():
    assert hash(Pair(1, (2,))) == hash((1, (2,)))
    assert hash(Single("a")) == hash(("a",))
    assert Pair(1, 2) != Pair(2, 1)
    assert Single((1, 2)) != Pair(1, 2) and Pair(1, 2) != (1, 2)
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    assert repr(Pair("x", [1])) == "Pair(left='x', right=[1])"
    assert repr(Single(None)) == "Single(value=None)"
    with pytest.raises(AttributeError) as info:
        Pair(1, 2).left = 3
    assert str(info.value) == "cannot assign to field 'left' of a Pair"


def _one_of_each_record():
    orbit = galois_orbit(enumerate_type(3, 8, (3, 3))[0])
    tensor = TensorSum.simple(index_monomial(6, (0, 1, 3)),
                              index_monomial(6, (2, 4, 5)))
    check = CheckResult("hodge.cubic", "pass", {"values": [1, 2]})
    return [Character(3, (1, 2)), orbit, rational_class(orbit),
            hypersurface_prim_hodge(3, 7), CIData((2, 3), 4),
            distinguished_triple(), RankOneGenerator(
                "swap_binomial", ((0, 1), (2, 3), 4, 5)),
            StandardTensor(6, (0, 1, 2, 3, 4, 5)),
            standardize(HypersurfaceRing.fermat(3, 6), tensor)[1],
            span_equals_kernel(6), check,
            ReportDocument("0.1.0", (check,), {"hodge.cubic": 0.5}),
            ReportOptions(kermu_vars=9, skip=("kermu",))]


def test_every_record_copies_and_pickles_through_its_init():
    records = _one_of_each_record()
    assert {type(r) for r in records} == {
        cls for cls in Record.__subclasses__()
        if cls.__module__.startswith("grifcalc.")}
    assert len(records) == 13
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record, record
    # a copy is rebuilt through the checks of __init__
    assert Character(3, (1, 2)).__reduce__() == (Character, (3, (1, 2)))
