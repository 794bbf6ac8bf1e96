"""errors.Record, the base of the library's frozen records."""

import pytest

from grifcalc.errors import Record


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
