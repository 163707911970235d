"""The four value types are immutable named tuples.  Their repr,
pickling, hashing and read-only fields are pinned, and the two checked
types, SubsetMask and LatinSquare, check every way they are built."""

import copy
import pickle

import pytest

from latinsq.latin_gen import GenerationReport
from latinsq.mask_set import SubsetMask
from latinsq.validator import LatinSquare, ValidationResult

SQUARE = LatinSquare([[1, 2], [2, 1]])


@pytest.mark.parametrize("value, fields, text", [
    (SubsetMask(13, 12), ("bits", "order"), "SubsetMask(bits=13, order=12)"),
    (SQUARE, ("cells",), "LatinSquare(cells=((1, 2), (2, 1)))"),
    (
        ValidationResult(False, "row 2 duplicates 2"),
        ("ok", "message"),
        "ValidationResult(ok=False, message='row 2 duplicates 2')",
    ),
    (
        GenerationReport(SQUARE, 0),
        ("square", "repairs"),
        "GenerationReport(square=LatinSquare(cells=((1, 2), (2, 1))), repairs=0)",
    ),
], ids=["SubsetMask", "LatinSquare", "ValidationResult", "GenerationReport"])
def test_value_type_contract(value, fields, text):
    assert repr(value) == text
    twin = pickle.loads(pickle.dumps(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert copy.deepcopy(value) == value
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, change", [
    (SubsetMask(13, 12), {"bits": 1 << 12}),
    (SubsetMask(13, 12), {"bits": -1}),
    (SubsetMask(13, 12), {"bits": 2.5}),
    (SQUARE, {"cells": ((1, 1), (1, 1))}),
    (SQUARE, {"cells": ((1, 2), (2, 3))}),
])
def test_replace_checks_the_new_fields(value, change):
    with pytest.raises(ValueError):
        value._replace(**change)
    with pytest.raises(ValueError):
        type(value)._make({**value._asdict(), **change}.values())
    if hasattr(copy, "replace"):  # Python 3.13 and later
        with pytest.raises(ValueError):
            copy.replace(value, **change)


def test_replace_with_good_fields_builds_the_same_type():
    assert SubsetMask(13, 12)._replace(bits=1) == SubsetMask(1, 12)
    square = SQUARE._replace(cells=[[2, 1], [1, 2]])
    assert type(square) is LatinSquare and square.cells == ((2, 1), (1, 2))
