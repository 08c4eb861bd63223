"""Value semantics of DyckPath, MarkedRankWord and CheckResult.

A path and a marked word are immutable values: equal and hashed by their
fields, printed as their constructor call, unchanged by assignment, and
rebuilt equal by copy, deepcopy and pickle.  A CheckResult is a mutable
record.  Each property holds for validated values and for the values
the library derives.
"""

import copy
import pickle

import pytest

from qtcatalan import paths, rankwords
from qtcatalan.paths import DyckPath
from qtcatalan.rankwords import MarkedRankWord
from qtcatalan.verify import CheckResult

PATH = DyckPath(3, 4, (2, 4, 4))
WORD = MarkedRankWord(4, frozenset({2, 5}))  # the marked word of PATH

# each value once validated and once derived by the library, with its fields
VALUES = {
    "path": (PATH, (3, 4, (2, 4, 4))),
    "enumerated path": (next(paths.enumerate_paths(3, 4)), (3, 4, (2, 3, 4))),
    "transposed path": (paths.transpose(PATH), (4, 3, (2, 2, 3, 3))),
    "word": (WORD, (4, frozenset({2, 5}))),
    "marked word": (rankwords.mark_from_path(PATH), (4, frozenset({2, 5}))),
    "omega word": (rankwords.omega(1, 0, 2), (4, frozenset({5, 2}))),
    "lattice word": (rankwords.lattice_rank_word(5), (5, frozenset())),
}
FIELDS = {DyckPath: ("m", "n", "east_heights"), MarkedRankWord: ("n", "boxed")}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {proto}": lambda v, proto=proto: pickle.loads(pickle.dumps(v, proto))
       for proto in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("name", VALUES)
def test_a_value_equals_and_hashes_as_its_fields(name):
    value, fields = VALUES[name]
    cls = type(value)
    assert tuple(getattr(value, f) for f in FIELDS[cls]) == fields
    assert value == cls(*fields) and not value != cls(*fields)
    assert hash(value) == hash(cls(*fields)) == hash(fields)
    # the fields alone, or another class, are not the value
    assert value != fields and not value == fields
    assert cls.__eq__(value, fields) is NotImplemented
    assert value != (PATH if cls is MarkedRankWord else WORD)


def test_values_that_differ_in_one_field_are_unequal():
    assert PATH != DyckPath(3, 4, (3, 4, 4))
    assert PATH != DyckPath(3, 5, (2, 4, 5))
    assert WORD != MarkedRankWord(4, frozenset({5}))
    assert WORD != MarkedRankWord(5, frozenset())
    assert len({PATH, DyckPath(3, 4, [2, 4, 4]), *paths.enumerate_paths(3, 4)}) == 5


@pytest.mark.parametrize("value, text", [
    (PATH, "DyckPath(m=3, n=4, east_heights=(2, 4, 4))"),
    (paths.transpose(PATH), "DyckPath(m=4, n=3, east_heights=(2, 2, 3, 3))"),
    (WORD, "MarkedRankWord(n=4, boxed=frozenset({2, 5}))"),
    (rankwords.mark_from_path(PATH), "MarkedRankWord(n=4, boxed=frozenset({2, 5}))"),
    (rankwords.lattice_rank_word(5), "MarkedRankWord(n=5, boxed=frozenset())"),
    (CheckResult("path-count", 9), "CheckResult(name='path-count', checked=9, counterexample=None)"),
    (CheckResult("involution", 1, "n=1 (1, 1, 1): triple not swapped"),
     "CheckResult(name='involution', checked=1, counterexample='n=1 (1, 1, 1): triple not swapped')"),
])
def test_repr_is_the_constructor_call(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name", VALUES)
def test_a_value_cannot_be_changed(name):
    value, fields = VALUES[name]
    for field in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert tuple(getattr(value, f) for f in FIELDS[type(value)]) == fields


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_a_copy_is_an_equal_value_of_the_same_class(name, how):
    value, _ = VALUES[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    if isinstance(value, MarkedRankWord):
        # a derived word keeps its two counts, a validated one its frozenset
        assert type(twin.boxed) is type(value.boxed)
        assert rankwords.boxed_counts(twin) == rankwords.boxed_counts(value)


def test_a_copied_derived_word_still_costs_nothing_per_rank():
    word = rankwords.omega(600000, 100000, 599999)
    for how in COPIES.values():
        twin = how(word)
        assert type(twin.boxed) is rankwords._TopRanks
        assert len(pickle.dumps(twin)) < 200


@pytest.mark.parametrize("how", COPIES)
def test_a_check_result_copies_as_an_equal_record(how):
    result = CheckResult("stat-identity", 1, "n=1 (1, 1, 1): 0+0+1 != 0")
    twin = COPIES[how](result)
    assert type(twin) is CheckResult and twin == result and twin is not result


def test_values_are_built_by_keyword():
    assert DyckPath(m=3, n=4, east_heights=[2, 4, 4]) == PATH
    assert DyckPath(3, n=4, east_heights=iter([2, 4, 4])).east_heights == (2, 4, 4)
    assert MarkedRankWord(n=4, boxed={5, 2}) == WORD
    assert type(MarkedRankWord(n=4, boxed=[5, 2]).boxed) is frozenset
    result = CheckResult(name="closed-form", checked=4, counterexample=None)
    assert result == CheckResult("closed-form", 4)


def test_values_match_by_position():
    match paths.transpose(PATH):
        case DyckPath(m, n, heights):
            assert (m, n, heights) == (4, 3, (2, 2, 3, 3))
        case _:
            pytest.fail("a path does not match DyckPath(m, n, east_heights)")
    match rankwords.mark_from_path(PATH):
        case MarkedRankWord(n, boxed):
            assert (n, boxed) == (4, {2, 5})
        case _:
            pytest.fail("a word does not match MarkedRankWord(n, boxed)")
    match CheckResult("qt-symmetry", 4):
        case CheckResult(name, checked, counterexample):
            assert (name, checked, counterexample) == ("qt-symmetry", 4, None)
        case _:
            pytest.fail("a result does not match CheckResult(name, checked, counterexample)")


def test_a_check_result_is_a_mutable_unhashable_record():
    result = CheckResult("word-roundtrip", 15)
    assert result.ok
    result.checked += 1
    result.counterexample = "n=2 (1, 2, 2): word differs"
    assert not result.ok
    assert result == CheckResult("word-roundtrip", 16, "n=2 (1, 2, 2): word differs")
    assert result != ("word-roundtrip", 16, "n=2 (1, 2, 2): word differs")
    assert CheckResult.__eq__(result, ("word-roundtrip", 16, None)) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


@pytest.mark.parametrize("cls, build, derive", [
    (DyckPath, lambda: paths.make_path(3, 4, [2, 4, 4]),
     lambda: (list(paths.enumerate_paths(3, 7)), paths.transpose(PATH))),
    (MarkedRankWord, lambda: rankwords.lattice_rank_word(5),
     lambda: (rankwords.mark_from_path(PATH), rankwords.omega(1, 0, 2))),
])
def test_the_constructor_validates_and_derived_values_skip_it(monkeypatch, cls, build, derive):
    # bench/tracing.py counts validated values by wrapping __init__ in the class dict
    calls = []
    init = vars(cls)["__init__"]
    monkeypatch.setattr(cls, "__init__", lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
    build()
    assert len(calls) == 1
    derive()
    assert len(calls) == 1
