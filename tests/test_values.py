"""The one value protocol, paths._Value, and what a caller sees of it.

DyckPath, MarkedRankWord, CheckResult, QtPolynomial and a derived word's
boxed set each take it from paths._Value, where it is written once.
Each is an immutable value: equal and hashed by its fields, refusing
assignment and deletion, with no __dict__, and rebuilt equal by copy,
deepcopy and pickle 0-5, which go through the validating constructor.
All but the polynomial and the boxed set print as their constructor
call; a polynomial prints as its rendered sum and hashes its term set,
and a boxed set equals, hashes and prints as the frozenset of its ranks.
VALUES holds each class as its constructor builds it and as the library
derives it (a boxed set only as derived), and each property is one test
over all of VALUES.
"""

import copy
import pickle
from collections.abc import Set

import pytest

from qtcatalan import paths, qtpoly, rankwords
from qtcatalan.errors import BelowDiagonal
from qtcatalan.paths import DyckPath
from qtcatalan.qtpoly import QtPolynomial
from qtcatalan.rankwords import MarkedRankWord
from qtcatalan.verify import CheckResult, check_closed_form

from oracles import PI1

PATH = DyckPath(3, 4, (2, 4, 4))
WORD = MarkedRankWord(4, frozenset({2, 5}))  # the marked word of PATH
Q_PLUS_T = {(1, 0): 1, (0, 1): 1}  # the terms of C_{3,2}(q,t) = q + t
# words whose boxed set is a _TopRanks, its two counts
DERIVED_WORDS = {
    "marked word": rankwords.mark_from_path(PI1),
    "omega word": rankwords.omega(5, 1, 4),
}


class ShortPath(DyckPath):
    """A subclass that adds no field; pickle finds it by its module name."""

    __slots__ = ()


# each value with its fields
VALUES = {
    "path": (PATH, (3, 4, (2, 4, 4))),
    "enumerated path": (next(paths.enumerate_paths(3, 4)), (3, 4, (2, 3, 4))),
    "transposed path": (paths.transpose(PATH), (4, 3, (2, 2, 3, 3))),
    "word": (WORD, (4, frozenset({2, 5}))),
    "marked word": (rankwords.mark_from_path(PATH), (4, frozenset({2, 5}))),
    "omega word": (rankwords.omega(1, 0, 2), (4, frozenset({5, 2}))),
    "lattice word": (rankwords.lattice_rank_word(5), (5, frozenset())),
    "marked word's boxed set": (DERIVED_WORDS["marked word"].boxed, (8, 2, 2)),
    "omega word's boxed set": (DERIVED_WORDS["omega word"].boxed, (11, 5, 0)),
    "check result": (CheckResult("path-count", 9), ("path-count", 9, None)),
    "failed check result": (
        CheckResult("involution", 1, "n=1 (1, 1, 1): triple not swapped"),
        ("involution", 1, "n=1 (1, 1, 1): triple not swapped")),
    "run check result": (check_closed_form(2), ("closed-form", 2, None)),
    "polynomial": (QtPolynomial(Q_PLUS_T), (Q_PLUS_T,)),
    "zero polynomial": (QtPolynomial(), ({},)),
    "walked polynomial": (qtpoly.catalan_bruteforce(3, 2), (Q_PLUS_T,)),
    "closed-form polynomial": (qtpoly.catalan3_closed_form(2), (Q_PLUS_T,)),
}
FIELDS = {
    DyckPath: ("m", "n", "east_heights"), MarkedRankWord: ("n", "boxed"),
    rankwords._TopRanks: ("n", "k", "ell"),
    CheckResult: ("name", "checked", "counterexample"), QtPolynomial: ("_terms",),
}
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {proto}": lambda v, proto=proto: pickle.loads(pickle.dumps(v, proto))
       for proto in PROTOCOLS},
}


def fields_of(value):
    return tuple(getattr(value, f) for f in FIELDS[type(value)])


@pytest.mark.parametrize("name", VALUES)
def test_a_value_equals_and_hashes_as_its_fields(name):
    value, fields = VALUES[name]
    cls = type(value)
    assert fields_of(value) == fields
    assert value == cls(*fields) and not value != cls(*fields)
    # a polynomial hashes its term set, since its one field is a dict, and
    # a boxed set the frozenset of its ranks
    hashed = (frozenset(fields[0].items()) if cls is QtPolynomial
              else frozenset(value) if cls is rankwords._TopRanks else fields)
    assert hash(value) == hash(cls(*fields)) == hash(hashed)
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
    assert CheckResult("path-count", 9) != CheckResult("path-count", 8)
    assert CheckResult("path-count", 9) != CheckResult("path-count", 9, "(1,2): enumerated 2")
    assert CheckResult("path-count", 9) != CheckResult("closed-form", 9)
    assert QtPolynomial(Q_PLUS_T) != QtPolynomial({(1, 0): 1, (0, 1): 2})
    assert QtPolynomial(Q_PLUS_T) != QtPolynomial({(1, 0): 1})


@pytest.mark.parametrize("value, text", [
    (PATH, "DyckPath(m=3, n=4, east_heights=(2, 4, 4))"),
    (paths.transpose(PATH), "DyckPath(m=4, n=3, east_heights=(2, 2, 3, 3))"),
    (WORD, "MarkedRankWord(n=4, boxed=frozenset({2, 5}))"),
    (rankwords.mark_from_path(PATH), "MarkedRankWord(n=4, boxed=frozenset({2, 5}))"),
    (rankwords.lattice_rank_word(5), "MarkedRankWord(n=5, boxed=frozenset())"),
    (CheckResult("path-count", 9), "CheckResult(name='path-count', checked=9, counterexample=None)"),
    (CheckResult("involution", 1, "n=1 (1, 1, 1): triple not swapped"),
     "CheckResult(name='involution', checked=1, counterexample='n=1 (1, 1, 1): triple not swapped')"),
    (QtPolynomial(Q_PLUS_T), "QtPolynomial('q + t')"),
    (QtPolynomial(), "QtPolynomial('0')"),
])
def test_repr_is_the_constructor_call(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name", VALUES)
def test_a_value_cannot_be_changed_and_has_no_dict(name):
    value, fields = VALUES[name]
    for field in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert fields_of(value) == fields and not hasattr(value, "extra")
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_a_copy_is_an_equal_value_of_the_same_class(name, how):
    value, fields = VALUES[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value) and twin is not value
    assert fields_of(twin) == fields and not hasattr(twin, "__dict__")
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    if isinstance(value, Set):
        assert twin == frozenset(value)
    if isinstance(value, MarkedRankWord):
        # a derived word keeps its two counts, a validated one its frozenset
        assert type(twin.boxed) is type(value.boxed)
        assert rankwords.boxed_counts(twin) == rankwords.boxed_counts(value)


@pytest.mark.parametrize("how", COPIES)
def test_a_derived_word_costs_nothing_per_rank_to_copy_or_pickle(how):
    word = rankwords.omega(600000, 100000, 599999)
    assert len(word.boxed) == 699999
    twin = COPIES[how](word)
    assert type(twin.boxed) is type(COPIES[how](word.boxed)) is rankwords._TopRanks
    for proto in PROTOCOLS:
        assert len(pickle.dumps(twin, proto)) < 200
        assert len(pickle.dumps(word.boxed, proto)) < 200


def overwritten(value, setter, field):
    """value with one field overwritten, as no constructor would build it."""
    setter(value, field)
    return value


# values that only the slot setters can build, and what loading one raises;
# _derived builds unchecked, so it can hold counts the n-row word lacks
UNLOADABLE = {
    **{f"word boxing {k} and {ell} of {n}": (
        rankwords._derived(n, k, ell), ValueError,
        f"^cannot box the top {k} color-1 and {ell} ")
       for n, k, ell in [(8, 9, 0), (8, 0, 3), (8, -1, 0), (4, 2, 2)]},
    "word boxing a float count": (rankwords._derived(4, 1.0, 0), TypeError, None),
    "path below the diagonal": (
        overwritten(DyckPath(3, 4, (2, 4, 4)), paths._set_heights, (1, 4, 4)),
        BelowDiagonal, "^east step 1 at height 1 dips below the diagonal"),
    "polynomial with a negative coefficient": (
        overwritten(QtPolynomial(), qtpoly._set_terms, {(0, 0): -1}), ValueError,
        "nonnegative"),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", UNLOADABLE)
def test_a_value_is_validated_again_on_load(name, how):
    value, error, match = UNLOADABLE[name]
    with pytest.raises(error, match=match):
        COPIES[how](value)


@pytest.mark.parametrize("cls", [
    DyckPath, MarkedRankWord, CheckResult, QtPolynomial, rankwords._TopRanks])
def test_the_protocol_is_written_once_in_the_base(cls):
    own = vars(cls)
    top = cls is rankwords._TopRanks
    for name in ("__setattr__", "__delattr__", "__reduce__"):
        assert name not in own
    # a boxed set equals, hashes and prints as the frozenset of its ranks
    assert ("__eq__" in own) is top
    # a polynomial hashes its term set, not its dict, and prints as its sum
    for name in ("__hash__", "__repr__"):
        assert (name in own) is (cls is QtPolynomial or top)
    # bench/tracing.py wraps the validating constructor in the class dict
    assert "__init__" in own
    assert cls.__match_args__ == cls.__slots__
    assert cls.__bases__ == ((paths._Value, Set) if top else (paths._Value,))
    assert paths._Value.__bases__ == (object,)
    assert not hasattr(paths, "_Record")


def test_a_subclass_with_empty_slots_keeps_the_fields_of_its_base():
    p = ShortPath(3, 4, (2, 4, 4))
    assert ShortPath.__match_args__ == DyckPath.__slots__
    assert repr(p) == "ShortPath(m=3, n=4, east_heights=(2, 4, 4))"
    assert p == ShortPath(3, 4, [2, 4, 4]) and hash(p) == hash(PATH)
    assert p != PATH and PATH != p  # equal only to its own class
    with pytest.raises(AttributeError):
        p.m = 4
    for how in COPIES.values():
        twin = how(p)
        assert type(twin) is ShortPath and twin == p


@pytest.mark.parametrize("name", DERIVED_WORDS)
def test_a_derived_words_boxed_set_cannot_be_changed(name):
    word = DERIVED_WORDS[name]
    boxed, hashed, text = word.boxed, hash(word), rankwords.render_word(word)
    fields = (boxed.n, boxed.k, boxed.ell)
    for field in ("n", "k", "ell"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(boxed, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(boxed, field)
    assert (boxed.n, boxed.k, boxed.ell) == fields
    assert hash(word) == hashed and rankwords.render_word(word) == text
    assert word in {word: None}


@pytest.mark.parametrize("name", DERIVED_WORDS)
def test_the_constructor_keeps_a_derived_boxed_set_as_its_two_counts(name):
    word = DERIVED_WORDS[name]
    twin = MarkedRankWord(word.n, word.boxed)
    assert twin == word and hash(twin) == hash(word)
    assert type(twin.boxed) is rankwords._TopRanks
    assert rankwords.boxed_counts(twin) == rankwords.boxed_counts(word)
    # a set of another n is read as its ranks, and checked rank by rank
    assert type(MarkedRankWord(word.n + 3, word.boxed).boxed) is frozenset
    with pytest.raises(ValueError, match="not ranks of the 2-row lattice"):
        MarkedRankWord(2, word.boxed)


def test_values_are_built_by_keyword():
    assert DyckPath(m=3, n=4, east_heights=[2, 4, 4]) == PATH
    assert DyckPath(3, n=4, east_heights=iter([2, 4, 4])).east_heights == (2, 4, 4)
    assert MarkedRankWord(n=4, boxed={5, 2}) == WORD
    assert type(MarkedRankWord(n=4, boxed=[5, 2]).boxed) is frozenset
    result = CheckResult(name="closed-form", checked=4, counterexample=None)
    assert result == CheckResult("closed-form", 4)
    assert QtPolynomial(terms={(0, 1): 1, (1, 0): 1, (2, 2): 0}) == QtPolynomial(Q_PLUS_T)


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
    match qtpoly.catalan_bruteforce(3, 2):
        case QtPolynomial(terms):
            assert terms == Q_PLUS_T
        case _:
            pytest.fail("a polynomial does not match QtPolynomial(terms)")


def test_a_check_result_is_ok_without_a_counterexample():
    assert CheckResult("word-roundtrip", 15).ok
    assert not CheckResult("word-roundtrip", 16, "n=2 (1, 2, 2): word differs").ok


@pytest.mark.parametrize("cls, build, derive", [
    (DyckPath, lambda: paths.make_path(3, 4, [2, 4, 4]),
     lambda: (list(paths.enumerate_paths(3, 7)), paths.transpose(PATH),
              rankwords.path_from_word(rankwords.mark_from_path(PATH)))),
    (MarkedRankWord, lambda: rankwords.lattice_rank_word(5),
     lambda: (rankwords.mark_from_path(PATH), rankwords.omega(1, 0, 2))),
    (QtPolynomial, lambda: QtPolynomial(Q_PLUS_T),
     lambda: (qtpoly.catalan_bruteforce(3, 7), qtpoly.catalan3_closed_form(7),
              qtpoly.catalan_bruteforce(3, 7) + qtpoly.catalan3_closed_form(7))),
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
