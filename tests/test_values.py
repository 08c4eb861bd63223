"""Value semantics of DyckPath, MarkedRankWord, CheckResult and QtPolynomial.

Each is an immutable value: equal and hashed by its fields, unchanged by
assignment, and rebuilt equal by copy, deepcopy and pickle.  All but the
polynomial print as their constructor call; a polynomial prints as its
rendered sum and hashes its term set.  Each property holds for validated
values and for the values the library derives.
"""

import copy
import pickle

import pytest

from qtcatalan import paths, qtpoly, rankwords
from qtcatalan.paths import DyckPath
from qtcatalan.qtpoly import QtPolynomial
from qtcatalan.rankwords import MarkedRankWord
from qtcatalan.verify import CheckResult, check_closed_form

PATH = DyckPath(3, 4, (2, 4, 4))
WORD = MarkedRankWord(4, frozenset({2, 5}))  # the marked word of PATH
Q_PLUS_T = {(1, 0): 1, (0, 1): 1}  # the terms of C_{3,2}(q,t) = q + t

# each value once validated and once derived by the library, with its fields
VALUES = {
    "path": (PATH, (3, 4, (2, 4, 4))),
    "enumerated path": (next(paths.enumerate_paths(3, 4)), (3, 4, (2, 3, 4))),
    "transposed path": (paths.transpose(PATH), (4, 3, (2, 2, 3, 3))),
    "word": (WORD, (4, frozenset({2, 5}))),
    "marked word": (rankwords.mark_from_path(PATH), (4, frozenset({2, 5}))),
    "omega word": (rankwords.omega(1, 0, 2), (4, frozenset({5, 2}))),
    "lattice word": (rankwords.lattice_rank_word(5), (5, frozenset())),
    "check result": (CheckResult("path-count", 9), ("path-count", 9, None)),
    "run check result": (check_closed_form(2), ("closed-form", 2, None)),
    "polynomial": (QtPolynomial(Q_PLUS_T), (Q_PLUS_T,)),
    "walked polynomial": (qtpoly.catalan_bruteforce(3, 2), (Q_PLUS_T,)),
    "closed-form polynomial": (qtpoly.catalan3_closed_form(2), (Q_PLUS_T,)),
}
FIELDS = {
    DyckPath: ("m", "n", "east_heights"), MarkedRankWord: ("n", "boxed"),
    CheckResult: ("name", "checked", "counterexample"), QtPolynomial: ("_terms",),
}
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
    # a polynomial hashes its term set, since its one field is a dict
    hashed = frozenset(fields[0].items()) if cls is QtPolynomial else fields
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


DERIVED_WORDS = {
    "marked word": rankwords.mark_from_path(DyckPath(3, 8, (6, 6, 8))),
    "omega word": rankwords.omega(5, 1, 4),
}


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


def test_a_check_result_is_an_immutable_hashable_value():
    result = CheckResult("word-roundtrip", 15)
    assert result.ok
    with pytest.raises(AttributeError, match="^cannot assign to field 'checked'$"):
        result.checked += 1
    assert result == CheckResult("word-roundtrip", 15)
    failed = CheckResult("word-roundtrip", 16, "n=2 (1, 2, 2): word differs")
    assert not failed.ok and failed != result
    assert failed != ("word-roundtrip", 16, "n=2 (1, 2, 2): word differs")
    assert CheckResult.__eq__(failed, ("word-roundtrip", 16, None)) is NotImplemented
    assert hash(failed) == hash(("word-roundtrip", 16, "n=2 (1, 2, 2): word differs"))
    assert len({result, failed, CheckResult("word-roundtrip", 15)}) == 2


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
