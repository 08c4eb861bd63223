"""The one value protocol behind DyckPath, MarkedRankWord, CheckResult,
QtPolynomial and a derived word's boxed set, and the pickling of that set.

tests/test_values.py checks what a caller sees of each value; this file
checks that no instance grows a __dict__, that the protocol is written
once, in paths._Value, a base of all five, and that a derived word's
boxed set copies and pickles as its two counts under every protocol.
"""

import copy
import pickle
from collections.abc import Set

import pytest

from qtcatalan import paths, qtpoly, rankwords
from qtcatalan.paths import DyckPath
from qtcatalan.qtpoly import QtPolynomial
from qtcatalan.rankwords import MarkedRankWord
from qtcatalan.verify import CheckResult

PATH = DyckPath(3, 4, (2, 4, 4))


class ShortPath(DyckPath):
    """A subclass that adds no field; pickle finds it by its module name."""

    __slots__ = ()


# each class once validated and, but for check results, once derived
INSTANCES = {
    "path": PATH,
    "enumerated path": next(paths.enumerate_paths(3, 4)),
    "transposed path": paths.transpose(PATH),
    "word": MarkedRankWord(4, frozenset({2, 5})),
    "marked word": rankwords.mark_from_path(PATH),
    "omega word": rankwords.omega(1, 0, 2),
    "lattice word": rankwords.lattice_rank_word(5),
    "check result": CheckResult("path-count", 9),
    "failed check result": CheckResult("involution", 1, "n=1 (1, 1, 1): triple not swapped"),
    "polynomial": QtPolynomial({(1, 0): 1, (0, 1): 1}),
    "walked polynomial": qtpoly.catalan_bruteforce(3, 4),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {proto}": lambda v, proto=proto: pickle.loads(pickle.dumps(v, proto))
       for proto in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("name", INSTANCES)
def test_no_instance_has_a_dict(name):
    value = INSTANCES[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)
    for how in COPIES.values():
        assert not hasattr(how(value), "__dict__")


def test_a_check_result_takes_no_attribute_beyond_its_fields():
    result = CheckResult("closed-form", 4)
    with pytest.raises(AttributeError):
        result.extra = 0
    assert not hasattr(result, "extra")
    assert result == CheckResult("closed-form", 4)


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


@pytest.mark.parametrize("how", COPIES)
def test_a_derived_boxed_set_copies_as_its_two_counts(how):
    boxed = rankwords.omega(5, 1, 4).boxed
    twin = COPIES[how](boxed)
    assert type(twin) is rankwords._TopRanks
    assert twin == boxed and hash(twin) == hash(boxed)
    assert (twin.n, twin.k, twin.ell) == (boxed.n, boxed.k, boxed.ell)
    assert twin == frozenset(boxed)


@pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_derived_boxed_set_costs_nothing_per_rank(proto):
    boxed = rankwords.omega(600000, 100000, 599999).boxed
    assert len(boxed) == 699999
    data = pickle.dumps(boxed, proto)
    assert len(data) < 200
    assert type(pickle.loads(data)) is rankwords._TopRanks


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


@pytest.mark.parametrize("n, k, ell", [(8, 9, 0), (8, 0, 3), (8, -1, 0), (4, 2, 2)])
def test_a_derived_word_is_validated_again_on_load(n, k, ell):
    # _derived builds unchecked, so it can hold counts the n-row word lacks
    word = rankwords._derived(n, k, ell)
    for how in COPIES.values():
        with pytest.raises(ValueError, match=f"^cannot box the top {k} color-1 and {ell} "):
            how(word)
    with pytest.raises(TypeError):
        MarkedRankWord(4, rankwords._TopRanks(4, 1.0, 0))
