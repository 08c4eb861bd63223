"""The library's small answers and refusals, each pinned exactly, and its integer rule.

CALLS maps a row name to a call of no arguments and its outcome: the value
it returns, compared together with its type (a StatTriple is not a tuple,
True is not 1), or Refused(Error, message) when it raises, compared with
the exact type and str of the exception, so a subclass or a reworded
message fails.  An input that several entry points refuse (one lattice,
one row count) enters the table from a comprehension, so no call is
written out twice.

COSTS states what a call costs: built outside the count at each of its
sizes, a row's call runs the same lines of qtcatalan code at every size,
within the row's bound on lines and under its bound on peak memory where
it has them.  The rows cover the statistics, words, omega and involution
of a three-column path from n = 1001 to 10^12 + 1, dinv and transpose as
the columns grow from 5 to 33, the brute-force walk's lines per setting
of the columns above the ones it counts, and enumeration's memory.

INTEGER_CALLS states README's integer rule: each public function that
takes an integer refuses a float and takes any type with __index__.
"""

import sys
import tracemalloc
from functools import partial
from typing import Callable, NamedTuple

import pytest

from qtcatalan import (
    COEFFICIENT_LIMIT,
    BadCharacter,
    BadResidue,
    BelowDiagonal,
    Cell,
    CellClass,
    CellNotAboveThePath,
    CoefficientOverflow,
    DyckPath,
    EmptyBound,
    InvalidTriple,
    MarkedRankWord,
    NotCoprime,
    NotMonotone,
    NotRealizable,
    QtPolynomial,
    RankEntry,
    StatTriple,
    UnsupportedM,
    area,
    arm,
    boxed_counts,
    catalan3_closed_form,
    catalan_bruteforce,
    cells_above,
    classify_nondinv_cell,
    contributes_to_dinv,
    count_paths,
    count_skips,
    dinv,
    enumerate_paths,
    involution,
    is_qt_symmetric,
    is_valid_triple,
    lattice_rank_word,
    leg,
    make_path,
    mark_from_path,
    min_east_height,
    omega,
    parse_path,
    path_from_word,
    rank,
    render_path,
    render_word,
    shape_cells,
    skips,
    stat_triple,
    transpose,
)
from qtcatalan import errors, paths, qtpoly, verify

from oracles import CLASSICAL_C3, PI1, PI2


class Refused(NamedTuple):
    """The outcome of a call that raises exactly error, whose str is message."""

    error: type
    message: str


LIMIT = COEFFICIENT_LIMIT
BIG = LIMIT + 1
ONE = QtPolynomial({(0, 0): 1})
ZERO_Q = {(1, 0): 0, (0, 1): 2}  # 0 q + 2 t
SINGLE_CELL_PATH = make_path(3, 4, [3, 4, 4])
ONE_CELL = Cell(1, 4)  # the one cell above it
TWO_COLUMN_PATH = make_path(2, 5, [3, 5])  # the operations on three-column paths refuse it


def fields(p):
    """A path's type and fields, to compare with a path not built in advance."""
    return type(p), p.m, p.n, p.east_heights


def enumerated(m, n):
    """How many paths enumerate_paths(m, n) yields."""
    return sum(1 for _ in enumerate_paths(m, n))


def unboxed(*pairs):
    """The entries of a word that boxes nothing, from (rank, color) pairs."""
    return tuple(RankEntry(r, c, False) for r, c in pairs)


def not_monotone(heights):
    """The refusal of these heights on the (3,5)-lattice."""
    return Refused(NotMonotone, f"heights must weakly increase within 0..5: {heights}")


def dips(a, y, floor):
    """The refusal of east step a at height y, below its floor."""
    return Refused(BelowDiagonal,
                   f"east step {a} at height {y} dips below the diagonal (needs >= {floor})")


def no_triple(a, s, d):
    """omega's refusal of a triple that no path has."""
    return Refused(InvalidTriple, f"no path has area={a}, skips={s}, dinv={d}")


# lattices that every entry point refuses before it reads a height
REFUSED_LATTICES = {
    **dict.fromkeys([(0, 1), (1, 0), (2, -1), (-1, 2), (0, 5), (5, 0), (-3, 4), (3, -4)],
                    Refused(ValueError, "m and n must be positive")),
    (3, 6): Refused(NotCoprime, "gcd(3, 6) != 1"),
    (4, 6): Refused(NotCoprime, "gcd(4, 6) != 1"),
    (BIG, 1): Refused(CoefficientOverflow, f"m must be at most {LIMIT}, got {BIG}"),
    (1, BIG): Refused(CoefficientOverflow, f"n must be at most {LIMIT}, got {BIG}"),
    (LIMIT, BIG): Refused(CoefficientOverflow, f"n must be at most {LIMIT}, got {BIG}"),
}
LATTICE_ENTRIES = {
    "count_paths": count_paths,
    "enumerate_paths": lambda m, n: next(enumerate_paths(m, n)),
    "catalan_bruteforce": catalan_bruteforce,
    "make_path": lambda m, n: make_path(m, n, [n]),  # refused before the heights are read
}
# row counts that every entry point of the three-column lattice refuses
REFUSED_ROWS = {
    0: Refused(ValueError, "n must be positive"),
    6: Refused(BadResidue, "n must not be a multiple of 3, got 6"),
    BIG: Refused(CoefficientOverflow, f"n must be at most {LIMIT}, got {BIG}"),
}
ROW_ENTRIES = {
    "lattice_rank_word": lattice_rank_word,
    "MarkedRankWord": lambda n: MarkedRankWord(n, ()),
    "catalan3_closed_form": catalan3_closed_form,
}
PATH_COUNTS = {(3, 5): 7, (3, 4): 5, (1, 9): 1, (2, 3): 2, (7, 30): 278256}
# tall and wide lattices whose first path COSTS bounds in memory
FIRST_PATH_LATTICES = ((2, 10**9 + 1), (3, 3 * 10**8 + 1), (1099, 2), (10001, 2), (10001, 10000))

CALLS = {
    **{f"{name}{mn}": (partial(entry, *mn), refused)
       for mn, refused in REFUSED_LATTICES.items() for name, entry in LATTICE_ENTRIES.items()},
    **{f"{name}({n})": (partial(entry, n), refused)
       for n, refused in REFUSED_ROWS.items() for name, entry in ROW_ENTRIES.items()},
    **{f"{f.__name__}{mn}": (partial(f, *mn), count)
       for mn, count in PATH_COUNTS.items() for f in (count_paths, enumerated)},
    # at the cap, a lattice of one column or one row has its one path at once
    "count_paths at the cap": (lambda: count_paths(1, LIMIT), 1),
    "catalan_bruteforce at the cap": (lambda: catalan_bruteforce(LIMIT, 1), ONE),
    # the path is compared by its fields, so that no path of n = LIMIT is
    # built at import: an O(n) DyckPath then fails its COSTS row, not collection
    "first path at the cap": (lambda: fields(next(enumerate_paths(1, LIMIT))),
                              (DyckPath, 1, LIMIT, (LIMIT,))),
    # the first path of a lattice stands at its floors
    **{f"first path {mn}": (lambda mn=mn: next(enumerate_paths(*mn)),
                            DyckPath(*mn, [-(-a * mn[1] // mn[0]) for a in range(1, mn[0] + 1)]))
       for mn in FIRST_PATH_LATTICES},

    # paths: construction, parsing, shapes
    "make_path (1,4)": (lambda: make_path(1, 4, [4]), DyckPath(1, 4, (4,))),
    "make_path at the floors": (lambda: make_path(3, 5, [2, 4, 5]), DyckPath(3, 5, (2, 4, 5))),
    "make_path below the diagonal": (lambda: make_path(3, 5, [1, 4, 5]), dips(1, 1, 2)),
    "make_path decreasing": (lambda: make_path(3, 5, [4, 3, 5]), not_monotone((4, 3, 5))),
    "make_path above n": (lambda: make_path(3, 5, [2, 4, 6]), not_monotone((2, 4, 6))),
    "make_path negative": (lambda: make_path(3, 5, [-1, 4, 5]), not_monotone((-1, 4, 5))),
    # the first bad column names the error
    "make_path dips first": (lambda: make_path(3, 5, [1, 0, 5]), dips(1, 1, 2)),
    "make_path decreases first": (lambda: make_path(3, 5, [2, 1, 5]), not_monotone((2, 1, 5))),
    "make_path two heights": (
        lambda: make_path(3, 5, [2, 4]), Refused(ValueError, "expected 3 east heights, got 2")),
    "min_east_height m=0": (
        lambda: min_east_height(1, 0, 5), Refused(ValueError, "m must be positive, got 0")),
    "min_east_height m=-2": (
        lambda: min_east_height(1, -2, 5), Refused(ValueError, "m must be positive, got -2")),
    "parse_path (1,4)": (lambda: parse_path("NNNNE"), DyckPath(1, 4, (4,))),
    "parse_path (3,4)": (lambda: parse_path("NNENNEE"), DyckPath(3, 4, (2, 4, 4))),
    "parse_path bad character": (lambda: parse_path("NEX"), Refused(
        BadCharacter, "step words use only N and E, found 'X'")),
    "parse_path ending north": (lambda: parse_path("NENNENN"), dips(1, 1, 3)),
    "parse_path (4,4)": (lambda: parse_path("NNEE" * 2), Refused(NotCoprime, "gcd(4, 4) != 1")),
    "cells_above top path": (lambda: cells_above(make_path(3, 5, [5, 5, 5])), (0, 0, 0)),
    "cells_above PI1": (lambda: cells_above(PI1), (2, 2, 0)),
    "cells_above PI2": (lambda: cells_above(PI2), (1, 1, 0)),
    "shape_cells PI1": (
        lambda: shape_cells(PI1), (Cell(1, 7), Cell(1, 8), Cell(2, 7), Cell(2, 8))),
    "arm PI1 (1,8)": (lambda: arm(PI1, Cell(1, 8)), 1),
    "leg PI1 (1,8)": (lambda: leg(PI1, Cell(1, 8)), 1),
    "arm PI1 (1,7)": (lambda: arm(PI1, Cell(1, 7)), 1),
    "leg PI1 (1,7)": (lambda: leg(PI1, Cell(1, 7)), 0),
    "shape_cells single cell": (lambda: shape_cells(SINGLE_CELL_PATH), (ONE_CELL,)),
    "arm single cell": (lambda: arm(SINGLE_CELL_PATH, ONE_CELL), 0),
    "leg single cell": (lambda: leg(SINGLE_CELL_PATH, ONE_CELL), 0),
    "leg outside the lattice": (lambda: leg(PI1, Cell(4, 8)), Refused(
        CellNotAboveThePath, "cell (4, 8) is outside the lattice")),
    # below the path, (1,6) just below it, and the first row and last column
    **{f"arm below the path {cell}": (partial(arm, PI1, Cell(*cell)), Refused(
        CellNotAboveThePath, f"cell {cell} lies below the path"))
       for cell in ((1, 3), (1, 6), (1, 1), (3, 8))},
    "transpose (1,4)": (lambda: transpose(make_path(1, 4, [4])), DyckPath(4, 1, (1, 1, 1, 1))),

    # statistics
    "area PI1": (lambda: area(PI1), 3),
    "area PI2": (lambda: area(PI2), 5),
    # the top path's area is half the lattice, (m - 1)(n - 1) / 2; REFERENCES'
    # area-by-cells, which counts the cells under the heights, bounds the rest
    **{f"area top {mn}": (lambda mn=mn: area(make_path(*mn, [mn[1]] * mn[0])), half)
       for mn, half in {(3, 5): 4, (4, 7): 9, (5, 3): 4}.items()},
    **{f"area (1,{n})": (lambda n=n: area(make_path(1, n, [n])), 0) for n in (1, 2, 5, 9)},
    "dinv PI1": (lambda: dinv(PI1), 2),
    "dinv PI2": (lambda: dinv(PI2), 1),
    "contributes arm 0 leg 0": (lambda: contributes_to_dinv(SINGLE_CELL_PATH, ONE_CELL), True),
    "skips PI1": (lambda: skips(PI1), 2),
    "skips PI2": (lambda: skips(PI2), 1),
    "skips top path": (lambda: skips(make_path(3, 8, [8, 8, 8])), 0),
    "stat_triple PI1": (lambda: stat_triple(PI1), StatTriple(3, 2, 2)),
    "stat_triple PI2": (lambda: stat_triple(PI2), StatTriple(5, 1, 1)),
    **{f"stat_triple top (3,{n})": (lambda n=n: stat_triple(make_path(3, n, [n] * 3)),
                                    StatTriple(n - 1, 0, 0)) for n in (4, 7, 10)},
    # (1,8) above PI2 has arm 1 and leg 0 < 8/3 - 1; above (3,8,8), arm 0 and leg 4 > 8/3
    "classify short leg": (
        lambda: classify_nondinv_cell(PI2, Cell(1, 8)), CellClass.ARM1_SHORT_LEG),
    "classify long leg": (lambda: classify_nondinv_cell(make_path(3, 8, [3, 8, 8]), Cell(1, 8)),
                          CellClass.ARM0_LONG_LEG),
    "involution PI1": (lambda: involution(PI1), DyckPath(3, 8, (3, 8, 8))),
    "stat_triple involution PI1": (lambda: stat_triple(involution(PI1)), StatTriple(2, 2, 3)),
    "skips m=2": (lambda: skips(TWO_COLUMN_PATH),
                  Refused(UnsupportedM, "skips is defined for m = 3, not m = 2")),
    "classify m=2": (lambda: classify_nondinv_cell(TWO_COLUMN_PATH, Cell(1, 4)),
                     Refused(UnsupportedM, "cell classification needs m = 3, not m = 2")),
    "mark_from_path m=2": (lambda: mark_from_path(TWO_COLUMN_PATH),
                           Refused(UnsupportedM, "rank words are defined for m = 3, not m = 2")),

    # rank words
    "rank (1,3)": (lambda: rank(1, 3, 5), 1),
    "rank (2,5)": (lambda: rank(2, 5, 5), 2),
    "rank (1,5)": (lambda: rank(1, 5, 5), 7),
    "rank (1,1)": (lambda: rank(1, 1, 5), -5),
    "rank column 4": (lambda: rank(4, 1, 5), Refused(ValueError, "column must be 1..3, got 4")),
    "rank row 6": (lambda: rank(1, 6, 5), Refused(ValueError, "row must be 1..5, got 6")),
    "rank row 0": (lambda: rank(1, 0, 5), Refused(ValueError, "row must be 1..5, got 0")),
    "entries n=5": (lambda: lattice_rank_word(5).entries, unboxed((1, 1), (2, 2), (4, 1), (7, 1))),
    "entries n=8": (lambda: lattice_rank_word(8).entries,
                    unboxed((1, 1), (2, 2), (4, 1), (5, 2), (7, 1), (10, 1), (13, 1))),
    "entries n=4": (lambda: lattice_rank_word(4).entries, unboxed((1, 2), (2, 1), (5, 1))),
    "entries n=1": (lambda: lattice_rank_word(1).entries, ()),
    "MarkedRankWord foreign rank": (lambda: MarkedRankWord(8, {3}),
                                    Refused(ValueError, "not ranks of the 8-row lattice: [3]")),
    "count_skips PI1": (lambda: count_skips(mark_from_path(PI1)), 2),  # runs {4} and {7}
    "count_skips PI2": (lambda: count_skips(mark_from_path(PI2)), 1),  # run {7, 10}
    "count_skips n=8": (lambda: count_skips(lattice_rank_word(8)), 0),
    "boxed_counts PI1": (lambda: boxed_counts(mark_from_path(PI1)), (2, 2)),
    "boxed_counts PI2": (lambda: boxed_counts(mark_from_path(PI2)), (1, 1)),
    "boxed_counts n=7": (lambda: boxed_counts(lattice_rank_word(7)), (0, 0)),
    "is_valid_triple (3,2,2)": (lambda: is_valid_triple(3, 2, 2), True),
    "is_valid_triple s > a": (lambda: is_valid_triple(1, 2, 3), False),
    "is_valid_triple n=9": (lambda: is_valid_triple(2, 2, 4), False),
    "is_valid_triple a < 0": (lambda: is_valid_triple(-1, 0, 0), False),
    "is_valid_triple (0,0,0)": (lambda: is_valid_triple(0, 0, 0), True),
    "omega (3,2,2)": (lambda: omega(3, 2, 2), MarkedRankWord(8, {2, 5, 10, 13})),
    "omega (5,1,1)": (lambda: omega(5, 1, 1), MarkedRankWord(8, {5, 13})),
    "omega (7,0,0)": (lambda: omega(7, 0, 0), MarkedRankWord(8, ())),
    "omega s > a": (lambda: omega(1, 2, 3), no_triple(1, 2, 3)),
    "omega n=9": (lambda: omega(2, 2, 4), no_triple(2, 2, 4)),
    "path_from_word PI1": (lambda: path_from_word(mark_from_path(PI1)), DyckPath(3, 8, (6, 6, 8))),
    "path_from_word n=5": (
        lambda: path_from_word(lattice_rank_word(5)), DyckPath(3, 5, (5, 5, 5))),
    # boxing only the 5 leaves one color-2 box against no color-1 box
    "path_from_word unbalanced": (
        lambda: path_from_word(MarkedRankWord(8, {5})),
        Refused(NotRealizable, "needs at least as many boxed color-1 as color-2 entries (0 < 1)")),
    "path_from_word color 1 not top": (
        lambda: path_from_word(MarkedRankWord(8, {1, 13})),
        Refused(NotRealizable, "boxed color-1 entries are not the largest ones")),
    # rank 1 is the smallest color-2 entry of n = 7
    "path_from_word color 2 not top": (
        lambda: path_from_word(MarkedRankWord(7, {1})),
        Refused(NotRealizable, "boxed color-2 entries are not the largest ones")),
    "render_word n=5": (lambda: render_word(lattice_rank_word(5)), "1_1 2_2 4_1 7_1"),
    "render_word boxed": (lambda: render_word(MarkedRankWord(5, {2, 7})), "1_1 [2_2] 4_1 [7_1]"),
    "render_word PI2": (lambda: render_word(mark_from_path(PI2)),
                        "1_1 2_2 4_1 [5_2] 7_1 10_1 [13_1]"),
    "render_word n=1": (lambda: render_word(lattice_rank_word(1)), ""),

    # polynomials
    "coefficient of a zero term": (lambda: QtPolynomial(ZERO_Q).coefficient(1, 0), 0),
    "coefficient": (lambda: QtPolynomial(ZERO_Q).coefficient(0, 1), 2),
    "terms drop zeros": (lambda: QtPolynomial(ZERO_Q).terms(), [(0, 1, 2)]),
    "negative exponent": (lambda: QtPolynomial({(-1, 0): 1}), Refused(
        ValueError, "exponents must be nonnegative: q^-1 t^0")),
    "negative coefficient": (
        lambda: QtPolynomial({(0, 0): -1}),
        Refused(ValueError, "coefficients must be nonnegative: -1")),
    "evaluate 3q^2t + 1": (lambda: QtPolynomial({(2, 1): 3, (0, 0): 1}).evaluate(2, 5), 61),
    "evaluate at 0": (lambda: QtPolynomial({(2, 1): 3, (0, 0): 1}).evaluate(0, 0), 1),
    "evaluate 0": (lambda: QtPolynomial().evaluate(7, 9), 0),
    "evaluate to the cap": (lambda: QtPolynomial({(1, 0): 1}).evaluate(LIMIT, 1), LIMIT),
    "coefficient over the cap": (
        lambda: QtPolynomial({(0, 0): BIG}),
        Refused(CoefficientOverflow, f"coefficient {BIG} exceeds {LIMIT}")),
    "sum at the cap": (
        lambda: QtPolynomial({(0, 0): LIMIT - 1}) + ONE, QtPolynomial({(0, 0): LIMIT})),
    "sum over the cap": (
        lambda: QtPolynomial({(0, 0): LIMIT}) + ONE,
        Refused(CoefficientOverflow, f"coefficient {BIG} exceeds {LIMIT}")),
    "value over the cap": (
        lambda: QtPolynomial({(64, 0): 1}).evaluate(2, 1),
        Refused(CoefficientOverflow, "value at (2, 1) leaves the 64-bit range")),
    "render 0": (lambda: QtPolynomial().render(), "0"),
    "render 1": (lambda: ONE.render(), "1"),
    "render 2qt^2 + 3": (lambda: QtPolynomial({(1, 2): 2, (0, 0): 3}).render(), "2 q t^2 + 3"),
    "render C_3,4": (lambda: CLASSICAL_C3.render(), "q^3 + q^2 t + q t^2 + t^3 + q t"),
    "render C_3,5": (lambda: catalan3_closed_form(5).render(),
                     "q^4 + q^3 t + q^2 t^2 + q t^3 + t^4 + q^2 t + q t^2"),
    "json_terms C_3,4": (lambda: catalan3_closed_form(4).json_terms(), [
        {"q": 3, "t": 0, "c": 1}, {"q": 2, "t": 1, "c": 1}, {"q": 1, "t": 2, "c": 1},
        {"q": 0, "t": 3, "c": 1}, {"q": 1, "t": 1, "c": 1}]),
    **{f"catalan_bruteforce{mn}": (partial(catalan_bruteforce, *mn), ONE)
       for n in (1, 4, 7) for mn in ((1, n), (n, 1))},
    # one bottom column of 4501 heights, at t heights below the top dinv t
    # and area 4500 - t
    "catalan_bruteforce(2, 9001)": (lambda: catalan_bruteforce(2, 9001),
                                    QtPolynomial({(t, 4500 - t): 1 for t in range(4501)})),
    # the walk is an iterative odometer: 1100 columns need no recursion
    "walk (1100,1)": (lambda: qtpoly._walk(1100, 1), ONE),
    "catalan_bruteforce(3, 4)": (lambda: catalan_bruteforce(3, 4), CLASSICAL_C3),
    "closed form n=4": (lambda: catalan3_closed_form(4), CLASSICAL_C3),
    "closed form n=2": (lambda: catalan3_closed_form(2), QtPolynomial({(1, 0): 1, (0, 1): 1})),
    "closed form n=5": (lambda: catalan3_closed_form(5), QtPolynomial(
        {(4, 0): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1, (0, 4): 1, (2, 1): 1, (1, 2): 1})),
    "qt-symmetric C_3,5": (lambda: is_qt_symmetric(catalan3_closed_form(5)), True),
    "qt-symmetric q^2t": (lambda: is_qt_symmetric(QtPolynomial({(2, 1): 1})), False),
    "qt-symmetric unequal": (lambda: is_qt_symmetric(QtPolynomial({(2, 1): 1, (1, 2): 2})), False),
    "qt-symmetric 3 terms": (
        lambda: is_qt_symmetric(QtPolynomial({(2, 1): 3, (1, 2): 3, (4, 4): 1})), True),
    "qt-symmetric 0": (lambda: is_qt_symmetric(QtPolynomial()), True),

    # verify's bounds
    # each refused bound beside the smallest bound accepted for the other
    "run_all max_n=0": (lambda: verify.run_all(max_n=0, max_mn=2), Refused(
        EmptyBound, "max_n must be at least 1 to select a lattice, got 0")),
    "run_all max_n=-5": (lambda: verify.run_all(max_n=-5, max_mn=-1), Refused(
        EmptyBound, "max_n must be at least 1 to select a lattice, got -5")),
    "run_all max_mn=1": (lambda: verify.run_all(max_n=1, max_mn=1), Refused(
        EmptyBound, "max_mn must be at least 2 to select a lattice, got 1")),
}


def outcome(call):
    """What call returns, or Refused with the type and str of what it raises."""
    try:
        return call()
    except Exception as exc:
        return Refused(type(exc), str(exc))


@pytest.mark.parametrize("name", CALLS)
def test_a_call_gives_its_pinned_answer_or_refusal(name):
    call, want = CALLS[name]
    got = outcome(call)
    assert (type(got), got) == (type(want), want)


def test_a_refused_lattice_is_refused_before_any_height(monkeypatch):
    # the first path and the walk's floors hold m heights, so a check left
    # to them would cost O(m) time and memory before the error
    def no_heights(a, m, n):
        raise AssertionError("computed a height of a refused lattice")

    monkeypatch.setattr(paths, "min_east_height", no_heights)
    for mn, refused in REFUSED_LATTICES.items():
        for name, entry in LATTICE_ENTRIES.items():
            assert outcome(partial(entry, *mn)) == refused, f"{name}{mn}"


def test_every_named_error_has_a_row():
    # a named error that no public call can reach would show here
    named = {value for value in map(vars(errors).get, errors.__all__) if isinstance(value, type)}
    refused = {want.error for _, want in CALLS.values() if isinstance(want, Refused)}
    assert named <= refused


def halfway(n, m=3):
    """The (m,n)-path whose heights lie halfway between each floor and n."""
    return DyckPath(m, n, [(min_east_height(a, m, n) + n) // 2 for a in range(1, m + 1)])


def upper_settings(m, n, low):
    """The settings of columns low..m-1 (0-based) of the (m,n)-paths."""
    ways = {n: 1}  # column m - 1 stands at height n
    for a in range(m - 2, low - 1, -1):
        floor = min_east_height(a + 1, m, n)
        ways = {y: sum(c for top, c in ways.items() if top >= y) for y in range(floor, n + 1)}
    return sum(ways.values())


class Cost(NamedTuple):
    """call(size) builds the call of each size; lines(size, counted) bounds
    the lines it runs, and peak its peak memory in bytes, when given."""

    call: Callable[[object], Callable[[], object]]
    sizes: tuple
    lines: Callable[[object, int], bool] | None = None
    peak: int | None = None


# each n is 2 mod 3, so every halfway path has the same shape; 2003 comes
# before 10^6 + 1 so that an O(n^2) loop, such as dinv by cells, fails
# within seconds
COST_SIZES = (1001, 2003, 10**6 + 1, 10**12 + 1)
COST_COLUMNS = (5, 9, 17, 33)

COSTS = {
    # a three-column path: each call runs the same lines at every n and
    # allocates under 1 KB
    **{f.__name__: Cost(lambda n, f=f: partial(f, halfway(n)), COST_SIZES, peak=1024)
       for f in (area, dinv, skips, stat_triple, mark_from_path, involution)},
    "path_from_word": Cost(lambda n: partial(path_from_word, mark_from_path(halfway(n))),
                           COST_SIZES, peak=1024),
    "omega": Cost(lambda n: partial(omega, *stat_triple(halfway(n))), COST_SIZES, peak=1024),
    "count_paths": Cost(lambda n: partial(count_paths, 3, n), COST_SIZES, peak=1024),
    "DyckPath": Cost(lambda n: partial(DyckPath, 3, n, halfway(n).east_heights),
                     COST_SIZES, peak=1024),
    # how dinv and transpose grow with m: dinv by m * min(m, n) stretch
    # visits, and no list of n; transpose by one tally step per column, its
    # image holding its n heights
    **{f"dinv m={m}": Cost(lambda n, m=m: partial(dinv, halfway(n, m)),
                           (10 * m + 1, 10**6 * m + 1),
                           lambda n, lines, m=m: lines <= 5 * m * m, 1024)
       for m in COST_COLUMNS},
    **{f"transpose m={m}": Cost(lambda n, m=m: partial(transpose, halfway(n, m)),
                                (10 * m + 1, 1000 * m + 1),
                                lambda n, lines, m=m: lines == 9 + 2 * m)
       for m in COST_COLUMNS},
    # the brute-force walk: which count _two_columns picks, and the lines it
    # runs per setting of the columns above the two or one it counts.  (9,10)
    # and (8,23) run 27.7 and 23.3 of 35 and have 11.3 and 58 paths per
    # setting: a Python line per path passes 35 at both
    **{f"walk {mn}": Cost(lambda mn: partial(qtpoly._walk, *mn), (mn,),
                          lambda mn, lines: qtpoly._two_columns(*mn)
                          and lines <= 35 * upper_settings(*mn, 2))
       for mn in ((9, 10), (8, 23))},
    # bottom columns of 4 to 7, 335 to 668, 16 to 46, 11 to 41 and 4,501
    # heights: a Python step per height, even on the short columns of (3,10),
    # would pass 40 m lines; at (4,41), below 12 m, only the rule's bound on m
    # keeps the one-column count
    **{f"walk {mn}": Cost(lambda mn: partial(qtpoly._walk, *mn), (mn,),
                          lambda mn, lines: not qtpoly._two_columns(*mn)
                          and lines <= 40 * mn[0] * upper_settings(*mn, 1))
       for mn in ((3, 10), (3, 1001), (4, 61), (4, 41), (2, 9001))},
    # enumeration's memory: one block of about _HEIGHTS heights, with its
    # tuples and paths, peaked at 0.1-0.8 MB for a first path, where a list
    # sized by n takes gigabytes and a table of thousands of paths hundreds
    # of MB; all 278,256 (7,30)-paths one at a time peaked at 0.1-0.3 MB,
    # where a list of them takes 45 MB (CPython 3.11)
    **{f"first path {mn}": Cost(lambda mn: lambda: next(enumerate_paths(*mn)), (mn,),
                                peak=2_000_000)
       for mn in FIRST_PATH_LATTICES},
    "stream (7,30)": Cost(lambda mn: partial(enumerated, *mn), ((7, 30),), peak=1_000_000),
}


def cost(call):
    """The lines of qtcatalan code call runs, and the peak memory it
    allocates, as tracemalloc counts it.

    It runs call twice, once under each count.  The tracer in place before,
    of a debugger or a coverage tool, is restored after, and so is
    tracemalloc's state.
    """
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def on_call(frame, event, arg):
        in_package = frame.f_globals.get("__name__", "").partition(".")[0] == "qtcatalan"
        return count_lines if in_package else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(before)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    return lines, peak


@pytest.mark.parametrize("name", COSTS)
def test_a_call_costs_the_same_lines_at_every_size_within_its_bounds(name):
    row = COSTS[name]
    lines = []
    for size in row.sizes:
        counted, peak = cost(row.call(size))
        lines.append(counted)
        # each size is checked before the next, larger one, so an O(n) loop
        # fails here and never runs at 10^12; so does an O(n) copy made in C,
        # which runs no line of Python but allocates
        assert lines == lines[:1] * len(lines), f"lines at sizes {row.sizes}"
        assert row.lines is None or row.lines(size, counted), f"{counted} lines at {size}"
        assert row.peak is None or peak < row.peak, f"peak {peak} B at {size}"


# each function that takes integer cells, ranks, sides, heights, row counts,
# statistics, exponents, coefficients, evaluation points or bounds, with
# arguments it accepts; the four that take a cell are given the cell (1, 8)
# above PI1
INTEGER_CALLS = [
    ("rank", rank, (1, 2, 5)),
    ("min_east_height", min_east_height, (1, 3, 4)),
    *((f.__name__, lambda *x, f=f: f(PI1, x), (1, 8))
      for f in (arm, leg, contributes_to_dinv, classify_nondinv_cell)),
    ("DyckPath", lambda m, n: DyckPath(m, n, (2, 4, 4)), (3, 4)),
    ("DyckPath heights", lambda *heights: DyckPath(3, 4, heights), (2, 4, 4)),
    ("count_paths", count_paths, (3, 4)),
    ("enumerate_paths", lambda m, n: list(enumerate_paths(m, n)), (3, 4)),
    ("catalan_bruteforce", catalan_bruteforce, (3, 4)),
    ("lattice_rank_word", lattice_rank_word, (4,)),
    ("MarkedRankWord", lambda n, r: MarkedRankWord(n, {r}), (8, 5)),
    ("is_valid_triple", is_valid_triple, (3, 2, 2)),
    ("catalan3_closed_form", catalan3_closed_form, (4,)),
    ("omega", omega, (1, 0, 2)),
    ("QtPolynomial", lambda dq, dt, c: QtPolynomial({(dq, dt): c}), (1, 0, 2)),
    ("evaluate", catalan3_closed_form(4).evaluate, (2, 3)),
    ("coefficient", catalan3_closed_form(4).coefficient, (1, 1)),
    # a float bound would reach the checks and fail them as raised TypeErrors
    ("run_all", verify.run_all, (5, 6)),
]


def with_each_float(name, call, args):
    """call with args once for each integer of args, that one as a float."""
    for i in range(len(args)):
        floated = (*args[:i], float(args[i]), *args[i + 1:])
        yield pytest.param(call, floated, id=f"{name} {floated}")


@pytest.mark.parametrize("call, args", [
    case for name, call, args in INTEGER_CALLS
    for case in with_each_float(name, call, args)
])
def test_cell_and_rank_arguments_must_be_integers(call, args):
    # a float passes every range check, so only index can refuse it
    with pytest.raises(TypeError):
        call(*args)


class Integer:
    """An integer that is not an int: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class Int(int):
    """An int subclass, which index turns into a plain int."""


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=name) for name, call, args in INTEGER_CALLS
])
def test_cell_and_rank_arguments_take_any_integer_type(call, args):
    # as DyckPath heights do; an Integer can be neither compared nor
    # multiplied, so the result shows that index read every argument
    expected = call(*args)
    got = call(*map(Integer, args))
    assert (got, type(got)) == (expected, type(expected))


def test_heights_of_any_integer_type_are_stored_as_ints():
    # the path keeps the ints index gave, not the objects it was given
    plain = DyckPath(3, 4, (2, 4, 4))
    p = DyckPath(3, 4, (Integer(2), 4, Integer(4)))
    assert p == plain and hash(p) == hash(plain)
    assert area(p) == area(plain) and render_path(p) == render_path(plain) == "NNENNEE"
    # so do its sides, and a word its n, when given an int subclass
    sub = DyckPath(Int(3), Int(4), (Int(2), 4, 4))
    assert [type(v) for v in (sub.m, sub.n, *sub.east_heights)] == [int] * 5
    for word in (MarkedRankWord(Int(4), {Int(5)}), lattice_rank_word(Int(4))):
        assert type(word.n) is int and {type(r) for r in word.boxed} <= {int}
