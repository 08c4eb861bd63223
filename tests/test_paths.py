import random
import tracemalloc
from math import comb, gcd

import pytest

from qtcatalan import (
    COEFFICIENT_LIMIT,
    BadCharacter,
    BelowDiagonal,
    Cell,
    CellNotAboveThePath,
    CoefficientOverflow,
    DyckPath,
    MarkedRankWord,
    NotCoprime,
    NotMonotone,
    QtPolynomial,
    area,
    arm,
    catalan3_closed_form,
    catalan_bruteforce,
    cells_above,
    classify_nondinv_cell,
    contributes_to_dinv,
    count_paths,
    enumerate_paths,
    lattice_rank_word,
    leg,
    make_path,
    min_east_height,
    omega,
    parse_path,
    rank,
    render_path,
    shape_cells,
    transpose,
)
from qtcatalan import paths as paths_module

import oracles

PI1 = make_path(3, 8, [6, 6, 8])
PI2 = make_path(3, 8, [7, 7, 8])


def test_make_path_accepts_the_unique_1_4_path():
    p = make_path(1, 4, [4])
    assert (p.m, p.n, p.east_heights) == (1, 4, (4,))


def test_make_path_accepts_boundary_heights():
    # ceil(5/3) = 2 and ceil(10/3) = 4 are exactly the floors
    p = make_path(3, 5, [2, 4, 5])
    assert p.east_heights == (2, 4, 5)


def test_make_path_rejects_below_diagonal():
    with pytest.raises(BelowDiagonal):
        make_path(3, 5, [1, 4, 5])


def test_make_path_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        make_path(3, 6, [2, 4, 6])


def test_make_path_rejects_decreasing_or_overflowing_heights():
    with pytest.raises(NotMonotone):
        make_path(3, 5, [4, 3, 5])
    with pytest.raises(NotMonotone):
        make_path(3, 5, [2, 4, 6])
    with pytest.raises(NotMonotone):
        make_path(3, 5, [-1, 4, 5])


def test_the_first_bad_column_names_the_error():
    # column 1 dips below the diagonal before column 2 breaks monotonicity
    floor = r"^east step 1 at height 1 dips below the diagonal \(needs >= 2\)$"
    with pytest.raises(BelowDiagonal, match=floor):
        make_path(3, 5, [1, 0, 5])
    with pytest.raises(NotMonotone):
        make_path(3, 5, [2, 1, 5])


def test_heights_must_be_integers():
    # a float height passed every comparison: area, skips and the
    # involution then computed with it, and render_path failed
    for heights in [(2.5, 3, 4), (2, 3.0, 4), (2, 3, 4.0)]:
        with pytest.raises(TypeError):
            DyckPath(3, 4, heights)


# each function that takes integer cells, ranks, sides, row counts,
# statistics, exponents or evaluation points, with arguments it accepts;
# the four that take a cell are given the cell (1, 8) above PI1
INTEGER_CALLS = [
    ("rank", rank, (1, 2, 5)),
    ("min_east_height", min_east_height, (1, 3, 4)),
    *((f.__name__, lambda *x, f=f: f(PI1, x), (1, 8))
      for f in (arm, leg, contributes_to_dinv, classify_nondinv_cell)),
    ("DyckPath", lambda m, n: DyckPath(m, n, (2, 4, 4)), (3, 4)),
    ("count_paths", count_paths, (3, 4)),
    ("enumerate_paths", lambda m, n: list(enumerate_paths(m, n)), (3, 4)),
    ("catalan_bruteforce", catalan_bruteforce, (3, 4)),
    ("lattice_rank_word", lattice_rank_word, (4,)),
    ("catalan3_closed_form", catalan3_closed_form, (4,)),
    ("omega", omega, (1, 0, 2)),
    ("evaluate", catalan3_closed_form(4).evaluate, (2, 3)),
    ("coefficient", catalan3_closed_form(4).coefficient, (1, 1)),
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


@pytest.mark.parametrize("m", [0, -2])
def test_min_east_height_needs_a_positive_m(m):
    with pytest.raises(ValueError, match=f"^m must be positive, got {m}$"):
        min_east_height(1, m, 5)


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


def test_make_path_rejects_wrong_height_count():
    with pytest.raises(ValueError):
        make_path(3, 5, [2, 4])


def test_make_path_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        make_path(0, 5, [])


def test_parse_simple_words():
    assert parse_path("NNNNE") == make_path(1, 4, [4])
    assert parse_path("NNENNEE") == make_path(3, 4, [2, 4, 4])


def test_parse_rejects_bad_characters():
    with pytest.raises(BadCharacter):
        parse_path("NEX")


def test_parse_rejects_invalid_paths():
    with pytest.raises(BelowDiagonal):
        parse_path("NENNENN")  # ends with north steps, so y_m < n
    with pytest.raises(NotCoprime):
        parse_path("NNEE" * 2)


@pytest.mark.parametrize("m,n,count", [(3, 5, 7), (3, 4, 5), (1, 9, 1), (2, 3, 2)])
def test_enumeration_counts(m, n, count):
    assert sum(1 for _ in enumerate_paths(m, n)) == count
    assert count_paths(m, n) == count


def test_enumeration_agrees_with_stepword_filter_oracle():
    for m, n in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 2), (3, 7)]:
        expected = sorted(oracles.paths_by_filter(m, n))
        got = sorted(render_path(p) for p in enumerate_paths(m, n))
        assert got == expected


def test_enumeration_is_lexicographic_in_heights():
    heights = [p.east_heights for p in enumerate_paths(3, 5)]
    assert heights == sorted(heights)
    assert heights[0] == (2, 4, 5)


def test_enumeration_rejects_non_coprime():
    with pytest.raises(NotCoprime, match=r"^gcd\(3, 6\) != 1$"):
        list(enumerate_paths(3, 6))
    for m, n in ((0, 5), (5, 0), (-3, 4)):
        with pytest.raises(ValueError, match="^m and n must be positive$"):
            list(enumerate_paths(m, n))


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (2, -1), (-1, 2), (3, 6)])
def test_count_paths_rejects_a_lattice_as_enumeration_does(m, n):
    with pytest.raises(ValueError) as enumerated:
        next(enumerate_paths(m, n))
    with pytest.raises(ValueError) as counted:
        count_paths(m, n)
    assert type(counted.value) is type(enumerated.value)
    assert str(counted.value) == str(enumerated.value)


def test_the_bounded_count_refuses_a_lattice_of_more_than_the_cap_paths():
    # Catalan(35) = count_paths(35, 36) is below the cap and Catalan(36) above
    # it; a longer other side only adds paths
    catalan35 = comb(70, 35) // 36
    assert catalan35 < COEFFICIENT_LIMIT < comb(72, 36) // 37
    assert paths_module._bounded_count(35, 36) == catalan35
    assert paths_module._bounded_count(35, 37) == comb(72, 35) // 72 < COEFFICIENT_LIMIT
    assert paths_module._bounded_count(1, COEFFICIENT_LIMIT) == 1
    for m, n in ((36, 37), (37, 36), (35, 38), (40, 41), (3037000499, 3037000498)):
        with pytest.raises(CoefficientOverflow, match=rf"^the \({m},{n}\)-lattice has more"):
            paths_module._bounded_count(m, n)
    # the lattice checks come first
    for m, n in ((36, 38), (0, 41), (COEFFICIENT_LIMIT + 1, 40)):
        with pytest.raises((ValueError, OverflowError)) as counted:
            paths_module._bounded_count(m, n)
        with pytest.raises((ValueError, OverflowError)) as checked:
            paths_module._check_lattice(m, n)
        assert (type(counted.value), str(counted.value)) == (
            type(checked.value), str(checked.value))


def test_enumeration_rejects_a_lattice_before_computing_any_height(monkeypatch):
    # the first path holds m heights, so a check left to it would cost O(m)
    # time and memory before the error
    def no_heights(a, m, n):
        raise AssertionError("computed a height of a rejected lattice")

    monkeypatch.setattr(paths_module, "min_east_height", no_heights)
    for m, n in ((4, 6), (5, 0), (3, -4)):
        with pytest.raises(ValueError):
            next(enumerate_paths(m, n))


def test_every_lattice_entry_point_refuses_a_side_above_the_cap():
    # a longer side indexes no tuple of heights; at the cap, a lattice with
    # one column or one row has one path, found at once
    big = COEFFICIENT_LIMIT + 1
    for m, n, side in ((big, 1, "m"), (1, big, "n")):
        for entry in (count_paths, catalan_bruteforce):
            with pytest.raises(CoefficientOverflow,
                               match=rf"^{side} must be at most {COEFFICIENT_LIMIT}, got {big}$"):
                entry(m, n)
    message = rf"^n must be at most {COEFFICIENT_LIMIT}, got {big}$"
    with pytest.raises(CoefficientOverflow, match=message):
        next(enumerate_paths(1, big))
    with pytest.raises(CoefficientOverflow, match=message):
        make_path(1, big, [big])
    assert count_paths(1, COEFFICIENT_LIMIT) == 1
    assert catalan_bruteforce(COEFFICIENT_LIMIT, 1) == QtPolynomial({(0, 0): 1})
    assert next(enumerate_paths(1, COEFFICIENT_LIMIT)).east_heights == (COEFFICIENT_LIMIT,)


def test_enumeration_yields_the_odometer_heights_in_order():
    # (6,23) has more paths than one block takes, (7,30) runs the prefix
    # odometer over several columns, and on the wide (1099,2) and (2001,2)
    # a block holds a few paths and the table a few suffixes
    lattices = [*_coprime_pairs(22), (1100, 1), (1, 50), (2, 1001), (6, 23), (7, 30),
                (1099, 2), (2001, 2)]
    for m, n in lattices:
        got = [p.east_heights for p in enumerate_paths(m, n)]
        assert got == list(oracles.heights_by_odometer(m, n)), (m, n)


@pytest.mark.parametrize("heights", [1, 8, 30, 100])
def test_enumeration_is_the_odometer_with_small_blocks(monkeypatch, heights):
    # with blocks this small the table is cut after a column or two (with 1
    # and 8 it hardly grows), so the prefix odometer runs and a block is
    # flushed after a few paths on most lattices
    monkeypatch.setattr(paths_module, "_HEIGHTS", heights)
    for m, n in _coprime_pairs(22):
        got = [(p.m, p.n, p.east_heights) for p in enumerate_paths(m, n)]
        assert got == [(m, n, h) for h in oracles.heights_by_odometer(m, n)]


@pytest.mark.parametrize(
    "m, n", [(2, 10**9 + 1), (3, 3 * 10**8 + 1), (1099, 2), (10001, 2), (10001, 10000)]
)
def test_the_first_path_of_a_tall_or_wide_lattice_takes_one_block_of_memory(m, n):
    # a list or index sized by n would take gigabytes, and a table or block
    # of thousands of paths of m heights hundreds of MB; one block of about
    # _HEIGHTS heights, with its tuples and paths, peaked at 0.1-0.8 MB
    tracemalloc.start()
    try:
        p = next(enumerate_paths(m, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.east_heights == tuple(-(-a * n // m) for a in range(1, m + 1))
    assert peak < 2_000_000


def test_streaming_a_lattice_keeps_memory_bounded():
    # all 278,256 (7,30)-paths, one at a time, peaked at 0.1-0.3 MB on
    # CPython 3.11; the bound leaves headroom, and a list of the paths takes 45 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_paths(7, 30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_paths(7, 30)
    assert peak < 1_000_000


def test_cells_above_counts():
    assert cells_above(make_path(3, 5, [5, 5, 5])) == (0, 0, 0)
    assert cells_above(PI1) == (2, 2, 0)
    assert cells_above(PI2) == (1, 1, 0)


def test_cells_above_weakly_decreasing_everywhere():
    for p in enumerate_paths(4, 7):
        counts = cells_above(p)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert sum(counts) == len(shape_cells(p))


def test_arm_and_leg_on_worked_example():
    # cells above PI1: (1,7), (1,8), (2,7), (2,8)
    assert shape_cells(PI1) == (Cell(1, 7), Cell(1, 8), Cell(2, 7), Cell(2, 8))
    assert arm(PI1, Cell(1, 8)) == 1
    assert leg(PI1, Cell(1, 8)) == 1
    assert arm(PI1, Cell(1, 7)) == 1
    assert leg(PI1, Cell(1, 7)) == 0


def test_arm_and_leg_of_single_cell_shape():
    p = make_path(3, 4, [3, 4, 4])
    assert shape_cells(p) == (Cell(1, 4),)
    assert arm(p, Cell(1, 4)) == 0
    assert leg(p, Cell(1, 4)) == 0


def test_arm_and_leg_count_the_cells_east_and_south():
    for total in range(2, 13):
        for m in range(1, total):
            if gcd(m, total - m) != 1:
                continue
            for p in enumerate_paths(m, total - m):
                cells = set(shape_cells(p))
                for x in cells:
                    assert type(x) is Cell and x == (x.column, x.row)
                    east = sum(1 for c, r in cells if r == x.row and c > x.column)
                    south = sum(1 for c, r in cells if c == x.column and r < x.row)
                    assert (arm(p, x), leg(p, x)) == (east, south)


def test_arm_rejects_cells_not_above_the_path():
    with pytest.raises(CellNotAboveThePath):
        arm(PI1, Cell(1, 3))
    with pytest.raises(CellNotAboveThePath):
        leg(PI1, Cell(4, 8))


def test_transpose_of_single_column_path():
    assert transpose(make_path(1, 4, [4])) == make_path(4, 1, [1, 1, 1, 1])


def _coprime_pairs(max_total):
    for total in range(2, max_total + 1):
        for m in range(1, total):
            if gcd(m, total - m) == 1:
                yield m, total - m


def test_transpose_matches_the_word_route_on_every_small_path():
    for m, n in _coprime_pairs(16):
        for p in enumerate_paths(m, n):
            assert transpose(p) == oracles.transpose_by_word(p)


def test_transpose_matches_the_word_route_on_the_edge_lattices():
    for n in range(1, 41):
        for m_n in ((1, n), (n, 1)):
            (p,) = enumerate_paths(*m_n)
            assert transpose(p) == oracles.transpose_by_word(p)


def test_transpose_matches_the_word_route_on_a_long_path():
    rng = random.Random(12)
    n = 30001
    y1 = rng.randint(-(-n // 3), n)
    y2 = rng.randint(max(y1, -(-2 * n // 3)), n)
    p = make_path(3, n, [y1, y2, n])
    wide = oracles.transpose_by_word(p)
    assert transpose(p) == wide
    # and its image, a (30001,3)-path: the loop takes one step per column
    assert transpose(wide) == oracles.transpose_by_word(wide) == p


def test_unchecked_paths_are_genuine_paths():
    # enumerate_paths and transpose skip validation; each path they build
    # must equal, and hash like, the validated one
    for m, n in _coprime_pairs(14):
        for p in enumerate_paths(m, n):
            for q in (p, transpose(p)):
                checked = make_path(q.m, q.n, q.east_heights)
                assert q == checked and hash(q) == hash(checked)
