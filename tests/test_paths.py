import random
import tracemalloc
from math import comb

import pytest

from qtcatalan import (
    COEFFICIENT_LIMIT,
    Cell,
    CoefficientOverflow,
    arm,
    cells_above,
    count_paths,
    enumerate_paths,
    leg,
    make_path,
    render_path,
    shape_cells,
    transpose,
)
from qtcatalan import paths as paths_module

import oracles


def test_enumeration_agrees_with_stepword_filter_oracle():
    for m, n in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 2), (3, 7)]:
        expected = sorted(oracles.paths_by_filter(m, n))
        got = sorted(render_path(p) for p in enumerate_paths(m, n))
        assert got == expected


def test_enumeration_is_lexicographic_in_heights():
    heights = [p.east_heights for p in enumerate_paths(3, 5)]
    assert heights == sorted(heights)
    assert heights[0] == (2, 4, 5)


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


def test_enumeration_yields_the_odometer_heights_in_order():
    # (6,23) has more paths than one block takes, (7,30) runs the prefix
    # odometer over several columns, and on the wide (1099,2) and (2001,2)
    # a block holds a few paths and the table a few suffixes
    lattices = [*oracles.coprime_pairs(22), (1100, 1), (1, 50), (2, 1001), (6, 23), (7, 30),
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
    for m, n in oracles.coprime_pairs(22):
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


def test_cells_above_weakly_decreasing_everywhere():
    for p in enumerate_paths(4, 7):
        counts = cells_above(p)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert sum(counts) == len(shape_cells(p))


def test_arm_and_leg_count_the_cells_east_and_south():
    for m, n in oracles.coprime_pairs(12):
        for p in enumerate_paths(m, n):
            cells = set(shape_cells(p))
            for x in cells:
                assert type(x) is Cell and x == (x.column, x.row)
                east = sum(1 for c, r in cells if r == x.row and c > x.column)
                south = sum(1 for c, r in cells if c == x.column and r < x.row)
                assert (arm(p, x), leg(p, x)) == (east, south)


def test_transpose_matches_the_word_route_on_every_small_path():
    for m, n in oracles.coprime_pairs(16):
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
    for m, n in oracles.coprime_pairs(14):
        for p in enumerate_paths(m, n):
            for q in (p, transpose(p)):
                checked = make_path(q.m, q.n, q.east_heights)
                assert q == checked and hash(q) == hash(checked)
