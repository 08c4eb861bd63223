from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from qtcatalan import (
    Cell,
    CellClass,
    StatTriple,
    UnsupportedM,
    area,
    classify_nondinv_cell,
    contributes_to_dinv,
    dinv,
    enumerate_paths,
    make_path,
    min_east_height,
    shape_cells,
    skips,
    stat_triple,
    transpose,
)
from qtcatalan.stats import _dinv_legs

import oracles

PI1 = make_path(3, 8, [6, 6, 8])
PI2 = make_path(3, 8, [7, 7, 8])


def test_area_of_worked_examples():
    assert area(PI1) == 3
    assert area(PI2) == 5


def test_area_of_single_column_paths_is_zero():
    for n in (1, 2, 5, 9):
        assert area(make_path(1, n, [n])) == 0


def test_area_maximum_is_half_the_lattice():
    for m, n in [(3, 5), (4, 7), (5, 3)]:
        top = make_path(m, n, [n] * m)
        assert area(top) == (m - 1) * (n - 1) // 2
        assert all(area(p) <= area(top) for p in enumerate_paths(m, n))


def test_area_matches_cell_oracle():
    # area is a sum of heights minus a constant of the lattice: check the
    # constant on every lattice with m + n <= 16, both orientations, and on
    # the edge lattices m = 1 and n = 1
    lattices = [
        (m, t - m) for t in range(2, 17) for m in range(1, t) if gcd(m, t - m) == 1
    ]
    for m, n in lattices + [(1100, 1), (1, 1100)]:
        for p in enumerate_paths(m, n):
            assert area(p) == oracles.area_by_cells(m, n, p.east_heights), p


def test_dinv_of_worked_examples():
    assert dinv(PI1) == 2
    assert dinv(PI2) == 1


def test_cell_with_zero_arm_and_leg_always_contributes():
    p = make_path(3, 4, [3, 4, 4])  # single cell above, arm 0 leg 0
    assert contributes_to_dinv(p, Cell(1, 4))


def test_dinv_matches_fraction_oracle():
    pairs = [(m, n) for m in range(1, 15) for n in range(1, 16 - m) if gcd(m, n) == 1]
    for m, n in pairs:
        for p in enumerate_paths(m, n):
            assert dinv(p) == oracles.dinv_by_cells(m, n, p.east_heights)


def test_dinv_reads_each_lattice_its_own_leg_table_from_a_warm_cache():
    # lattices interleaved in one process, each orientation of a pair, and
    # the first lattice again once its table is cached
    _dinv_legs.cache_clear()
    for m, n in [(7, 12), (12, 7), (3, 31), (31, 3), (7, 12)]:
        for p in enumerate_paths(m, n):
            assert dinv(p) == oracles.dinv_by_cells(m, n, p.east_heights), p
    assert _dinv_legs.cache_info().hits > 0


def test_the_leg_table_is_an_immutable_tuple_in_a_bounded_cache():
    assert isinstance(_dinv_legs(7, 12), tuple)
    assert _dinv_legs.cache_info().maxsize is not None


def test_the_sweep_map_carries_dinv_to_area():
    # a third route to dinv, sharing nothing with the arm/leg intervals:
    # the sweep map permutes each lattice, and its image's area, counted
    # cell by cell, is the path's dinv
    for total in range(2, 19):
        for m in range(1, total):
            n = total - m
            if gcd(m, n) != 1:
                continue
            lattice = list(enumerate_paths(m, n))
            images = [oracles.sweep(p) for p in lattice]
            assert {q.east_heights for q in images} == {p.east_heights for p in lattice}
            for p, q in zip(lattice, images):
                assert oracles.area_by_cells(m, n, q.east_heights) == dinv(p), p


def lifted_path(m, n, raw):
    """The path whose heights are the sorted raw heights lifted to the diagonal."""
    return make_path(
        m, n, [max(y, min_east_height(a, m, n)) for a, y in enumerate(sorted(raw), 1)]
    )


@st.composite
def dyck_paths(draw):
    """A path on up to 40 columns and 80 rows."""
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.sampled_from([n for n in range(1, 81) if gcd(m, n) == 1]))
    return lifted_path(m, n, draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))


@given(dyck_paths())
@example(make_path(1, 1, [1]))
@example(make_path(1, 80, [80]))
@example(make_path(40, 1, [1] * 40))
@example(lifted_path(39, 80, [0] * 39))  # the lowest path, most cells
@example(lifted_path(40, 79, [0] * 40))
@example(lifted_path(40, 3, [0] * 40))  # long runs of equal heights: few rises
@example(lifted_path(39, 4, [2] * 39))
@example(make_path(40, 79, [79] * 40))  # the highest path: no rise at all
def test_dinv_counts_the_contributing_cells(p):
    assert dinv(p) == sum(contributes_to_dinv(p, x) for x in shape_cells(p))


def test_dinv_counts_the_contributing_cells_at_thirty_thousand_rows():
    for heights in [(10001, 20001, 30001), (12345, 29000, 30001)]:
        p = make_path(3, 30001, heights)
        assert dinv(p) == sum(contributes_to_dinv(p, x) for x in shape_cells(p))


def test_skips_of_worked_examples():
    assert skips(PI1) == 2
    assert skips(PI2) == 1
    assert skips(make_path(3, 8, [8, 8, 8])) == 0


def test_skips_needs_three_columns():
    with pytest.raises(UnsupportedM):
        skips(make_path(2, 5, [3, 5]))


def test_stat_triples_of_worked_examples():
    assert stat_triple(PI1) == StatTriple(3, 2, 2)
    assert stat_triple(PI2) == StatTriple(5, 1, 1)


def test_stat_triple_of_the_empty_shape_path():
    for n in (4, 7, 10):
        assert stat_triple(make_path(3, n, [n, n, n])) == StatTriple(n - 1, 0, 0)


def test_transpose_preserves_area_and_dinv():
    # verify's transpose-involution covers m + n <= 16; these lie beyond it
    for m, n in [(3, 14), (3, 16)]:
        for p in enumerate_paths(m, n):
            q = transpose(p)
            assert area(q) == area(p)
            assert dinv(q) == dinv(p)


def test_second_column_cells_contribute():
    for p in enumerate_paths(3, 8):
        for x in shape_cells(p):
            if x.column == 2:
                assert classify_nondinv_cell(p, x) is CellClass.CONTRIBUTES


def test_classification_of_a_short_leg_cell():
    # (1,8) above PI2 has arm 1 and leg 0 < 8/3 - 1
    assert classify_nondinv_cell(PI2, Cell(1, 8)) is CellClass.ARM1_SHORT_LEG


def test_classification_of_a_long_leg_cell():
    # heights (3,8,8): cell (1,8) has arm 0 and leg 4 > 8/3
    p = make_path(3, 8, [3, 8, 8])
    assert classify_nondinv_cell(p, Cell(1, 8)) is CellClass.ARM0_LONG_LEG


def test_classification_is_exclusive_and_counts_skips():
    for n in range(1, 13):
        if n % 3 == 0:
            continue
        for p in enumerate_paths(3, n):
            fenced = 0
            for x in shape_cells(p):
                label = classify_nondinv_cell(p, x)
                assert contributes_to_dinv(p, x) == (label is CellClass.CONTRIBUTES)
                fenced += label is not CellClass.CONTRIBUTES
            assert fenced == skips(p)


def test_classification_needs_three_columns():
    with pytest.raises(UnsupportedM):
        classify_nondinv_cell(make_path(2, 5, [3, 5]), Cell(1, 4))
