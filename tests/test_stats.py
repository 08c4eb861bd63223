from math import gcd

from hypothesis import example, given, strategies as st

from qtcatalan import (
    CellClass,
    area,
    classify_nondinv_cell,
    contributes_to_dinv,
    dinv,
    enumerate_paths,
    make_path,
    min_east_height,
    shape_cells,
    skips,
)
from qtcatalan.stats import _dinv_legs

import oracles


def test_area_maximum_is_half_the_lattice():
    for m, n in [(3, 5), (4, 7), (5, 3)]:
        top = make_path(m, n, [n] * m)
        assert area(top) == (m - 1) * (n - 1) // 2
        assert all(area(p) <= area(top) for p in enumerate_paths(m, n))


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
    assert dinv(p) == sum(oracles.dinv_cells_by_column(p))


def test_classification_is_exclusive_and_counts_skips():
    for n in range(1, 13):
        if n % 3 == 0:
            continue
        for p in enumerate_paths(3, n):
            fenced = 0
            for x in shape_cells(p):
                label = classify_nondinv_cell(p, x)
                assert contributes_to_dinv(p, x) == (label is CellClass.CONTRIBUTES)
                # every cell of the second column contributes
                assert x.column != 2 or label is CellClass.CONTRIBUTES
                fenced += label is not CellClass.CONTRIBUTES
            assert fenced == skips(p)
