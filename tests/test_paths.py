from math import comb

import pytest

from qtcatalan import (
    COEFFICIENT_LIMIT,
    CoefficientOverflow,
    cells_above,
    enumerate_paths,
    shape_cells,
)
from qtcatalan import paths as paths_module

import oracles


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


@pytest.mark.parametrize("heights", [1, 8, 30, 100])
def test_enumeration_is_the_odometer_with_small_blocks(monkeypatch, heights):
    # with blocks this small the table is cut after a column or two (with 1
    # and 8 it hardly grows), so the prefix odometer runs and a block is
    # flushed after a few paths on most lattices
    monkeypatch.setattr(paths_module, "_HEIGHTS", heights)
    for m, n in oracles.coprime_pairs(22):
        got = [(p.m, p.n, p.east_heights) for p in enumerate_paths(m, n)]
        assert got == [(m, n, h) for h in oracles.heights_by_odometer(m, n)]


def test_cells_above_weakly_decreasing_everywhere():
    for p in enumerate_paths(4, 7):
        counts = cells_above(p)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert sum(counts) == len(shape_cells(p))
