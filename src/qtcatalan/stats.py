"""The area, dinv, and skips statistics on Dyck paths.

area counts the full cells between the path and the diagonal.  dinv
counts the cells x above the path whose arm/leg ratios straddle m/n:

    arm(x) / (leg(x) + 1)  <  m/n  <  (arm(x) + 1) / leg(x)

where the right-hand ratio reads as +infinity when leg(x) = 0.  All
comparisons are integer cross-multiplications; no floats anywhere.

contributes_to_dinv applies that inequality to one cell; it is the
definition.  dinv itself visits no cell.  In column a the rows between
the later east heights y_{a+k} and y_{a+k+1} form a stretch of constant
arm k, and for a fixed arm k the inequality solves to the leg interval

    k*n // m  <=  leg  <=  (n*(k+1) - 1) // m,

so dinv is a double sum, over the columns a and the arms k, of the
overlap of stretch k of column a with its interval.  The intervals
depend on the lattice alone, not on the path: _dinv_legs builds their
table once per (m, n) and keeps it for the most recent lattices.  A
stretch is empty unless column r = a + k rises (y_r < y_{r+1}), and a
path has at most min(m - 1, n) rises, so the sum has O(m*min(m, n))
terms, whatever n is.  dinv sums it rise by rise, over the columns
a <= r of each rise r; _column_dinv sums it column by column, one
column's term at a time, for qtpoly._walk (the brute force), which sets
the heights from the last column down.

skips applies to three-column paths only: it is the number of maximal
unboxed runs fenced by boxed entries in the marked rank word
(rankwords.count_skips, the definition), read in O(1) from the word's
counts (n - y1, n - y2).  For a (3,n)-path the three statistics always
sum to n - 1, the length of the rank word, because each above-path
cell failing the straddle inequality pairs off with exactly one skip.
"""

from __future__ import annotations

__all__ = [
    "CellClass", "StatTriple", "area", "classify_nondinv_cell", "contributes_to_dinv",
    "dinv", "skips", "stat_triple",
]

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import UnsupportedM
from .paths import DyckPath, _arm, _as_shape_cell, _leg, arm, leg
from .rankwords import _skips


class StatTriple(NamedTuple):
    area: int
    skips: int
    dinv: int


def area(p: DyckPath) -> int:
    """Full cells between the path and the diagonal.

    That is the sum over columns of y_a - ceil(a*n/m), and for coprime
    (m, n) the ceilings sum to (m - 1)(n + 1)/2 + n, a whole number.
    """
    m, n = p.m, p.n
    return sum(p.east_heights) - (m - 1) * (n + 1) // 2 - n


def _straddles(ar: int, lg: int, m: int, n: int) -> bool:
    """arm/(leg+1) < m/n < (arm+1)/leg, cross-multiplied.

    At leg 0 the right side reads 0 < n*(arm+1), which always holds, so
    the +infinity convention needs no case of its own.
    """
    return ar * n < m * (lg + 1) and lg * m < n * (ar + 1)


def contributes_to_dinv(p: DyckPath, x) -> bool:
    """Exact straddle test for one cell above the path."""
    return _straddles(arm(p, x), leg(p, x), p.m, p.n)


@lru_cache(maxsize=256)
def _dinv_legs(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Straddling legs at each arm k < m - 1, as the half-open range [low, high).

    Built once per (m, n), and kept for the most recent lattices.
    """
    return tuple((k * n // m, (n * (k + 1) - 1) // m + 1) for k in range(m - 1))


def _column_dinv(heights, a: int, legs: tuple[tuple[int, int], ...], nxt) -> int:
    """dinv cells of column a (0-based), the walk's kernel; reads only
    heights[a:] and nxt[a:].

    nxt[r] is the first rise at or after column r (heights[r] <
    heights[r + 1]), or m - 1 if there is none.

    In column a the rows y_a < row <= y_{a+1} have arm 0, the rows
    y_{a+1} < row <= y_{a+2} arm 1, and so on, since y_m = n; a stretch
    with arm k holds the legs y_{a+k} - y_a .. y_{a+k+1} - y_a - 1, and
    exactly those in legs[k] straddle.  Stretch k is empty unless column
    a + k rises, so the sum of the overlaps visits only the rises r =
    nxt[a], nxt[r + 1], ...: at most min(m - 1, n - y_a) of them.
    """
    y = heights[a]
    last = len(heights) - 1
    total = 0
    r = nxt[a]
    while r < last:
        low, high = legs[r - a]
        lo, hi = heights[r] - y, heights[r + 1] - y  # the stretch's legs, half-open
        if lo < low:
            lo = low
        if hi > high:
            hi = high
        if lo < hi:
            total += hi - lo
        r = nxt[r + 1]
    return total


def dinv(p: DyckPath) -> int:
    """Cells above the path satisfying the straddle inequality, O(m*min(m, n)).

    The double sum of the module docstring, rise by rise: for each rise r
    (heights[r] < heights[r + 1]) and each column a <= r, the stretch of
    legs heights[r] - y_a .. heights[r + 1] - y_a - 1 has arm r - a, and
    its overlap with legs[r - a] counts.  The last column, at height n,
    is no rise.
    """
    # a second copy of _column_dinv's double sum: summing _column_dinv over the
    # columns read +13.8% ref_wall_s on verify (BENCH_41.json)
    heights = p.east_heights
    legs = _dinv_legs(p.m, p.n)
    total = 0
    for r in range(p.m - 1):
        y0 = heights[r]
        y1 = heights[r + 1]
        if y0 == y1:
            continue
        for a in range(r + 1):
            y = heights[a]
            low, high = legs[r - a]
            lo, hi = y0 - y, y1 - y  # the stretch's legs, half-open
            if lo < low:
                lo = low
            if hi > high:
                hi = high
            if lo < hi:
                total += hi - lo
    return total


def skips(p: DyckPath) -> int:
    """Fenced unboxed runs (count_skips), O(1) from the word's counts; m = 3."""
    if p.m != 3:
        raise UnsupportedM(f"skips is defined for m = 3, not m = {p.m}")
    return _skips(p.n, p.n - p.east_heights[0], p.n - p.east_heights[1])


def stat_triple(p: DyckPath) -> StatTriple:
    """(area, skips, dinv) of a three-column path; always sums to n - 1."""
    # tuple.__new__ skips the NamedTuple's Python-level __new__; StatTriple(...) read
    # +1.7% ref_wall_s on sweep3 (BENCH_41.json)
    return tuple.__new__(StatTriple, (area(p), skips(p), dinv(p)))


class CellClass(Enum):
    """How a cell above a three-column path relates to dinv."""

    CONTRIBUTES = "contributes"
    ARM1_SHORT_LEG = "arm1-short-leg"  # arm = 1 and leg < n/3 - 1
    ARM0_LONG_LEG = "arm0-long-leg"  # arm = 0 and leg > n/3


# bound once, as _cell_label runs per cell: CellClass.X read +1.7% ref_wall_s on verify
# (BENCH_41.json)
_CONTRIBUTES, _ARM1_SHORT_LEG, _ARM0_LONG_LEG = CellClass


def _cell_label(ar: int, lg: int, n: int) -> CellClass:
    """The one label of a cell with arm ar and leg lg above a (3,n)-path.

    Raises AssertionError unless exactly one label fits.
    """
    short_leg = ar == 1 and 3 * (lg + 1) < n
    long_leg = ar == 0 and 3 * lg > n
    fits = _straddles(ar, lg, 3, n) + short_leg + long_leg
    if fits != 1:
        raise AssertionError(f"arm {ar} and leg {lg} fit {fits} classes, not one")
    if short_leg:
        return _ARM1_SHORT_LEG
    return _ARM0_LONG_LEG if long_leg else _CONTRIBUTES


def classify_nondinv_cell(p: DyckPath, x) -> CellClass:
    """Label one cell above a three-column path.

    A cell failing the straddle inequality has either an east neighbour
    above the path with few cells below it (arm 1, leg < n/3 - 1) or no
    east neighbour and many cells below (arm 0, leg > n/3), never both,
    and no contributing cell fits either case.  A cell that fits no
    class or several raises AssertionError.
    """
    if p.m != 3:
        raise UnsupportedM(f"cell classification needs m = 3, not m = {p.m}")
    column, row = _as_shape_cell(p, x)
    heights = p.east_heights
    return _cell_label(_arm(heights, column, row), _leg(heights, column, row), p.n)
