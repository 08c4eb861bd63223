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
a <= r of each rise r.

The same sum splits over pairs of columns.  With 0-based columns,
y_{m-1} = n, and g_k(x) = clamp(x - low_k, 0, high_k - low_k) for the
straddling legs [low_k, high_k) at arm k (g_{-1} = g_{m-1} = 0), the
stretch k of column a adds g_k(y_{a+k+1} - y_a) - g_k(y_{a+k} - y_a),
so regrouping by the column b = a + k + 1 gives

    dinv = sum over a < b <= m-1 of phi_{b-a}(y_b - y_a),
    phi_d = g_{d-1} - g_d,

where each term reads one pair of columns.  At b = m - 1 and a > 0 the
part g_{m-1-a}(n - y_a) of the term is 0, as n - y_a <= low_{m-1-a}.
Regrouped within one column, the same steps give the dinv cells of
column a alone:

    own(a) = sum over a < b <= m-1 of phi_{b-a}(y_b - y_a),

since its first stretch starts at leg 0 (g_0(0) = 0) and the part
g_{m-1-a}(n - y_a) of its last term, which none of its stretches adds,
is 0: by the bound above for a > 0, and as g_{m-1} = 0 for a = 0.
_pair_dinv tabulates phi once per lattice, and qtpoly._walk (the brute
force) reads every dinv term from it: each column's own dinv as it sets
the heights from the last column down, and the pair terms with its
bottom column alone or with its bottom two columns, the two depths of
its count.

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
from operator import sub
from typing import NamedTuple

from .errors import UnsupportedM
from .paths import DyckPath, _arm, _as_shape_cell, _leg, arm, leg, min_east_height
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


def _pair_dinv(m: int, n: int) -> list[list[int]]:
    """The tables phi[d][x] = phi_d(x) (the module docstring), d = 0..m - 1.

    x runs over the height differences 0..n - ceil(n/m), every y_b - y_a
    that qtpoly._walk reads; phi[0] pairs no columns and is zeros.
    """
    size = n - min_east_height(1, m, n) + 1
    zero = [0] * size
    # g_k(x) = clamp(x - low, 0, high - low); the highest high, high_{m-2} =
    # n - floor(n/m), is size
    g = [zero, *([0] * low + list(range(high - low)) + [high - low] * (size - high)
                 for low, high in _dinv_legs(m, n)), zero]
    # phi_d = g_{d-1} - g_d
    return [zero, *[list(map(sub, g[d], g[d + 1])) for d in range(1, m)]]


def dinv(p: DyckPath) -> int:
    """Cells above the path satisfying the straddle inequality, O(m*min(m, n)).

    The double sum of the module docstring, rise by rise: for each rise r
    (heights[r] < heights[r + 1]) and each column a <= r, the stretch of
    legs heights[r] - y_a .. heights[r + 1] - y_a - 1 has arm r - a, and
    its overlap with legs[r - a] counts.  The last column, at height n,
    is no rise.
    """
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
