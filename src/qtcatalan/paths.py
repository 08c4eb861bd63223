"""Rational Dyck paths on an m-by-n rectangle.

A path takes unit north and east steps from (0,0) to (m,n), with
gcd(m,n) = 1, and stays weakly above the rectangle diagonal y = (n/m)x.
Coprimality keeps every interior lattice point off the diagonal, so
"weakly above" is the exact ceiling condition y_a >= ceil(a*n/m) on the
height y_a of the a-th east step.  The height list (y_1, ..., y_m) is the
canonical representation; the {N,E} step word is only a serialization,
read by string methods: y_a counts the N's in the runs before the a-th E.
Note y_m = n always: the final east step runs along the top edge.

Cells are addressed (column, row), both 1-based, rows numbered bottom to
top, so cell (1,1) rests on the origin.  Walks over the cells above a path
take the (column, rows) pairs of _cell_rows, one range of rows per column;
Cell is for callers of shape_cells.

Validation runs once, at the boundary: the public constructors (DyckPath,
make_path, parse_path) check every column, while the paths the library
derives from a genuine path or lattice are built unchecked: transpose's
image by _built, and the paths enumerate_paths yields by _built_block, a
block of them at a time.

_Value writes the value protocol once, from __slots__, for DyckPath,
rankwords.MarkedRankWord, the boxed set of a derived word
(rankwords._TopRanks), verify.CheckResult and qtpoly.QtPolynomial.
render_path writes a whole step word; the CLI streams a long one itself.
"""

from __future__ import annotations

__all__ = [
    "Cell", "DyckPath", "arm", "cells_above", "count_paths", "enumerate_paths", "leg",
    "make_path", "min_east_height", "parse_path", "render_path", "shape_cells",
    "transpose",
]

from bisect import bisect_left
from collections import deque
from itertools import accumulate, islice, repeat
from math import comb, gcd
from operator import attrgetter, index
from typing import Iterable, Iterator, NamedTuple

from .errors import COEFFICIENT_LIMIT, BadCharacter, BelowDiagonal, CellNotAboveThePath
from .errors import CoefficientOverflow, NotCoprime, NotMonotone


_HEIGHTS = 1 << 13  # heights in one block of enumerate_paths' paths


class Cell(NamedTuple):
    column: int
    row: int


def _check_lattice(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints, once it is checked to be a lattice of paths: both
    sides integers (index: a float raises TypeError), at most
    COEFFICIENT_LIMIT (checked first, m before n), positive and coprime.

    Callers run it before any O(m) work, such as the list of floor heights.
    """
    m, n = index(m), index(n)
    if m > COEFFICIENT_LIMIT or n > COEFFICIENT_LIMIT:
        side, value = ("m", m) if m > COEFFICIENT_LIMIT else ("n", n)
        raise CoefficientOverflow(f"{side} must be at most {COEFFICIENT_LIMIT}, got {value}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    return m, n


def min_east_height(a: int, m: int, n: int) -> int:
    """Lowest admissible height of the a-th east step: ceil(a*n/m).

    a, m and n must be integers (index: a float raises TypeError), and
    m positive.
    """
    m = index(m)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return -(-index(a) * index(n) // m)


class _Value:
    """For a class whose fields are its __slots__ (its base's, when it
    declares none): immutable, equal only to its own class and hashed as
    its fields, with the constructor-call repr, positional match, and copy
    and pickle through the constructor.  Each __init__, and the library
    for the values it derives, sets _setters."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if not cls.__slots__:  # a subclass that adds no field keeps its base's
            return
        fields = cls.__match_args__ = cls.__slots__
        get = attrgetter(*fields)  # of one name it gives the bare value
        # staticmethod: a plain function on the class would bind as a method
        cls._fields = get if len(fields) > 1 else staticmethod(lambda v: (get(v),))
        # each slot's setter, which passes by __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={v!r}" for f, v in zip(self.__match_args__, self._fields(self))))

    def __reduce__(self):
        # pickle protocols 0 and 1 cannot read slots by themselves, and the
        # default copy assigns each slot, which __setattr__ refuses
        return type(self), self._fields(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DyckPath(_Value):
    """An (m,n)-Dyck path stored as its east-step heights.

    east_heights[a-1] is the number of north steps taken before the a-th
    east step.  Constructing one validates every column; the library
    builds the paths it derives, valid by construction, through _built
    and _built_block.
    """

    __slots__ = ("m", "n", "east_heights")
    m: int
    n: int
    east_heights: tuple[int, ...]

    def __init__(self, m: int, n: int, east_heights: Iterable[int]) -> None:
        east_heights = tuple(east_heights)
        m, n = _check_lattice(m, n)
        if len(east_heights) != m:
            raise ValueError(f"expected {m} east heights, got {len(east_heights)}")
        # one pass; the first bad column names the error.  index makes y an
        # integer (a float raises TypeError), so y is below the floor
        # ceil(a*n/m) exactly when m*y < a*n.  An int is its own index, so
        # only other types are indexed, and then the path keeps the ints;
        # indexing every height up front read +0.4% peak_rss_mb on verify (BENCH_41.json)
        exact = True
        prev = 0
        for a, y in enumerate(east_heights, start=1):
            if y.__class__ is not int:
                y = index(y)
                exact = False
            if y < prev or y > n:
                raise NotMonotone(
                    f"heights must weakly increase within 0..{n}: {east_heights}"
                )
            if m * y < a * n:
                raise BelowDiagonal(
                    f"east step {a} at height {y} dips below the diagonal "
                    f"(needs >= {min_east_height(a, m, n)})"
                )
            prev = y
        _set_m(self, m)
        _set_n(self, n)
        _set_heights(self, east_heights if exact else tuple(map(index, east_heights)))


_set_m, _set_n, _set_heights = DyckPath._setters


def _built(m: int, n: int, heights: tuple[int, ...]) -> DyckPath:
    """A DyckPath from data valid by construction, with no validation."""
    p = object.__new__(DyckPath)
    _set_m(p, m)
    _set_n(p, n)
    _set_heights(p, heights)
    return p


def _built_block(m: int, n: int, block: list[tuple[int, ...]]) -> list[DyckPath]:
    """_built(m, n, heights) for each heights in block, by C-level maps."""
    # a list of _built calls read +1.3% ref_wall_s on verify, +3.1% on general_mn (BENCH_41.json)
    ps = list(map(object.__new__, repeat(DyckPath, len(block))))
    deque(map(_set_m, ps, repeat(m)), 0)
    deque(map(_set_n, ps, repeat(n)), 0)
    deque(map(_set_heights, ps, block), 0)
    return ps


def make_path(m: int, n: int, east_heights: Iterable[int]) -> DyckPath:
    """Validate and build a path from its east-step heights."""
    return DyckPath(m, n, tuple(east_heights))


def parse_path(word: str) -> DyckPath:
    """Read a step word over {N, E}, e.g. "NNENNEE" for the (3,4)-path (2,4,4)."""
    north = word.count("N")
    if north + word.count("E") != len(word):
        stray = word.lstrip("NE")[0]  # the first character that is neither
        raise BadCharacter(f"step words use only N and E, found {stray!r}")
    heights = tuple(accumulate(map(len, word.split("E")[:-1])))
    return DyckPath(len(heights), north, heights)


def render_path(p: DyckPath) -> str:
    """Serialize to the step word; inverse of parse_path."""
    parts = []
    prev = 0
    for y in p.east_heights:
        parts.append("N" * (y - prev))
        parts.append("E")
        prev = y
    return "".join(parts)


def count_paths(m: int, n: int) -> int:
    """Number of (m,n)-Dyck paths, binomial(m+n, m) / (m+n), once _check_lattice passes."""
    m, n = _check_lattice(m, n)
    return comb(m + n, m) // (m + n)


def _bounded_count(m: int, n: int) -> int:
    """count_paths(m, n), raising CoefficientOverflow above COEFFICIENT_LIMIT.

    With k = min(m, n) >= 2 the count grows with the other side, which is
    at least k + 1, so it is at least Catalan(k) = count_paths(k, k + 1);
    Catalan(36) > COEFFICIENT_LIMIT, so k >= 36 is refused with no comb.
    Below that count_paths is cheap: comb takes the smaller of its two
    parts, comb(m + n, k), which is quick even at m + n near 2^64.
    """
    m, n = _check_lattice(m, n)
    if min(m, n) >= 36 or (count := count_paths(m, n)) > COEFFICIENT_LIMIT:
        raise CoefficientOverflow(
            f"the ({m},{n})-lattice has more than {COEFFICIENT_LIMIT} paths")
    return count


def enumerate_paths(m: int, n: int) -> Iterator[DyckPath]:
    """Yield every (m,n)-Dyck path once, in lexicographic height order.

    Each path is a prefix of its first columns plus a suffix from a table
    of every suffix of the last columns, in lex order.  The columns whose
    floor is n are always n; the table grows leftwards from them, one
    column at a time, up to column 2 and while it holds at most block
    suffixes.  Its first column's heights run from low to n, and
    starts[y - low] is the first suffix whose height is at least y, so the
    suffixes that may follow a column at height y are a slice of the
    table.  An odometer walks the prefix columns but the last, whose
    heights are looped within, and the paths are built in blocks of about
    block = _HEIGHTS // m.  So the table holds at most _HEIGHTS heights and
    a block under 2 * _HEIGHTS (two paths, once one path is longer): past
    the O(m) of the floors and the odometer, memory grows with neither n
    nor the number of paths.  The table pays where the last columns admit
    many suffixes (tall or balanced lattices); on a wide one with small n
    it holds few, and each path costs an odometer step and an O(m) copy.
    A step finds the last prefix column below n and the columns to reset
    by bisection and resets them with two slice copies, so its Python
    work is O(1) and the rest is copied in C.
    """
    m, n = _check_lattice(m, n)
    floors = [min_east_height(a, m, n) for a in range(1, m + 1)]
    block = max(1, _HEIGHTS // m)  # paths per block, and suffixes in the table
    k = max(1, bisect_left(floors, n))  # the first column of the table
    table = [(n,) * (m - k)]
    low, starts = n, [0]
    while k > 1:
        below = floors[k - 1]
        size = len(table)
        if (low - below) * size + sum(size - s for s in starts) > block:
            break
        grown: list[tuple[int, ...]] = []
        grown_starts = []
        for y in range(below, n + 1):
            grown_starts.append(len(grown))
            grown += map((y,).__add__, islice(table, starts[y - low] if y > low else 0, None))
        table, low, starts, k = grown, below, grown_starts, k - 1
    heights = floors[:k - 1]  # the prefix odometer, without column k - 1
    lowest = floors[k - 1]
    batch: list[tuple[int, ...]] = []
    while True:
        head = tuple(heights)
        for y in range(max(heights[-1], lowest) if heights else lowest, n + 1):
            batch += map((*head, y).__add__, islice(table, starts[y - low] if y > low else 0, None))
            if len(batch) >= block:
                yield from _built_block(m, n, batch)
                batch = []
        # odometer step: raise the last prefix height below n to h and drop
        # every prefix height after it to its lowest value, max(h, floor):
        # h up to the first floor at least h, the floors from there
        a = bisect_left(heights, n) - 1
        if a < 0:
            yield from _built_block(m, n, batch)
            return
        h = heights[a] + 1
        j = bisect_left(floors, h, a + 1, k - 1)
        heights[a:j] = [h] * (j - a)
        heights[j:k - 1] = floors[j:k - 1]


def cells_above(p: DyckPath) -> tuple[int, ...]:
    """Per-column counts of the cells strictly above the path (n - y_a)."""
    return tuple(p.n - y for y in p.east_heights)


def shape_cells(p: DyckPath) -> tuple[Cell, ...]:
    """Every cell above the path, column by column, lowest row first."""
    return tuple(Cell(a, b) for a, rows in _cell_rows(p.east_heights, p.n) for b in rows)


def _cell_rows(heights, n: int) -> list[tuple[int, range]]:
    """The cells above the path of these heights, column by column: each
    column a with the range of its rows y_a + 1 .. n, lowest first."""
    return [(a, range(y + 1, n + 1)) for a, y in enumerate(heights, start=1)]


def _as_shape_cell(p: DyckPath, x) -> tuple[int, int]:
    """x as (column, row), once it is checked to be a cell above the path.

    column and row must be integers (index: a float raises TypeError).
    """
    column, row = map(index, x)
    if not (1 <= column <= p.m and 1 <= row <= p.n):
        raise CellNotAboveThePath(f"cell ({column}, {row}) is outside the lattice")
    if row <= p.east_heights[column - 1]:
        raise CellNotAboveThePath(f"cell ({column}, {row}) lies below the path")
    return column, row


def _arm(heights, column: int, row: int) -> int:
    """arm of the cell (column, row) above the path of these heights; unchecked.

    The heights after the column weakly increase, so the ones below the
    row are a prefix of them, found by bisection.
    """
    return bisect_left(heights, row, column) - column


def _leg(heights, column: int, row: int) -> int:
    """leg of the cell (column, row) above the path of these heights; unchecked."""
    return row - 1 - heights[column - 1]


def arm(p: DyckPath, x) -> int:
    """Cells above the path strictly east of x in its row."""
    return _arm(p.east_heights, *_as_shape_cell(p, x))


def leg(p: DyckPath, x) -> int:
    """Cells above the path strictly south of x in its column."""
    return _leg(p.east_heights, *_as_shape_cell(p, x))


def transpose(p: DyckPath) -> DyckPath:
    """The complementary (n,m)-path: reverse the step word, swap N and E.

    The image's j-th east step comes after the north steps that were the
    east steps of the columns with fewer than j cells above the path, so
    its height is the number of those columns: the image is the conjugate
    partition.  tally[c] counts the columns with c = n - y_a cells above
    (c < n, since y_a >= 1), and the image's heights are its prefix sums:
    O(m) Python steps, and the n heights summed in C.
    """
    n = p.n
    tally = [0] * n
    for y in p.east_heights:
        tally[n - y] += 1
    return _built(n, p.m, tuple(accumulate(tally)))
