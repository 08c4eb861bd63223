"""Rank words of the three-column lattice and marked rank words of paths.

Cell (a,b) of the n-row, three-column lattice carries the rank
R(a,b) = -a*n + 3*(b-1).  Listing the positive ranks in increasing order,
colored 1 for the first column and 2 for the second (the third column is
all negative), gives the rank word of the lattice.  Equivalently, the
color-1 entries are the positive integers below 2n congruent to 2n mod 3
and the color-2 entries those below n congruent to n mod 3; the two
residues differ exactly when 3 does not divide n, which is why that case
is required throughout.  Every function reads the word through that
residue rule; only MarkedRankWord.entries lists the word entry by entry.

Marking (boxing) the ranks of the cells above a path yields the marked
rank word of the path.  Within each color the boxed entries are always
the largest ones, so a word determines its path and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadResidue, InvalidTriple, NotRealizable, UnsupportedM
from .paths import DyckPath, shape_cells


def rank(a: int, b: int, n: int) -> int:
    """Rank of cell (a,b): -a*n + 3*(b-1)."""
    if not 1 <= a <= 3:
        raise ValueError(f"column must be 1..3, got {a}")
    if not 1 <= b <= n:
        raise ValueError(f"row must be 1..{n}, got {b}")
    return -a * n + 3 * (b - 1)


class RankEntry(NamedTuple):
    rank: int
    color: int  # 1 = first column, 2 = second column
    boxed: bool


def _color(r: int, n: int) -> int | None:
    """Color of rank r in the n-row rank word, or None when r is not in it."""
    if 0 < r < 2 * n and (2 * n - r) % 3 == 0:
        return 1
    if 0 < r < n and (n - r) % 3 == 0:
        return 2
    return None


@dataclass(frozen=True)
class MarkedRankWord:
    """A rank word with a subset of entries boxed.

    Only n and the boxed rank set are stored; entry order and colors are
    fixed by n, so equality is structural.  Arbitrary boxed subsets are
    representable; only realizable ones convert back to a path.
    """

    n: int
    boxed: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxed", frozenset(self.boxed))
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n % 3 == 0:
            raise BadResidue(f"n must not be a multiple of 3, got {self.n}")
        stray = sorted(r for r in self.boxed if _color(r, self.n) is None)
        if stray:
            raise ValueError(f"not ranks of the {self.n}-row lattice: {stray}")

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        """The n - 1 entries in increasing rank order."""
        return tuple(
            RankEntry(r, color, r in self.boxed)
            for r in range(1, 2 * self.n)
            if (color := _color(r, self.n))
        )

    def __len__(self) -> int:
        return self.n - 1


def lattice_rank_word(n: int) -> MarkedRankWord:
    """The all-unboxed rank word of the n-row lattice."""
    return MarkedRankWord(n, frozenset())


def mark_from_path(p: DyckPath) -> MarkedRankWord:
    """Box exactly the ranks of the cells above the path."""
    if p.m != 3:
        raise UnsupportedM(f"rank words are defined for m = 3, not m = {p.m}")
    boxed = frozenset(rank(x.column, x.row, p.n) for x in shape_cells(p))
    return MarkedRankWord(p.n, boxed)


def count_skips(w: MarkedRankWord) -> int:
    """Gaps between consecutive boxed ranks that hold a word rank.

    Each such gap is one maximal unboxed run fenced by boxed entries.  Color
    1 takes every third number below 2n, so a gap is searched in <= 3 steps.
    """
    marks = sorted(w.boxed)
    return sum(
        1
        for lo, hi in zip(marks, marks[1:])
        if any(_color(r, w.n) for r in range(lo + 1, hi))
    )


def boxed_counts(w: MarkedRankWord) -> tuple[int, int]:
    """(number of boxed color-1 entries, number of boxed color-2 entries)."""
    k = sum(1 for r in w.boxed if _color(r, w.n) == 1)
    return k, len(w.boxed) - k


def path_from_word(w: MarkedRankWord) -> DyckPath:
    """The unique path whose marked rank word is w; inverse of mark_from_path.

    Realizable words box, within each color, only the largest ranks, and
    box at least as many color-1 entries as color-2 entries.
    """
    k, ell = boxed_counts(w)
    for color, top, count in ((1, 2 * w.n - 3, k), (2, w.n - 3, ell)):
        if any(r not in w.boxed for r in range(top, top - 3 * count, -3)):
            raise NotRealizable(
                f"boxed color-{color} entries are not the largest ones"
            )
    if k < ell:
        raise NotRealizable(
            f"needs at least as many boxed color-1 as color-2 entries ({k} < {ell})"
        )
    return DyckPath(3, w.n, (w.n - k, w.n - ell, w.n))


def is_valid_triple(a: int, s: int, d: int) -> bool:
    """True when some (3, a+s+d+1)-path has these area, skips, dinv values."""
    if a < 0 or s < 0 or d < 0:
        return False
    return s <= a and s <= d and (a + s + d + 1) % 3 != 0


def omega(a: int, s: int, d: int) -> MarkedRankWord:
    """Rebuild the marked rank word with the given area, skips and dinv.

    On the rank word of the (a+s+d+1)-row lattice, box the rightmost d
    entries outright.  Then, s times, walk left over the maximal run of
    same-colored entries adjacent to the processed region (the run stays
    unboxed and becomes one skip) and box the entry just past it.
    """
    if not is_valid_triple(a, s, d):
        raise InvalidTriple(f"no path has area={a}, skips={s}, dinv={d}")
    n = a + s + d + 1
    boxed: list[int] = []
    run = None  # color of the unboxed run being skipped
    for r in range(2 * n - 1, 0, -1):
        if len(boxed) == d + s:
            break
        color = _color(r, n)
        if color is None:
            continue
        if len(boxed) < d or run not in (None, color):
            boxed.append(r)
            run = None
        else:
            run = color  # opens or extends the skipped run
    # valid triples always leave an entry beyond each skipped run
    assert len(boxed) == d + s
    return MarkedRankWord(n, frozenset(boxed))


def render_word(w: MarkedRankWord) -> str:
    """Space-separated "rank_color" entries, boxed ones in square brackets."""
    return " ".join(
        f"[{e.rank}_{e.color}]" if e.boxed else f"{e.rank}_{e.color}"
        for e in w.entries
    )
