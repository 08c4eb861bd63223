"""Rank words of the three-column lattice and marked rank words of paths.

Cell (a,b) of the n-row, three-column lattice carries the rank
R(a,b) = -a*n + 3*(b-1).  Listing the positive ranks in increasing order,
colored 1 for the first column and 2 for the second (the third column is
all negative), gives the rank word of the lattice.

Residues: the color-1 entries are range(2n % 3, 2n, 3), the positive
integers below 2n congruent to 2n mod 3, and the color-2 entries
range(n % 3, n, 3).  The two residues differ exactly when 3 does not
divide n, which is why that case is required throughout.  _colors gives
the two ranges, and every reader takes a rank's color, the counts and the
indices from them; the k top ranks of a color are the k steps of 3 below
its end, 2n or n (_TopRanks); _position reads the rule as an entry's
place in the word: below n every rank not divisible by 3 is an entry,
and from n up every third rank is one.

Counts: marking (boxing) the ranks of the cells above a path yields its
marked rank word.  The n - y_a cells above column a have ranks falling by
3 from the top row, so the path (y1, y2, n) boxes the k = n - y1 largest
color-1 ranks 2n-3, 2n-6, ... and the ell = n - y2 largest color-2 ranks
n-3, n-6, ...: a realizable word is its counts (k, ell), the thresholds
2n - 3k and n - 3ell.  The words the library derives (_derived, for
mark_from_path and omega) hold such a set as a _TopRanks, O(1) in memory,
and MarkedRankWord, boxed_counts, _runs and path_from_word take its counts
as they stand, with no pass over its ranks.  Skips
and the involution need no word: _skips reads skips off (k, ell) and
_counts gives (k, ell) back from (s, d), both O(1); count_skips, over the
word positions of the sorted boxed ranks of any marking, is the
definition.  The cell-by-cell definition of the marking is the reference,
in verify and in tests/oracles.py.

Runs: a word is listed as progressions (_runs), stretches of indices
into the two colors with one boxing per color: rows of the i-th rank of
each color for i < n // 3, then of the other color-1 ranks; at most 4,
none empty, when the word boxes each color's top ranks.
MarkedRankWord.entries reads them and _formatted writes them, one
template per (color, boxed), as the segments of one chunks.rows call for
render_word and the CLI, so an entry costs no Python-level step.

Validation runs once, at the boundary: MarkedRankWord(...) checks n and
every boxed rank, or a _TopRanks' two counts, so a copied or unpickled
word is checked again; a derived word's ranks are word ranks by
construction.  path_from_word checks only that a word is realizable, and
builds its path unchecked.
"""

from __future__ import annotations

__all__ = [
    "MarkedRankWord", "RankEntry", "boxed_counts", "count_skips", "is_valid_triple",
    "lattice_rank_word", "mark_from_path", "omega", "path_from_word", "rank",
    "render_word",
]

from collections.abc import Set
from itertools import chain, repeat
from operator import index
from typing import Iterable, Iterator, Mapping, NamedTuple

from .chunks import rows
from .errors import COEFFICIENT_LIMIT, BadResidue, CoefficientOverflow, InvalidTriple
from .errors import NotRealizable, UnsupportedM
from .paths import DyckPath, _Value, _built


def rank(a: int, b: int, n: int) -> int:
    """Rank of cell (a,b): -a*n + 3*(b-1).

    a, b and n must be integers (index: a float raises TypeError).
    """
    a, b, n = index(a), index(b), index(n)
    if not 1 <= a <= 3:
        raise ValueError(f"column must be 1..3, got {a}")
    if not 1 <= b <= n:
        raise ValueError(f"row must be 1..{n}, got {b}")
    return _rank(a, b, n)


def _rank(a: int, b: int, n: int) -> int:
    """rank of the cell (a, b) of the n-row lattice; unchecked."""
    return -a * n + 3 * (b - 1)


class RankEntry(NamedTuple):
    rank: int
    color: int  # 1 = first column, 2 = second column
    boxed: bool


def _colors(n: int) -> tuple[range, range]:
    """The color-1 and the color-2 ranks of the n-row rank word."""
    return range(2 * n % 3, 2 * n, 3), range(n % 3, n, 3)


def _position(r: int, n: int) -> int:
    """1-based place of rank r in the n-row rank word; r must be a word rank.

    Below n the entries are the ranks not divisible by 3, so r - r // 3 of
    them are at most r.  The first rank above n is the one congruent to 2n,
    n + n % 3, at place n - (n - 1) // 3, and each later entry is 3 higher.
    """
    if r < n:
        return r - r // 3
    return n - (n - 1) // 3 + (r - n) // 3


def _check_rows(n: int) -> int:
    """n as an int, once it is checked to be a row count of the
    three-column lattice.

    n must be an integer (index: a float raises TypeError), positive, not
    a multiple of 3 and at most COEFFICIENT_LIMIT: the progressions of its
    word and closed form have a len, a C ssize_t.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n % 3 == 0:
        raise BadResidue(f"n must not be a multiple of 3, got {n}")
    if n > COEFFICIENT_LIMIT:
        raise CoefficientOverflow(f"n must be at most {COEFFICIENT_LIMIT}, got {n}")
    return n


class MarkedRankWord(_Value):
    """A rank word with a subset of entries boxed.

    Only n and the boxed rank set are stored; entry order and colors are
    fixed by n, so equality is structural.  Arbitrary boxed subsets are
    representable; only realizable ones convert back to a path.
    Constructing one validates n and the boxed ranks, and boxed is then a
    frozenset of ints or, kept as its two counts, a derived word's
    immutable set of the same ranks (_TopRanks) that equals and hashes
    like that frozenset.
    """

    __slots__ = ("n", "boxed")
    n: int
    boxed: Set[int]

    def __init__(self, n: int, boxed: Iterable[int]) -> None:
        top = isinstance(boxed, _TopRanks) and boxed.n == n
        if not top:
            # index: a float rank raises TypeError, and the set holds plain ints
            boxed = frozenset(map(index, boxed))
        n = _check_rows(n)
        ones, twos = _colors(n)
        if not top:
            stray = sorted(r for r in boxed if r not in ones and r not in twos)
            if stray:
                raise ValueError(f"not ranks of the {n}-row lattice: {stray}")
        elif not (0 <= index(boxed.k) <= len(ones) and 0 <= index(boxed.ell) <= len(twos)):
            raise ValueError(f"cannot box the top {boxed.k} color-1 and {boxed.ell} "
                             f"color-2 ranks of the {n}-row word")
        _set_n(self, n)
        _set_boxed(self, boxed)

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        """The n - 1 entries in increasing rank order."""
        return tuple(chain.from_iterable(chain.from_iterable(
            zip(*(map(RankEntry, column, repeat(c), repeat(b))
                  for column, (c, b) in zip(columns, kinds)))
            for columns, kinds in _runs(self)
        )))

    def __len__(self) -> int:
        return self.n - 1


class _TopRanks(_Value, Set):
    """The k largest color-1 ranks and the ell largest color-2 ranks, as a set.

    A value, O(1) in memory: the set is the two progressions
    range(2n - 3k, 2n, 3) and range(n - 3ell, n, 3), built when read, and
    it equals and hashes like the frozenset of the same ranks.  Its
    constructor checks nothing; MarkedRankWord checks the counts.
    """

    __slots__ = ("n", "k", "ell")

    def __init__(self, n: int, k: int, ell: int) -> None:
        _set_top_n(self, n)
        _set_k(self, k)
        _set_ell(self, ell)

    def _ranges(self) -> tuple[range, range]:
        n = self.n
        return range(2 * n - 3 * self.k, 2 * n, 3), range(n - 3 * self.ell, n, 3)

    def __contains__(self, r: object) -> bool:
        ones, twos = self._ranges()
        return r in ones or r in twos  # a range finds 5.0 too, as {5} does

    def __len__(self) -> int:
        return self.k + self.ell

    def __iter__(self) -> Iterator[int]:
        return chain(*self._ranges())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TopRanks) and other.n == self.n:
            # on one n, the lengths fix the two progressions
            return self.k == other.k and self.ell == other.ell
        if not isinstance(other, Set):
            return NotImplemented
        ones, twos = self._ranges()
        return (len(other) == self.k + self.ell and all(map(other.__contains__, ones))
                and all(map(other.__contains__, twos)))

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> frozenset[int]:
        return frozenset(it)  # the result of &, |, - and ^

    def __repr__(self) -> str:
        return repr(frozenset(self))


_set_n, _set_boxed = MarkedRankWord._setters
_set_top_n, _set_k, _set_ell = _TopRanks._setters


def _derived(n: int, k: int, ell: int) -> MarkedRankWord:
    """The word boxing the top k color-1 and ell color-2 ranks, unvalidated;
    the word and its set are both filled by their slot setters."""
    # _TopRanks(n, k, ell) here read +0.9% peak_rss_mb on sweep3 in the deleted set (BENCH_41.json)
    top = object.__new__(_TopRanks)
    _set_top_n(top, n)
    _set_k(top, k)
    _set_ell(top, ell)
    w = object.__new__(MarkedRankWord)
    _set_n(w, n)
    _set_boxed(w, top)
    return w


def _runs(w: MarkedRankWord) -> Iterator[tuple[tuple[range, ...], tuple]]:
    """w's entries as progressions (columns, kinds), in increasing rank order.

    A rank r is at index r // 3 of its color's range (_colors).  The word
    pairs the i-th ranks of the two colors, lower residue first, while
    color 2 lasts, then lists the other color-1 ranks.  Cuts: the end of
    color 2 and, when w boxes each color's top ranks, k and ell before
    each color's end (at most 4 progressions), else each boxed rank's
    index and the next.  None is empty.
    """
    boxed = w.boxed
    ones, twos = _colors(w.n)
    pairs, count = len(twos), len(ones)
    k, ell = boxed_counts(w)
    if isinstance(boxed, _TopRanks) or boxed == _TopRanks(w.n, k, ell):
        cuts = {count - k, pairs - ell}
    else:
        cuts = {*(r // 3 for r in boxed), *(r // 3 + 1 for r in boxed)}
    edges = sorted({0, pairs, count, *(c for c in cuts if 0 < c < count)})
    (low, c1), (high, c2) = sorted([(ones, 1), (twos, 2)], key=lambda rc: rc[0].start)
    for lo, hi in zip(edges, edges[1:]):
        if hi <= pairs:
            yield ((low[lo:hi], high[lo:hi]),
                   ((c1, low[lo] in boxed), (c2, high[lo] in boxed)))
        else:
            yield (ones[lo:hi],), ((1, ones[lo] in boxed),)


def _formatted(
    w: MarkedRankWord, templates: Mapping[tuple[int, bool], str], sep: str
) -> Iterator[str]:
    """sep.join of templates[color, boxed] % rank over w's entries, as chunks.

    The entries go in increasing rank order, leaving out any whose kind
    templates lacks.
    """
    progressions = (
        [(c, templates[kind]) for c, kind in zip(columns, kinds) if kind in templates]
        for columns, kinds in _runs(w))
    return rows(((sep.join(t for _, t in kept), [c for c, _ in kept])
                 for kept in progressions if kept), sep)


def lattice_rank_word(n: int) -> MarkedRankWord:
    """The all-unboxed rank word of the n-row lattice."""
    return MarkedRankWord(n, frozenset())


def mark_from_path(p: DyckPath) -> MarkedRankWord:
    """Box exactly the ranks of the cells above the path.

    Those are the n - y1 largest color-1 and the n - y2 largest color-2
    ranks; the third column has no cell above a path.
    """
    if p.m != 3:
        raise UnsupportedM(f"rank words are defined for m = 3, not m = {p.m}")
    y1, y2, _ = p.east_heights
    return _derived(p.n, p.n - y1, p.n - y2)


def count_skips(w: MarkedRankWord) -> int:
    """Skips by definition: maximal unboxed runs fenced by boxed entries.

    Such a run lies between two consecutive boxed entries exactly when they
    are not neighbours in the word, so the count is of consecutive boxed
    ranks whose word positions differ by more than 1; no gap is scanned.
    """
    n = w.n
    places = [_position(r, n) for r in sorted(w.boxed)]
    return sum(b - a > 1 for a, b in zip(places, places[1:]))


def boxed_counts(w: MarkedRankWord) -> tuple[int, int]:
    """(number of boxed color-1 entries, number of boxed color-2 entries)."""
    if isinstance(w.boxed, _TopRanks):
        return w.boxed.k, w.boxed.ell
    ones, _ = _colors(w.n)
    k = sum(1 for r in w.boxed if r in ones)
    return k, len(w.boxed) - k


def path_from_word(w: MarkedRankWord) -> DyckPath:
    """The unique path whose marked rank word is w; inverse of mark_from_path.

    Realizable words box, within each color, only the largest ranks, and
    box at least as many color-1 entries as color-2 entries.  k and ell
    are at most the color counts, floor(2n/3) and floor(n/3): MarkedRankWord
    checks them, and a derived word, whose _TopRanks boxes the largest
    ranks, has them by construction.  With ell <= k, (n - k, n - ell, n) is
    then always a (3,n)-path, built unchecked (paths._built).
    """
    k, ell = boxed_counts(w)
    if not isinstance(w.boxed, _TopRanks) and w.boxed != (top := _TopRanks(w.n, k, ell)):
        misplaced = w.boxed ^ top
        for color, ranks in enumerate(_colors(w.n), start=1):
            if any(map(ranks.__contains__, misplaced)):
                raise NotRealizable(
                    f"boxed color-{color} entries are not the largest ones"
                )
    if k < ell:
        raise NotRealizable(
            f"needs at least as many boxed color-1 as color-2 entries ({k} < {ell})"
        )
    return _built(3, w.n, (w.n - k, w.n - ell, w.n))


def is_valid_triple(a: int, s: int, d: int) -> bool:
    """True when some (3, a+s+d+1)-path has these area, skips, dinv values.

    The three values must be integers: a float raises TypeError.
    """
    a, s, d = index(a), index(s), index(d)
    if a < 0 or s < 0 or d < 0:
        return False
    return s <= a and s <= d and (a + s + d + 1) % 3 != 0


def _counts(n: int, s: int, d: int) -> tuple[int, int]:
    """(k, ell) of the word omega builds for skips s and dinv d on n rows.

    omega's walk (tests/oracles.py's omega_by_walk is the reference) boxes
    the rightmost d entries outright, then s times passes the maximal
    same-colored run next to the boxed region (one skip) and boxes the
    entry past it.  From the top, the word opens with the q = n // 3
    color-1 ranks above n; below n the colors alternate from color 1.  So
    the d outright boxes take that block and t = max(d - q, 0) alternating
    entries, t // 2 of them color 2.  For even t the first entry left is
    color 1 (for t = 0 its run may start inside the block), so every skip
    boxes a color-2 entry; for odd t it is color 2 and every skip boxes a
    color-1 entry.  Hence ell = t // 2 + (s if t is even else 0) and
    k = d + s - ell.  Back, K = max(k - q, 0) counts the color-1 boxes
    below n: even t gives K = t / 2 and ell = K + s, odd t gives
    ell = K - s - 1 < K, so _skips undoes _counts.
    """
    t = max(d - n // 3, 0)
    ell = t // 2 + (0 if t % 2 else s)
    return d + s - ell, ell


def _skips(n: int, k: int, ell: int) -> int:
    """Skips of the top k color-1 and ell color-2 boxes; see _counts."""
    big = max(k - n // 3, 0)
    return ell - big if big <= ell else big - ell - 1


def omega(a: int, s: int, d: int) -> MarkedRankWord:
    """Rebuild the marked rank word with the given area, skips and dinv.

    It boxes the top _counts(n, s, d) ranks of each color (n = a+s+d+1).
    The three values must be integers: a float raises TypeError.
    """
    a, s, d = index(a), index(s), index(d)
    if not is_valid_triple(a, s, d):
        raise InvalidTriple(f"no path has area={a}, skips={s}, dinv={d}")
    n = _check_rows(a + s + d + 1)
    return _derived(n, *_counts(n, s, d))


_TEXT = {
    (1, False): "%d_1", (1, True): "[%d_1]", (2, False): "%d_2", (2, True): "[%d_2]"
}


def _word_chunks(w: MarkedRankWord) -> Iterator[str]:
    """render_word(w) as chunks (chunks.rows)."""
    return _formatted(w, _TEXT, " ")


def render_word(w: MarkedRankWord) -> str:
    """Space-separated "rank_color" entries, boxed ones in square brackets."""
    return "".join(_word_chunks(w))
