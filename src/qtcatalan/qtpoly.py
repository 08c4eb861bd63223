"""Exact sparse polynomials in q and t, and two routes to C_{m,n}(q,t).

catalan_bruteforce sums q^dinv t^area over every (m,n)-Dyck path.
transpose keeps both statistics, so C_{m,n} = C_{n,m}, and it walks the
orientation with fewer columns, _walk(min(m, n), max(m, n)).  The walk
builds no DyckPath: an iterative odometer chooses the heights from the
last column down and carries the area of the columns set so far, a sum
over columns.  dinv is a sum of terms of pairs of columns (the stats
docstring), so for each column a it sets the walk keeps a list over the
heights y of column 0, built in C from the list of column a + 1: with0[a]
holds the dinv of columns a..m-1 with their pair terms with column 0 at
y.  Column a adds its own dinv, one stats._column_dinv call (beside the
heights the walk keeps the first rise at or after each column, the list
that kernel reads as nxt, in O(1) per column set), and a reversed slice
of its pair terms with column 0 (stats._pair_dinv).
The bottom is counted at one of two depths, each by one _count_elements
call.  Once columns 1..m-1 are set, with0[1] beside column 0's area at
each height is the bottom column's (dinv, area) pairs.  Where
_two_columns holds (5 <= m < n < 12m, where that measured faster on
most lattices), the odometer stops at column 2 and counts the bottom
two columns at once: it also keeps with1[a], the pair terms of columns
a..m-1 with column 1, and a table of the pairs (y0, y1) of the bottom
two columns, built once per lattice and sorted by y1, holds each pair's
own term and area; the pairs under column 2 are a prefix of it.  So the
Python work is per setting of the columns above the count, none per
height or path.  The walk's counts go to _counted, which checks only
the coefficient cap.
For m = 3 the same polynomial has a closed form: q^(n-a-s-1) t^a
summed over 0 <= s <= floor(n/3) and s <= a <= n-2s-1.  In
two-variable Schur form, with
h_k(q,t) = q^k + q^(k-1) t + ... + t^k, that is

    C_{3,n}(q,t) = sum over 0 <= s <= floor(n/3) of (qt)^s h_{n-1-3s}(q,t),

one symmetric interval per skips value s.
The two routes stay separate (the walk reads no rank word) so each can
check the other.

_closed_form_rows lists those terms already in graded-lex order, as
rows: row s (s ascending) is its falling q-degrees n-2s-1, ..., s beside
its rising t-degrees s, ..., n-2s-1, two ranges, the interval
(qt)^s h_{n-1-3s} with indent s.  catalan3_closed_form
builds its dict from the rows and hands it to _counted too, and the CLI
writes the rows as the segments of one chunks.rows call per format, each
row the two progressions it is: "q^%d t^%d" in text, where _row_text
leaves to _render_term only the few end terms of a row that have an
exponent below 2, as literal segments, and one JSON row template.  So the CLI writes the
closed form straight from the rows: O(output) time, with no polynomial,
no validation, no sort, no int-to-str conversion and no whole output in
memory.  QtPolynomial.render formats the sorted terms() the same way.
QtPolynomial is a paths._Value whose one field is its term dict.

Coefficients and evaluation results are capped at 2^63 - 1 so that JSON
output stays exact for consumers with 64-bit integers; exceeding the cap
raises CoefficientOverflow instead of silently degrading.
"""

from __future__ import annotations

__all__ = [
    "QtPolynomial", "catalan3_closed_form", "catalan_bruteforce", "is_qt_symmetric",
]

from collections import _count_elements  # the C loop of Counter.update, into any dict
from itertools import accumulate, chain, count, islice, repeat, starmap
from operator import add, index, itemgetter
from typing import Iterator, Mapping

from .errors import COEFFICIENT_LIMIT, CoefficientOverflow
from . import paths, rankwords, stats


class QtPolynomial(paths._Value):
    """Finitely many terms c * q^i * t^j with nonnegative integer c, i, j."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (dq, dt), c in (terms or {}).items():
            # index, not int: a float exponent or coefficient raises TypeError
            dq, dt, c = index(dq), index(dt), index(c)
            if dq < 0 or dt < 0:
                raise ValueError(f"exponents must be nonnegative: q^{dq} t^{dt}")
            if c < 0:
                raise ValueError(f"coefficients must be nonnegative: {c}")
            if c > COEFFICIENT_LIMIT:
                raise CoefficientOverflow(
                    f"coefficient {c} exceeds {COEFFICIENT_LIMIT}"
                )
            if c:
                clean[dq, dt] = c
        _set_terms(self, clean)

    def coefficient(self, dq: int, dt: int) -> int:
        """The coefficient of q^dq t^dt; dq and dt must be integers."""
        return self._terms.get((index(dq), index(dt)), 0)

    def terms(self) -> list[tuple[int, int, int]]:
        """(dq, dt, coefficient) triples in graded-lex order.

        Total degree descending, then q-degree descending; the fixed
        order keeps rendered and serialized output byte-stable.
        """
        # two sorts with C keys; the second is stable, so it keeps the
        # q-degrees of one total degree in descending order
        order = sorted(self._terms, key=itemgetter(0), reverse=True)
        order.sort(key=sum, reverse=True)
        return [(dq, dt, self._terms[dq, dt]) for dq, dt in order]

    def __add__(self, other: "QtPolynomial") -> "QtPolynomial":
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        summed = dict(self._terms)
        for key, c in other._terms.items():
            summed[key] = summed.get(key, 0) + c
        return _counted(summed)  # only the cap can break

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"QtPolynomial({self.render()!r})"

    def evaluate(self, q0: int, t0: int) -> int:
        """Exact value at integer (q0, t0)."""
        q0, t0 = index(q0), index(t0)
        value = sum(c * q0**dq * t0**dt for (dq, dt), c in self._terms.items())
        if abs(value) > COEFFICIENT_LIMIT:
            raise CoefficientOverflow(
                f"value at ({q0}, {t0}) leaves the 64-bit range"
            )
        return value

    def render(self) -> str:
        """Human-readable sum in graded-lex term order; "0" when empty."""
        return " + ".join(starmap(_render_term, self.terms())) or "0"

    def json_terms(self) -> list[dict[str, int]]:
        """Term list for JSON output, in the same order as render."""
        return [{"q": dq, "t": dt, "c": c} for dq, dt, c in self.terms()]


_set_terms, = QtPolynomial._setters


def _render_term(dq: int, dt: int, c: int) -> str:
    factors = []
    if c != 1 or (dq == 0 and dt == 0):
        factors.append(str(c))
    if dq:
        factors.append("q" if dq == 1 else f"q^{dq}")
    if dt:
        factors.append("t" if dt == 1 else f"t^{dt}")
    return " ".join(factors)


def catalan_bruteforce(m: int, n: int) -> QtPolynomial:
    """Sum q^dinv t^area over all (m,n)-Dyck paths.

    transpose keeps area and dinv, so C_{m,n} = C_{n,m}: this walks the
    orientation with fewer columns.
    """
    m, n = paths._check_lattice(m, n)
    return _walk(min(m, n), max(m, n))


def _walk(m: int, n: int) -> QtPolynomial:
    """The suffix-first walk over the (m,n)-paths; (m, n) is checked at the call."""
    if m == 1:  # the one path (n,): no cell above it, none below
        return _counted({(0, 0): 1})
    floors = [paths.min_east_height(a, m, n) for a in range(1, m + 1)]
    legs = stats._dinv_legs(m, n)
    column_dinv = stats._column_dinv
    heights = [n] * m
    nxt = [m - 1] * m  # the first rise at or after each column set so far
    area_from = [0] * m  # area of columns a..m-1; the last column adds nothing
    counts: dict[tuple[int, int], int] = {}
    bottom = floors[0]
    low = 2 if _two_columns(m, n) else 1  # the odometer sets columns low..m-1
    to0, to1 = stats._pair_dinv(m, n)
    # with0[a][y - bottom]: the dinv of columns a..m-1 and their pair terms
    # with column 0 at height y; with1[a][y - bottom]: their pair terms with
    # column 1; the last column, at height n, has no dinv of its own
    with0, with1 = [None] * m, [None] * m
    with0[-1] = to0[-1][::-1]
    if low == 2:
        y0s, y1s, pair_dinv, pair_area, ends = _pair_table(n, bottom, floors[1], to0[1])
        with1[-1] = to1[-1][::-1]
    a = m - 1  # columns a..m-1 are set
    while True:
        if a > low:  # the next column down starts at its highest height: no rise
            a -= 1
            heights[a] = heights[a + 1]
            nxt[a] = nxt[a + 1]
        else:
            if low == 2:  # columns 2..m-1 are set: count the pairs below column 2
                under = islice(y0s, ends[heights[2]])  # the pairs with y1 <= heights[2]
                dinvs = map(add, map(add, map(with0[2].__getitem__, under),
                                     map(with1[2].__getitem__, y1s)), pair_dinv)
                _count_elements(counts, zip(dinvs, map(area_from[2].__add__, pair_area)))
            else:  # columns 1..m-1 are set: count the bottom column at each height
                _count_elements(counts, zip(with0[1], count(area_from[1])))
            # then lower the first of columns low..m-2 above its floor
            while a < m - 1 and heights[a] == floors[a]:
                a += 1
            if a == m - 1:
                return _counted(counts)
            heights[a] -= 1  # now below column a + 1: a rise
            nxt[a] = a
        dinv = column_dinv(heights, a, legs, nxt)
        area_from[a] = area_from[a + 1] + heights[a] - floors[a]
        y = heights[a] - bottom
        # column a's dinv and its pair terms with the bottom columns; column
        # 1's list is read once, by the count, so it stays an iterator
        row = map(add, repeat(dinv), map(add, with0[a + 1], to0[a][y::-1]))
        with0[a] = row if a == 1 else list(row)
        if low == 2:
            with1[a] = list(map(add, with1[a + 1], to1[a][y::-1]))


def _two_columns(m: int, n: int) -> bool:
    """Whether the walk counts the bottom two columns from the pair table.

    The two-column count's time over the one-column count's, in process,
    the median of 3 processes, each the median of 3 measurements, each the
    best of 3 rounds of 1 to 200 runs: m = 3: (3,118) 1.58, (3,1001)
    1.85; m = 4: (4,7) 1.21, (4,15) 1.01, (4,41) 1.13, (4,61) 1.24,
    (4,101) 1.36; m = 5: (5,6) 1.06, (5,9) 0.95, (5,14) 0.88, (5,41)
    1.03, (5,59) 1.14, (5,71) 1.15, (5,81) 1.21, (5,101) 1.13; m >= 6:
    (6,13) 0.75, (6,61) 1.04, (6,71) 1.10, (7,12) 0.76, (8,23) 0.72,
    (9,10) 0.74, (9,20) 0.66, (10,11) 0.70; m > n: (13,1) 1.33, (11,3)
    1.16, (9,5) 1.08, (11,4) 0.99, (14,5) 0.89.  m <= 4 and long bottom
    columns lose: from about n = 8m at m = 5 and 10m at m = 6, below the
    rule's 12m, so (5,41), (5,59) and (6,61), which it sends here,
    measured slower, as did the smallest, (5,6) with 42 paths.  The wide
    side, which catalan_bruteforce never walks, stays with the one-column
    count: its small walks lose here, and its largest measured even.
    """
    return 4 < m < n < 12 * m


def _pair_table(n: int, f0: int, f1: int, phi1: list[int]):
    """The pairs (y0, y1) of the bottom two columns, f0 <= y0 <= y1 and
    f1 <= y1 <= n, sorted by y1, as parallel lists: y0 - f0, y1 - f0,
    their pair term phi1[y1 - y0], and their area above the floors f0 and
    f1; and ends[y] = the pairs with y1 <= y.
    """
    rows = range(f1 - f0, n - f0 + 1)  # y1 - f0
    y0s = list(chain.from_iterable(range(d + 1) for d in rows))
    y1s = list(chain.from_iterable(repeat(d, d + 1) for d in rows))
    pair_dinv = list(chain.from_iterable(phi1[d::-1] for d in rows))
    pair_area = list(chain.from_iterable(range(d - rows[0], 2 * d - rows[0] + 1) for d in rows))
    ends = [0] * f1
    ends += accumulate(range(rows[0] + 1, rows[-1] + 2))
    return y0s, y1s, pair_dinv, pair_area, ends


def _closed_form_rows(n: int) -> Iterator[tuple[range, range]]:
    """The terms q^dq t^dt of C_{3,n}(q,t), in graded-lex order, as rows.

    n is checked at the call.  Row s pairs the q-degrees n-a-s-1 with the
    t-degrees a = area for s <= a < n - 2s.  Each (dinv, area) fixes
    s = n - 1 - area - dinv, so every coefficient is 1; s ascending is
    total degree n - 1 - s descending, and a ascending within a row is
    q-degree descending.
    """
    n = rankwords._check_rows(n)
    return (
        (range(n - 2 * s - 1, s - 1, -1), range(s, n - 2 * s))
        for s in range(n // 3 + 1)
    )


def _row_text(qs: range, ts: range) -> list[tuple[str, tuple[range, ...]]]:
    """The rendered terms of one row as segments of chunks.rows, joined by " + ".

    Only the terms at the two ends can have an exponent below 2; each of
    those is a literal segment that _render_term writes, and the rest
    share one template.
    """
    head = min(max(2 - ts[0], 0), len(ts))  # t-degree below 2
    tail = max(head, len(qs) - max(2 - qs[-1], 0))  # q-degree below 2
    segments = [(_render_term(dq, dt, 1), ()) for dq, dt in zip(qs[:head], ts[:head])]
    segments.append(("q^%d t^%d", (qs[head:tail], ts[head:tail])))
    segments += ((_render_term(dq, dt, 1), ()) for dq, dt in zip(qs[tail:], ts[tail:]))
    return segments


def catalan3_closed_form(n: int) -> QtPolynomial:
    """C_{3,n}(q,t) summed directly over the valid statistic triples."""
    rows = _closed_form_rows(n)
    return _counted(dict.fromkeys(chain.from_iterable(starmap(zip, rows)), 1))


def _counted(counts: dict[tuple[int, int], int]) -> QtPolynomial:
    """The polynomial of counts, valid by construction but for the cap.

    Its keys are distinct pairs of nonnegative exponents and its counts
    positive integers, so only the coefficient cap is checked.
    """
    top = max(counts.values(), default=0)
    if top > COEFFICIENT_LIMIT:
        raise CoefficientOverflow(f"coefficient {top} exceeds {COEFFICIENT_LIMIT}")
    poly = object.__new__(QtPolynomial)
    _set_terms(poly, counts)
    return poly


def is_qt_symmetric(p: QtPolynomial) -> bool:
    """Whether swapping q and t exponents leaves the polynomial unchanged."""
    return p._terms == {(dt, dq): c for (dq, dt), c in p._terms.items()}
