"""Exact sparse polynomials in q and t, and two routes to C_{m,n}(q,t).

catalan_bruteforce sums q^dinv t^area over every (m,n)-Dyck path.
transpose keeps both statistics, so C_{m,n} = C_{n,m}, and it walks the
orientation with fewer columns, _walk(min(m, n), max(m, n)).  The walk
builds no DyckPath: an iterative odometer chooses the heights from the
last column down and carries the dinv and area of the columns set so
far, because column a's dinv term (stats._column_dinv) reads only the
heights from column a on and area is a sum over columns.  Beside the
heights it keeps the first rise at or after each column (the list
stats._column_dinv reads as nxt), in O(1) per column set, so a column's
dinv visits only the stretches that exist.  Once columns 1..m-1 are set,
the bottom column runs from the height of column 1 (no rise) down to its
floor (a rise).  A column of fewer than _BULK_SPAN heights is one loop,
one call of that kernel, O(min(m, n)) steps, and one count per path.  A
longer one takes one kernel call at its top: below it, column 0's dinv
changes by a sum of +-1 ramps, each on one interval of heights, two per
rise, so _count_bulk writes their ends into a difference list and two
accumulates give every height's dinv, O(rises) Python steps per piece of
at most _BULK_PIECE heights, with the counting done in C.  The walk's counts go to
_counted, which checks only the coefficient cap.  For m = 3 the same
polynomial has a closed form: q^(n-a-s-1) t^a summed over 0 <= s <=
floor(n/3) and s <= a <= n-2s-1.  In two-variable Schur form, with
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
from itertools import accumulate, chain, starmap
from operator import index, itemgetter
from typing import Iterator, Mapping

from .errors import COEFFICIENT_LIMIT, CoefficientOverflow
from . import paths, rankwords, stats


# a bottom column of at least this many heights is counted in bulk; on
# shorter ones the per-height loop measured as fast or faster, and
# counting every column in bulk read +14.9% ref_wall_s on general_mn (BENCH_41.json)
_BULK_SPAN = 7
_BULK_PIECE = 1 << 12  # heights in one piece of a bulk column


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
    # dinv and area of columns a..m-1; the last column, at height n, adds nothing
    dinv_from = [0] * m
    area_from = [0] * m
    counts: dict[tuple[int, int], int] = {}
    get = counts.get
    bottom = floors[0]
    a = m - 1  # columns a..m-1 are set
    while True:
        if a > 1:  # the next column down starts at its highest height: no rise
            a -= 1
            heights[a] = heights[a + 1]
            nxt[a] = nxt[a + 1]
        else:  # columns 1..m-1 are set: count the bottom column at each height
            top = heights[1]
            dinv1, area1 = dinv_from[1], area_from[1] - bottom
            heights[0] = top
            nxt[0] = nxt[1]  # level with column 1 at first
            if top - bottom + 1 >= _BULK_SPAN:
                _count_bulk(counts, heights, legs, nxt, bottom,
                            dinv1 + column_dinv(heights, 0, legs, nxt), area1 + top)
            else:
                for y in range(top, bottom - 1, -1):
                    heights[0] = y
                    key = (dinv1 + column_dinv(heights, 0, legs, nxt), area1 + y)
                    counts[key] = get(key, 0) + 1
                    nxt[0] = 0  # below column 1 from the next height on: a rise
            # then lower the first of columns 1..m-2 above its floor
            while a < m - 1 and heights[a] == floors[a]:
                a += 1
            if a == m - 1:
                return _counted(counts)
            heights[a] -= 1  # now below column a + 1: a rise
            nxt[a] = a
        dinv_from[a] = dinv_from[a + 1] + column_dinv(heights, a, legs, nxt)
        area_from[a] = area_from[a + 1] + heights[a] - floors[a]


def _count_bulk(counts, heights, legs, nxt, bottom: int, dinv: int, area: int) -> None:
    """Count the bottom column at every height from heights[1] down to bottom.

    Columns 1..m-1 are set, and (dinv, area) is the path's at the top.
    Going from t to t + 1 heights below the top, y = heights[1] - t, adds
    [t < hi0] + the sum over rises r >= 1 of [h_{r+1} - y in legs[r]] -
    [h_r - y in legs[r]] to column 0's dinv (stats._column_dinv), where
    legs[0] = [0, hi0): stretch 0 grows by one leg, and every stretch
    above it shifts by one.  Each indicator holds on one interval of t, so
    it is +-1 at the two ends of a difference list, and two accumulates
    give the dinv at each height.  The column goes in pieces of at most
    _BULK_PIECE heights, so the lists stay bounded whatever n is.
    """
    top = heights[1]
    last = len(heights) - 1
    hi0 = legs[0][1]
    span = top - bottom + 1  # heights in the column
    for start in range(0, span, _BULK_PIECE):
        size = min(_BULK_PIECE, span - start)
        # steps[i] takes t = start + i to the next height; steps[size] is spare
        steps = [0] * (size + 1)
        if hi0 > start:
            steps[0] = 1
            steps[min(hi0 - start, size)] -= 1
        r = nxt[1]
        while r < last:
            low, high = legs[r]
            # the leg h - y, gained at h = h_{r+1} and lost at h = h_r, is
            # in legs[r] for t - start in [low - c, high - c)
            for c, sign in ((heights[r + 1] - top + start, 1), (heights[r] - top + start, -1)):
                lo = low - c if low > c else 0
                hi = high - c if high - c < size else size
                if lo < hi:
                    steps[lo] += sign
                    steps[hi] -= sign
            r = nxt[r + 1]
        dinvs = list(accumulate(accumulate(steps), initial=dinv))
        dinv = dinvs[size]  # the first height of the next piece
        # zip stops at the range: the dinvs of this piece's heights
        _count_elements(counts, zip(dinvs, range(area - start, area - start - size, -1)))


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
