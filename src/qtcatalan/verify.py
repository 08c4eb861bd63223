"""Exhaustive desk-scale checks of every structural claim in the package.

Each check is one declaration, @_check(name, objects) on a fault: a
function that says what is wrong with one object, or returns None, and
keeps no state across objects.  objects is one of the streams in
_STREAMS (lattices, paths or values of n), which fixes the bound the
check takes and how a counterexample names an object: max_mn bounds m+n
for the general-(m,n) streams, max_n bounds n for the three-column ones.
The declaration puts check_<name>(bound) in the fault's place and
appends (name, check, scope) to CHECKS, so CHECKS lists the checks in
the order they are declared.  One loop, _scan, runs every check: it
counts what it visits, stops at the first counterexample, names the
object in it, and reports a ValueError the library raises on an object
(every error it raises on a bad value is one) as that object's
counterexample.  Everything is exact; there are no tolerances.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, repeat, starmap
from math import gcd
from operator import lt

from . import bijection, paths, qtpoly, rankwords, stats
from .errors import EmptyBound


class CheckResult(paths._Value):
    """The outcome of one check: its name, the objects it visited, and the
    first counterexample, or None when every object passed.  An immutable
    value, like a path."""

    __slots__ = ("name", "checked", "counterexample")

    def __init__(self, name: str, checked: int, counterexample: str | None = None) -> None:
        for set_field, value in zip(self._setters, (name, checked, counterexample)):
            set_field(self, value)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _coprime_pairs(max_mn: int):
    for total in range(2, max_mn + 1):
        for m in range(1, total):
            n = total - m
            if gcd(m, n) == 1:
                yield m, n


def _ordered_pairs(max_mn: int):
    return ((m, n) for m, n in _coprime_pairs(max_mn) if m <= n)


def _three_column_ns(max_n: int):
    return (n for n in range(1, max_n + 1) if n % 3 != 0)


# the path streams chain in C: generator expressions read +0.8% ref_wall_s on verify
# (BENCH_41.json)
def _mn_paths(max_mn: int):
    return chain.from_iterable(starmap(paths.enumerate_paths, _coprime_pairs(max_mn)))


def _three_column_paths(max_n: int):
    return chain.from_iterable(map(paths.enumerate_paths, repeat(3), _three_column_ns(max_n)))


_PAIR = "({0[0]},{0[1]})"
# stream -> (the bound it takes, how a counterexample names its object)
_STREAMS = {
    _coprime_pairs: ("mn", _PAIR),
    _ordered_pairs: ("mn", _PAIR),
    _mn_paths: ("mn", "({0.m},{0.n}) {0.east_heights}"),
    _three_column_paths: ("n", "n={0.n} {0.east_heights}"),
    _three_column_ns: ("n", "n={0}"),
}

# (name, check, which bound it takes), in declaration order
CHECKS: list[tuple[str, Callable[[int], CheckResult], str]] = []


def _cell_count(p) -> int:
    """The cells above p, n - y_a in each column a."""
    return p.m * p.n - sum(p.east_heights)


def _scan(name: str, objects, fault, where: str, size=None) -> CheckResult:
    """Count objects up to and including the first counterexample.

    fault(obj) describes what is wrong with obj, or returns None; the
    counterexample is where.format(obj) followed by that problem.  size(obj)
    is what obj adds to the count (one object by default); the object a
    counterexample names adds at least one, even when its size is 0.
    """
    checked = 0
    for obj in objects:
        adds = 1 if size is None else size(obj)
        checked += adds
        try:
            problem = fault(obj)
        except ValueError as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            return CheckResult(name, checked + (adds == 0), f"{where.format(obj)}: {problem}")
    return CheckResult(name, checked)


def _check(name: str, objects, size=None):
    """Declare the decorated fault as the check name over objects(bound).

    size is _scan's.  The fault reads one object and keeps nothing after
    it, so a check is a function of its bound alone.
    """
    scope, where = _STREAMS[objects]

    def declare(fault) -> Callable[[int], CheckResult]:
        def check(bound: int) -> CheckResult:
            return _scan(name, objects(bound), fault, where, size)

        check.__name__, check.__qualname__ = fault.__name__, fault.__qualname__
        check.__doc__ = fault.__doc__
        CHECKS.append((name, check, scope))
        return check
    return declare


@_check("path-count", _coprime_pairs)
def check_path_counts(pair):
    """Enumeration size equals binomial(m+n, m) / (m+n)."""
    seen = sum(1 for _ in paths.enumerate_paths(*pair))
    want = paths.count_paths(*pair)
    if seen != want:
        return f"enumerated {seen}, formula {want}"


@_check("serialization-roundtrip", _mn_paths)
def check_serialization(p):
    """parse_path inverts render_path on every path."""
    if paths.parse_path(paths.render_path(p)) != p:
        return "parse_path does not invert render_path"


@_check("shape-monotone", _mn_paths)
def check_shape_monotone(p):
    """cells_above always yields weakly decreasing column counts."""
    counts = paths.cells_above(p)
    if any(map(lt, counts, counts[1:])):
        return f"column counts {counts}"


@_check("transpose-involution", _mn_paths)
def check_transpose(p):
    """transpose gives a genuine path, is an involution, preserves area and dinv."""
    q = paths.transpose(p)
    paths.DyckPath(q.m, q.n, q.east_heights)  # transpose builds q unchecked
    if (q.m, q.n) != (p.n, p.m) or paths.transpose(q) != p:
        return "transpose is not an involution"
    if stats.area(q) != stats.area(p) or stats.dinv(q) != stats.dinv(p):
        return "statistics changed"


@_check("poly-mn-symmetry", _ordered_pairs)
def check_poly_mn_symmetry(pair):
    """C_{m,n}(q,t) = C_{n,m}(q,t), by the walk over each orientation.

    catalan_bruteforce walks only the side with fewer columns, so the
    check calls the walk itself: two walks, not one walk twice.
    """
    m, n = pair
    if qtpoly._walk(m, n) != qtpoly._walk(n, m):
        return "C_{m,n} != C_{n,m}"


@_check("rank-positivity", _three_column_paths, _cell_count)
def check_rank_positivity(p):
    """Every cell above a (3,n)-path has positive rank."""
    rank, n = rankwords._rank, p.n
    for column, rows in paths._cell_rows(p.east_heights, n):
        for row in rows:
            r = rank(column, row, n)
            if r <= 0:
                return f"cell {(column, row)} has rank {r}"


@_check("cell-classification", _three_column_paths, _cell_count)
def check_cell_classification(p):
    """Each above-path cell gets one label; the label counts match skips and dinv."""
    arm, leg, label_of = paths._arm, paths._leg, stats._cell_label
    contributes_label = stats.CellClass.CONTRIBUTES
    heights, n = p.east_heights, p.n
    fenced = contributing = 0
    for column, rows in paths._cell_rows(heights, n):
        for row in rows:
            try:
                ar, lg = arm(heights, column, row), leg(heights, column, row)
                label = label_of(ar, lg, n)
            except AssertionError:
                return f"cell {(column, row)}: labels not exclusive"
            contributes = label is contributes_label
            if column == 2 and not contributes:
                return f"cell {(column, row)}: second column must contribute"
            fenced += not contributes
            contributing += contributes
    if fenced != stats.skips(p):
        return f"{fenced} fenced cells, skips {stats.skips(p)}"
    d = stats.dinv(p)
    if contributing != d:
        return f"{contributing} contributing cells, dinv {d}"


@_check("stat-identity", _three_column_paths)
def check_stat_identity(p):
    """area + skips + dinv = n - 1."""
    a, s, d = stats.stat_triple(p)
    if a + s + d != p.n - 1:
        return f"{a}+{s}+{d} != {p.n - 1}"


@_check("stat-inequalities", _three_column_paths)
def check_stat_inequalities(p):
    """0 <= skips < n/3 and skips <= dinv, area <= n-1-2*skips."""
    a, s, d = stats.stat_triple(p)
    top = p.n - 1 - 2 * s
    if s < 0 or 3 * s >= p.n or not s <= d <= top or not s <= a <= top:
        return f"triple ({a},{s},{d})"


@_check("triple-uniqueness", _three_column_ns, lambda n: paths.count_paths(3, n))
def check_triple_uniqueness(n):
    """Distinct paths of one lattice carry distinct triples."""
    seen = {}  # each triple -> the heights of the first path with it
    for p in paths.enumerate_paths(3, n):
        t = tuple(stats.stat_triple(p))
        first = seen.setdefault(t, p.east_heights)
        if first != p.east_heights:
            return f"{p.east_heights} shares {t} with {first}"


@_check("word-roundtrip", _three_column_paths)
def check_word_roundtrip(p):
    """mark_from_path boxes the cell ranks, and path_from_word inverts it."""
    word = rankwords.mark_from_path(p)
    rank, n = rankwords._rank, p.n
    cells = {rank(column, row, n) for column, rows in paths._cell_rows(p.east_heights, n)
             for row in rows}
    if word.boxed != cells:
        return "boxed ranks are not the cell ranks"
    if rankwords.path_from_word(word) != p:
        return "path_from_word does not invert the marking"


@_check("triple-reconstruction", _three_column_paths)
def check_triple_reconstruction(p):
    """omega rebuilds each path's word; unboxed entries count the area."""
    word = rankwords.mark_from_path(p)
    a, s, d = stats.stat_triple(p)
    if rankwords.omega(a, s, d) != word:
        return f"omega({a},{s},{d}) differs"
    unboxed = len(word) - len(word.boxed)
    if unboxed != a or rankwords.count_skips(word) != s:
        return "word statistics disagree"


@_check("triple-realizability", _three_column_ns, lambda n: paths.count_paths(3, n))
def check_triple_realizability(n):
    """Valid triples and realized triples are the same sets.

    Each n counts its paths: as many as its valid triples when this check
    and triple-uniqueness pass.
    """
    realized = {tuple(stats.stat_triple(p)) for p in paths.enumerate_paths(3, n)}
    triples = ((a, s, n - 1 - a - s) for a in range(n) for s in range(n - a))
    valid = {t for t in triples if rankwords.is_valid_triple(*t)}
    if realized != valid:
        return f"mismatch at {min(realized ^ valid)}"


@_check("closed-form", _three_column_ns)
def check_closed_form(n):
    """Brute-force summation agrees with the closed form."""
    if qtpoly.catalan_bruteforce(3, n) != qtpoly.catalan3_closed_form(n):
        return "brute force and closed form differ"


@_check("qt-symmetry", _three_column_ns)
def check_qt_symmetry(n):
    """The closed form is symmetric in q and t."""
    if not qtpoly.is_qt_symmetric(qtpoly.catalan3_closed_form(n)):
        return "closed form not symmetric in q and t"


@_check("involution", _three_column_paths)
def check_involution(p):
    """involution swaps area and dinv, fixes skips, and squares to the identity."""
    q = bijection.involution(p)
    paths.DyckPath(q.m, q.n, q.east_heights)  # involution builds q unchecked
    if (q.m, q.n) != (3, p.n):
        return "image not a path"
    a, s, d = stats.stat_triple(p)
    if tuple(stats.stat_triple(q)) != (d, s, a):
        return "triple not swapped"
    if bijection.involution(q) != p:
        return "not an involution"


def run_all(max_n: int = 16, max_mn: int = 12) -> list[CheckResult]:
    """Run every check; a check that raises counts as a failure.

    Bounds that select no lattice (max_n < 1, max_mn < 2) raise EmptyBound.
    """
    if max_n < 1:
        raise EmptyBound(f"max_n must be at least 1 to select a lattice, got {max_n}")
    if max_mn < 2:
        raise EmptyBound(f"max_mn must be at least 2 to select a lattice, got {max_mn}")
    results = []
    for name, func, scope in CHECKS:
        bound = max_mn if scope == "mn" else max_n
        try:
            results.append(func(bound))
        except Exception as exc:
            results.append(
                CheckResult(name, 0, f"raised {type(exc).__name__}: {exc}")
            )
    return results
