"""Exhaustive desk-scale checks of every structural claim in the package.

Each check is a stream of objects (lattices, paths or values of n) and a
fault that says what is wrong with one of them.  One loop, _scan, runs
every check: it counts what it visits, stops at the first counterexample,
names the object in it, and reports a ValueError the library raises on an
object (every error it raises on a bad value is one) as that object's
counterexample.  Everything is exact; there are no tolerances.  max_mn
bounds m+n for the general-(m,n) checks, max_n bounds n for the
three-column checks.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from . import bijection, paths, qtpoly, rankwords, stats
from .errors import EmptyBound


class CheckResult(paths._Record):
    """The outcome of one check: its name, the objects it visited, and the
    first counterexample, or None when every object passed.  A mutable
    record, equal by its fields and so unhashable."""

    __slots__ = ("name", "checked", "counterexample")

    def __init__(self, name: str, checked: int, counterexample: str | None = None) -> None:
        self.name, self.checked, self.counterexample = name, checked, counterexample

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _coprime_pairs(max_mn: int):
    for total in range(2, max_mn + 1):
        for m in range(1, total):
            n = total - m
            if gcd(m, n) == 1:
                yield m, n


def _three_column_ns(max_n: int):
    return (n for n in range(1, max_n + 1) if n % 3 != 0)


def _mn_paths(max_mn: int):
    for m, n in _coprime_pairs(max_mn):
        yield from paths.enumerate_paths(m, n)


def _three_column_paths(max_n: int):
    for n in _three_column_ns(max_n):
        yield from paths.enumerate_paths(3, n)


# how a counterexample names its object: a (3,n)-path, an (m,n)-path, a
# lattice (m,n), or n
_PATH3 = "n={0.n} {0.east_heights}"
_PATH = "({0.m},{0.n}) {0.east_heights}"
_PAIR = "({0[0]},{0[1]})"
_N = "n={0}"


def _cell_count(p) -> int:
    return sum(paths.cells_above(p))


def _scan(name: str, objects, fault, where=_PATH3, size=None) -> CheckResult:
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


def check_path_counts(max_mn: int) -> CheckResult:
    """Enumeration size equals binomial(m+n, m) / (m+n)."""
    def fault(pair):
        seen = sum(1 for _ in paths.enumerate_paths(*pair))
        want = paths.count_paths(*pair)
        if seen != want:
            return f"enumerated {seen}, formula {want}"
    return _scan("path-count", _coprime_pairs(max_mn), fault, _PAIR)


def check_serialization(max_mn: int) -> CheckResult:
    """parse_path inverts render_path on every path."""
    def fault(p):
        if paths.parse_path(paths.render_path(p)) != p:
            return "parse_path does not invert render_path"
    return _scan("serialization-roundtrip", _mn_paths(max_mn), fault, _PATH)


def check_shape_monotone(max_mn: int) -> CheckResult:
    """cells_above always yields weakly decreasing column counts."""
    def fault(p):
        counts = paths.cells_above(p)
        if any(lo < hi for lo, hi in zip(counts, counts[1:])):
            return f"column counts {counts}"
    return _scan("shape-monotone", _mn_paths(max_mn), fault, _PATH)


def check_transpose(max_mn: int) -> CheckResult:
    """transpose gives a genuine path, is an involution, preserves area and dinv."""
    def fault(p):
        q = paths.transpose(p)
        paths.make_path(q.m, q.n, q.east_heights)  # transpose builds q unchecked
        if (q.m, q.n) != (p.n, p.m) or paths.transpose(q) != p:
            return "transpose is not an involution"
        if stats.area(q) != stats.area(p) or stats.dinv(q) != stats.dinv(p):
            return "statistics changed"
    return _scan("transpose-involution", _mn_paths(max_mn), fault, _PATH)


def check_poly_mn_symmetry(max_mn: int) -> CheckResult:
    """C_{m,n}(q,t) = C_{n,m}(q,t), by the walk over each orientation.

    catalan_bruteforce walks only the side with fewer columns, so the
    check calls the walk itself: two walks, not one walk twice.
    """
    def fault(pair):
        m, n = pair
        if qtpoly._walk(m, n) != qtpoly._walk(n, m):
            return "C_{m,n} != C_{n,m}"
    pairs = ((m, n) for m, n in _coprime_pairs(max_mn) if m <= n)
    return _scan("poly-mn-symmetry", pairs, fault, _PAIR)


def check_rank_positivity(max_n: int) -> CheckResult:
    """Every cell above a (3,n)-path has positive rank."""
    def fault(p):
        for column, row in paths._cell_pairs(p.east_heights, p.n):
            r = rankwords.rank(column, row, p.n)
            if r <= 0:
                return f"cell {(column, row)} has rank {r}"
    return _scan("rank-positivity", _three_column_paths(max_n), fault, size=_cell_count)


def check_cell_classification(max_n: int) -> CheckResult:
    """Each above-path cell gets one label; the label counts match skips and dinv."""
    arm, leg, label_of = paths._arm, paths._leg, stats._cell_label
    contributes_label = stats.CellClass.CONTRIBUTES

    def fault(p):
        heights, n = p.east_heights, p.n
        fenced = contributing = 0
        for column, row in paths._cell_pairs(heights, n):
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
    paths3 = _three_column_paths(max_n)
    return _scan("cell-classification", paths3, fault, size=_cell_count)


def check_stat_identity(max_n: int) -> CheckResult:
    """area + skips + dinv = n - 1."""
    def fault(p):
        a, s, d = stats.stat_triple(p)
        if a + s + d != p.n - 1:
            return f"{a}+{s}+{d} != {p.n - 1}"
    return _scan("stat-identity", _three_column_paths(max_n), fault)


def check_stat_inequalities(max_n: int) -> CheckResult:
    """0 <= skips < n/3 and skips <= dinv, area <= n-1-2*skips."""
    def fault(p):
        a, s, d = stats.stat_triple(p)
        top = p.n - 1 - 2 * s
        if s < 0 or 3 * s >= p.n or not s <= d <= top or not s <= a <= top:
            return f"triple ({a},{s},{d})"
    return _scan("stat-inequalities", _three_column_paths(max_n), fault)


def check_triple_uniqueness(max_n: int) -> CheckResult:
    """Distinct paths of one lattice carry distinct triples."""
    seen: dict[tuple[int, stats.StatTriple], tuple[int, ...]] = {}  # first heights

    def fault(p):
        t = stats.stat_triple(p)
        first = seen.setdefault((p.n, t), p.east_heights)
        if first != p.east_heights:
            return f"shares {tuple(t)} with {first}"
    return _scan("triple-uniqueness", _three_column_paths(max_n), fault)


def check_word_roundtrip(max_n: int) -> CheckResult:
    """mark_from_path boxes the cell ranks, and path_from_word inverts it."""
    def fault(p):
        word = rankwords.mark_from_path(p)
        pairs = paths._cell_pairs(p.east_heights, p.n)
        cells = {rankwords.rank(column, row, p.n) for column, row in pairs}
        if word.boxed != cells:
            return "boxed ranks are not the cell ranks"
        if rankwords.path_from_word(word) != p:
            return "path_from_word does not invert the marking"
    return _scan("word-roundtrip", _three_column_paths(max_n), fault)


def check_triple_reconstruction(max_n: int) -> CheckResult:
    """omega rebuilds each path's word; unboxed entries count the area."""
    def fault(p):
        word = rankwords.mark_from_path(p)
        a, s, d = stats.stat_triple(p)
        if rankwords.omega(a, s, d) != word:
            return f"omega({a},{s},{d}) differs"
        unboxed = len(word) - len(word.boxed)
        if unboxed != a or rankwords.count_skips(word) != s:
            return "word statistics disagree"
    return _scan("triple-reconstruction", _three_column_paths(max_n), fault)


def check_triple_realizability(max_n: int) -> CheckResult:
    """Valid triples and realized triples are the same sets.

    Each n counts its paths: as many as its valid triples when this check
    and triple-uniqueness pass.
    """
    def fault(n):
        realized = {tuple(stats.stat_triple(p)) for p in paths.enumerate_paths(3, n)}
        triples = ((a, s, n - 1 - a - s) for a in range(n) for s in range(n - a))
        valid = {t for t in triples if rankwords.is_valid_triple(*t)}
        if realized != valid:
            return f"mismatch at {min(realized ^ valid)}"
    ns = _three_column_ns(max_n)
    return _scan("triple-realizability", ns, fault, _N, partial(paths.count_paths, 3))


def check_closed_form(max_n: int) -> CheckResult:
    """Brute-force summation agrees with the closed form."""
    def fault(n):
        if qtpoly.catalan_bruteforce(3, n) != qtpoly.catalan3_closed_form(n):
            return "brute force and closed form differ"
    return _scan("closed-form", _three_column_ns(max_n), fault, _N)


def check_qt_symmetry(max_n: int) -> CheckResult:
    """The closed form is symmetric in q and t."""
    def fault(n):
        if not qtpoly.is_qt_symmetric(qtpoly.catalan3_closed_form(n)):
            return "closed form not symmetric in q and t"
    return _scan("qt-symmetry", _three_column_ns(max_n), fault, _N)


def check_involution(max_n: int) -> CheckResult:
    """involution swaps area and dinv, fixes skips, and squares to the identity."""
    def fault(p):
        q = bijection.involution(p)
        paths.make_path(q.m, q.n, q.east_heights)  # involution builds q unchecked
        if (q.m, q.n) != (3, p.n):
            return "image not a path"
        a, s, d = stats.stat_triple(p)
        if tuple(stats.stat_triple(q)) != (d, s, a):
            return "triple not swapped"
        if bijection.involution(q) != p:
            return "not an involution"
    return _scan("involution", _three_column_paths(max_n), fault)


# (name, check, which bound it takes)
CHECKS = [
    ("path-count", check_path_counts, "mn"),
    ("serialization-roundtrip", check_serialization, "mn"),
    ("shape-monotone", check_shape_monotone, "mn"),
    ("transpose-involution", check_transpose, "mn"),
    ("poly-mn-symmetry", check_poly_mn_symmetry, "mn"),
    ("rank-positivity", check_rank_positivity, "n"),
    ("cell-classification", check_cell_classification, "n"),
    ("stat-identity", check_stat_identity, "n"),
    ("stat-inequalities", check_stat_inequalities, "n"),
    ("triple-uniqueness", check_triple_uniqueness, "n"),
    ("word-roundtrip", check_word_roundtrip, "n"),
    ("triple-reconstruction", check_triple_reconstruction, "n"),
    ("triple-realizability", check_triple_realizability, "n"),
    ("closed-form", check_closed_form, "n"),
    ("qt-symmetry", check_qt_symmetry, "n"),
    ("involution", check_involution, "n"),
]


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
