"""Exhaustive desk-scale checks of every structural claim in the package.

Each check scans all relevant objects up to the given bounds and records
the first counterexample, if any.  Everything is exact; there are no
tolerances.  max_mn bounds m+n for the general-(m,n) checks, max_n
bounds n for the three-column checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import bijection, paths, qtpoly, rankwords, stats
from .errors import EmptyBound


@dataclass
class CheckResult:
    name: str
    checked: int
    counterexample: str | None = None

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


def _scan(name: str, objects, fault) -> CheckResult:
    """Count objects up to and including the first counterexample.

    fault(obj) describes what is wrong with obj, or returns None.
    """
    checked = 0
    for obj in objects:
        checked += 1
        problem = fault(obj)
        if problem is not None:
            return CheckResult(name, checked, problem)
    return CheckResult(name, checked)


def _names_the_path(fault):
    """Wrap fault(p, where), where naming the (3,n)-path p.

    A ValueError it raises (every error the library raises on a bad value
    is one) becomes p's counterexample, so the scan names the path.
    """
    def named(p):
        where = f"n={p.n} {p.east_heights}"
        try:
            return fault(p, where)
        except ValueError as exc:
            return f"{where}: raised {type(exc).__name__}: {exc}"
    return named


def check_path_counts(max_mn: int) -> CheckResult:
    """Enumeration size equals binomial(m+n, m) / (m+n)."""
    def fault(pair):
        m, n = pair
        seen = sum(1 for _ in paths.enumerate_paths(m, n))
        want = paths.count_paths(m, n)
        if seen != want:
            return f"({m},{n}): enumerated {seen}, formula {want}"
    return _scan("path-count", _coprime_pairs(max_mn), fault)


def check_serialization(max_mn: int) -> CheckResult:
    """parse_path inverts render_path on every path."""
    def fault(p):
        if paths.parse_path(paths.render_path(p)) != p:
            return f"{p.east_heights}"
    return _scan("serialization-roundtrip", _mn_paths(max_mn), fault)


def check_shape_monotone(max_mn: int) -> CheckResult:
    """cells_above always yields weakly decreasing column counts."""
    def fault(p):
        counts = paths.cells_above(p)
        if any(lo < hi for lo, hi in zip(counts, counts[1:])):
            return f"{p}: {counts}"
    return _scan("shape-monotone", _mn_paths(max_mn), fault)


def check_transpose(max_mn: int) -> CheckResult:
    """transpose is an involution preserving area and dinv."""
    def fault(p):
        q = paths.transpose(p)
        if (q.m, q.n) != (p.n, p.m) or paths.transpose(q) != p:
            return f"{p.east_heights}"
        if stats.area(q) != stats.area(p) or stats.dinv(q) != stats.dinv(p):
            return f"({p.m},{p.n}) {p.east_heights}: statistics changed"
    return _scan("transpose-involution", _mn_paths(max_mn), fault)


def check_poly_mn_symmetry(max_mn: int) -> CheckResult:
    """catalan_bruteforce(m,n) = catalan_bruteforce(n,m)."""
    def fault(pair):
        m, n = pair
        if qtpoly.catalan_bruteforce(m, n) != qtpoly.catalan_bruteforce(n, m):
            return f"({m},{n})"
    pairs = ((m, n) for m, n in _coprime_pairs(max_mn) if m <= n)
    return _scan("poly-mn-symmetry", pairs, fault)


def check_rank_positivity(max_n: int) -> CheckResult:
    """Every cell above a (3,n)-path has positive rank."""
    def fault(cell):
        n, x = cell
        if rankwords.rank(x.column, x.row, n) <= 0:
            return f"n={n} cell {tuple(x)}"
    cells = ((p.n, x) for p in _three_column_paths(max_n) for x in paths.shape_cells(p))
    return _scan("rank-positivity", cells, fault)


def check_cell_classification(max_n: int) -> CheckResult:
    """Each above-path cell gets one label; the label counts match skips and dinv."""
    name = "cell-classification"
    checked = 0
    for p in _three_column_paths(max_n):
        where = f"n={p.n} {p.east_heights}"
        fenced = contributing = 0
        for x in paths.shape_cells(p):
            checked += 1
            try:
                label = stats.classify_nondinv_cell(p, x)
            except AssertionError:
                return CheckResult(
                    name, checked, f"{where} cell {tuple(x)}: labels not exclusive"
                )
            contributes = label is stats.CellClass.CONTRIBUTES
            if x.column == 2 and not contributes:
                return CheckResult(
                    name,
                    checked,
                    f"{where} cell {tuple(x)}: second column must contribute",
                )
            fenced += not contributes
            contributing += contributes
        if fenced != stats.skips(p):
            return CheckResult(
                name, checked, f"{where}: {fenced} fenced cells, skips {stats.skips(p)}"
            )
        d = stats.dinv(p)
        if contributing != d:
            return CheckResult(
                name, checked, f"{where}: {contributing} contributing cells, dinv {d}"
            )
    return CheckResult(name, checked)


def check_stat_identity(max_n: int) -> CheckResult:
    """area + skips + dinv = n - 1."""
    def fault(p):
        a, s, d = stats.stat_triple(p)
        if a + s + d != p.n - 1:
            return f"n={p.n} {p.east_heights}: {a}+{s}+{d} != {p.n - 1}"
    return _scan("stat-identity", _three_column_paths(max_n), fault)


def check_stat_inequalities(max_n: int) -> CheckResult:
    """0 <= skips < n/3 and skips <= dinv, area <= n-1-2*skips."""
    def fault(p):
        a, s, d = stats.stat_triple(p)
        top = p.n - 1 - 2 * s
        if s < 0 or 3 * s >= p.n or not s <= d <= top or not s <= a <= top:
            return f"n={p.n} {p.east_heights}: triple ({a},{s},{d})"
    return _scan("stat-inequalities", _three_column_paths(max_n), fault)


def check_triple_uniqueness(max_n: int) -> CheckResult:
    """Distinct paths of one lattice carry distinct triples."""
    def lattice_paths():  # each path beside the triples seen so far in its lattice
        for n in _three_column_ns(max_n):
            seen: dict[stats.StatTriple, paths.DyckPath] = {}
            for p in paths.enumerate_paths(3, n):
                yield p, seen

    def fault(item):
        p, seen = item
        t = stats.stat_triple(p)
        first = seen.setdefault(t, p)
        if first is not p:
            pair = f"{first.east_heights} and {p.east_heights}"
            return f"n={p.n}: {pair} share {tuple(t)}"
    return _scan("triple-uniqueness", lattice_paths(), fault)


def check_word_roundtrip(max_n: int) -> CheckResult:
    """mark_from_path boxes the cell ranks, and path_from_word inverts it."""
    def fault(p):
        word = rankwords.mark_from_path(p)
        cells = {rankwords.rank(x.column, x.row, p.n) for x in paths.shape_cells(p)}
        if word.boxed != cells:
            return f"n={p.n} {p.east_heights}: boxed ranks are not the cell ranks"
        if rankwords.path_from_word(word) != p:
            return f"n={p.n} {p.east_heights}"
    return _scan("word-roundtrip", _three_column_paths(max_n), fault)


def check_triple_reconstruction(max_n: int) -> CheckResult:
    """omega rebuilds each path's word; unboxed entries count the area."""
    @_names_the_path
    def fault(p, where):
        word = rankwords.mark_from_path(p)
        a, s, d = stats.stat_triple(p)
        if rankwords.omega(a, s, d) != word:
            return f"{where}: omega({a},{s},{d}) differs"
        unboxed = len(word) - len(word.boxed)
        if unboxed != a or rankwords.count_skips(word) != s:
            return f"{where}: word statistics disagree"
    return _scan("triple-reconstruction", _three_column_paths(max_n), fault)


def check_triple_realizability(max_n: int) -> CheckResult:
    """Valid triples and realized triples are the same sets."""
    checked = 0
    for n in _three_column_ns(max_n):
        realized = {tuple(stats.stat_triple(p)) for p in paths.enumerate_paths(3, n)}
        triples = ((a, s, n - 1 - a - s) for a in range(n) for s in range(n - a))
        valid = {t for t in triples if rankwords.is_valid_triple(*t)}
        checked += len(valid)
        if realized != valid:
            diff = realized.symmetric_difference(valid)
            return CheckResult(
                "triple-realizability", checked, f"n={n}: mismatch at {sorted(diff)[0]}"
            )
    return CheckResult("triple-realizability", checked)


def check_closed_form(max_n: int) -> CheckResult:
    """Brute-force summation agrees with the closed form."""
    def fault(n):
        if qtpoly.catalan_bruteforce(3, n) != qtpoly.catalan3_closed_form(n):
            return f"n={n}"
    return _scan("closed-form", _three_column_ns(max_n), fault)


def check_qt_symmetry(max_n: int) -> CheckResult:
    """The closed form is symmetric in q and t."""
    def fault(n):
        if not qtpoly.is_qt_symmetric(qtpoly.catalan3_closed_form(n)):
            return f"n={n}"
    return _scan("qt-symmetry", _three_column_ns(max_n), fault)


def check_involution(max_n: int) -> CheckResult:
    """involution swaps area and dinv, fixes skips, and squares to the identity."""
    @_names_the_path
    def fault(p, where):
        q = bijection.involution(p)
        if (q.m, q.n) != (3, p.n):
            return f"{where}: image not a path"
        a, s, d = stats.stat_triple(p)
        if tuple(stats.stat_triple(q)) != (d, s, a):
            return f"{where}: triple not swapped"
        if bijection.involution(q) != p:
            return f"{where}: not an involution"
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
