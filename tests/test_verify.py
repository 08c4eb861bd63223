import pytest

from qtcatalan import QtPolynomial, StatTriple, bijection, paths, qtpoly, rankwords
from qtcatalan import stats, verify
from qtcatalan.errors import NotMonotone
from qtcatalan.verify import CheckResult as Result

from oracles import SWAP_NE

CHECK = {name: check for name, check, _ in verify.CHECKS}


def raising(error, message):
    """A fault that raises error(message) whatever it is called with."""
    def fault(*args):
        raise error(message)
    return lambda real: fault


def other_ranks(ranges):
    """A _TopRanks subclass (isinstance still holds) whose _ranges is ranges(self, real's)."""
    return lambda real: type(real.__name__, (real,), {
        "__slots__": (), "_ranges": lambda self: ranges(self, real._ranges(self))})


def one_more_skip_when_k_leads(real):
    return lambda n, k, ell: real(n, k, ell) + (max(k - n // 3, 0) > ell)


def other_pairs(change):
    """A _pair_table whose lists (y0s, y1s, pair_dinv, pair_area, ends) change rewrites."""
    return lambda real: lambda *args: change(*real(*args))


def other_pair_terms(change, lattices=lambda m, n: m == 3):
    """A _pair_dinv whose tables phi, on the lattices that lattices(m, n)
    holds for (the (3,n) lattices by default), change rewrites."""
    return lambda real: lambda m, n: list(change(*real(m, n))) if lattices(m, n) else real(m, n)


# row -> (bound, module, attribute, fault built from the real attribute, the
# whole result under it of the check it names); each check's first row is its name
FAULTS = {
    "path-count": (6, paths, "count_paths", lambda real: lambda m, n: real(m, n) + 1,
                   Result("path-count", 1, "(1,1): enumerated 1, formula 2")),
    # parses the transposed word, so the (n,m)-path comes back
    "serialization-roundtrip": (
        6, paths, "parse_path", lambda real: lambda w: real(w[::-1].translate(SWAP_NE)),
        Result("serialization-roundtrip", 2,
               "(1,2) (2,): parse_path does not invert render_path")),
    "shape-monotone": (6, paths, "cells_above", lambda real: lambda p: real(p)[::-1],
                       Result("shape-monotone", 7, "(2,3) (2, 3): column counts (0, 1)")),
    "transpose-involution": (6, paths, "transpose", lambda real: lambda p: p,
                             Result("transpose-involution", 2,
                                    "(1,2) (2,): transpose is not an involution")),
    # transpose builds its image unchecked, so the check validates it
    "transpose-involution-below-diagonal": (
        6, paths, "transpose", lambda real: lambda p: paths._built(p.n, p.m, (0,) * p.n),
        Result("transpose-involution", 1, "(1,1) (1,): raised BelowDiagonal: east step 1 "
               "at height 0 dips below the diagonal (needs >= 1)")),
    # dinv one too high on the lattices with more columns than rows
    "transpose-involution-dinv": (
        6, stats, "dinv", lambda real: lambda p: real(p) + (p.m > p.n),
        Result("transpose-involution", 2, "(1,2) (2,): statistics changed")),
    "transpose-involution-value-error": (
        6, stats, "area", raising(NotMonotone, "planted"),
        Result("transpose-involution", 1, "(1,1) (1,): raised NotMonotone: planted")),
    # the check calls the walk over each orientation, not catalan_bruteforce
    "poly-mn-symmetry": (
        6, qtpoly, "_walk", lambda real: lambda m, n: real(m, n) + QtPolynomial({(m, 0): 1}),
        Result("poly-mn-symmetry", 2, "(1,2): C_{m,n} != C_{n,m}")),
    # wrong only with more columns than rows, which catalan_bruteforce never walks
    "poly-mn-symmetry-more-columns": (
        6, qtpoly, "_walk",
        lambda real: lambda m, n: real(m, n) + QtPolynomial({(0, 0): int(m > n)}),
        Result("poly-mn-symmetry", 2, "(1,2): C_{m,n} != C_{n,m}")),
    # the two-column count, which only the tall orientation walks, first at
    # (5,6): without the pair term of the bottom two columns, ...
    "poly-mn-symmetry-no-pair-term": (
        14, qtpoly, "_pair_table",
        other_pairs(lambda y0s, y1s, pair_dinv, *rest: (y0s, y1s, [0] * len(pair_dinv), *rest)),
        Result("poly-mn-symmetry", 21, "(5,6): C_{m,n} != C_{n,m}")),
    # ... with each prefix of the pair table one pair short, ...
    "poly-mn-symmetry-short-prefix": (
        14, qtpoly, "_pair_table",
        other_pairs(lambda *lists: (*lists[:-1], [end - 1 for end in lists[-1]])),
        Result("poly-mn-symmetry", 21, "(5,6): C_{m,n} != C_{n,m}")),
    # ... and with each phi_d, d >= 2, read one distance early on the lattices
    # of the two-column count
    "poly-mn-symmetry-phi-one-early": (
        14, stats, "_pair_dinv",
        other_pair_terms(lambda *phi: (*phi[:2], *(table[1:] + table[-1:] for table in phi[2:])),
                         qtpoly._two_columns),
        Result("poly-mn-symmetry", 21, "(5,6): C_{m,n} != C_{n,m}")),
    # the check calls the unchecked rank, as the cell checks call _arm and _leg
    "rank-positivity": (8, rankwords, "_rank", lambda real: lambda a, b, n: real(a, b, n) - 3,
                        Result("rank-positivity", 1, "n=2 (1, 2, 2): cell (1, 2) has rank -2")),
    "rank-positivity-zero": (
        8, rankwords, "_rank", lambda real: lambda a, b, n: real(a, b, n) - 1,
        Result("rank-positivity", 1, "n=2 (1, 2, 2): cell (1, 2) has rank 0")),
    "cell-classification": (
        8, stats, "_cell_label", lambda real: lambda ar, lg, n: stats.CellClass.CONTRIBUTES,
        Result("cell-classification", 8, "n=4 (3, 3, 4): 0 fenced cells, skips 1")),
    "cell-classification-no-class": (
        8, paths, "_arm", lambda real: lambda heights, column, row: 2,
        Result("cell-classification", 1, "n=2 (1, 2, 2): cell (1, 2): labels not exclusive")),
    # (2, 4) above (2, 3, 4) gets arm 1 and leg 0 < 4/3 - 1: a short leg
    "cell-classification-second-column": (
        8, paths, "_arm",
        lambda real: lambda heights, column, row: 1 if column == 2 else real(heights, column, row),
        Result("cell-classification", 4,
               "n=4 (2, 3, 4): cell (2, 4): second column must contribute")),
    "cell-classification-skips": (
        16, stats, "_skips", one_more_skip_when_k_leads,
        Result("cell-classification", 1, "n=2 (1, 2, 2): 0 fenced cells, skips 1")),
    "stat-identity": (8, stats, "area", lambda real: lambda p: real(p) + 1,
                      Result("stat-identity", 1, "n=1 (1, 1, 1): 1+0+0 != 0")),
    "stat-identity-value-error": (
        8, stats, "area", raising(NotMonotone, "planted"),
        Result("stat-identity", 1, "n=1 (1, 1, 1): raised NotMonotone: planted")),
    "stat-inequalities": (8, stats, "skips", lambda real: lambda p: real(p) - 1,
                          Result("stat-inequalities", 1, "n=1 (1, 1, 1): triple (0,-1,0)")),
    "stat-inequalities-area-with-fenced-cells": (
        8, stats, "area", lambda real: lambda p: real(p) + stats.skips(p),
        Result("stat-inequalities", 6, "n=4 (3, 3, 4): triple (2,1,1)")),
    # the one (3,1)-path, then both (3,2)-paths
    "triple-uniqueness": (
        8, stats, "stat_triple", lambda real: lambda p: StatTriple(0, 0, p.n - 1),
        Result("triple-uniqueness", 3, "n=2: (2, 2, 2) shares (0, 0, 1) with (1, 2, 2)")),
    "word-roundtrip": (
        8, rankwords, "path_from_word", lambda real: lambda w: next(paths.enumerate_paths(3, w.n)),
        Result("word-roundtrip", 3, "n=2 (2, 2, 2): path_from_word does not invert the marking")),
    # mark_from_path builds its word unchecked, so ranks that are not word
    # ranks reach the comparison with the cell ranks instead of raising
    "word-roundtrip-shifted": (
        8, rankwords, "_TopRanks",
        other_ranks(lambda top, ranges: tuple(range(r.start - 3, r.stop - 3, 3) for r in ranges)),
        Result("word-roundtrip", 2, "n=2 (1, 2, 2): boxed ranks are not the cell ranks")),
    # boxing the smallest ranks of each color is wrong, but mark_from_path
    # and path_from_word share it, so only the cell ranks can tell
    "word-roundtrip-bottom": (
        8, rankwords, "_TopRanks",
        other_ranks(lambda top, ranges: (range(2 * top.n % 3, 2 * top.n % 3 + 3 * top.k, 3),
                                         range(top.n % 3, top.n % 3 + 3 * top.ell, 3))),
        Result("word-roundtrip", 6, "n=4 (3, 3, 4): boxed ranks are not the cell ranks")),
    "triple-reconstruction": (
        8, rankwords, "omega", lambda real: lambda a, s, d: real(d, s, a),
        Result("triple-reconstruction", 2, "n=2 (1, 2, 2): omega(0,0,1) differs")),
    "triple-reconstruction-count-skips": (
        8, rankwords, "count_skips", lambda real: lambda w: real(w) + 1,
        Result("triple-reconstruction", 1, "n=1 (1, 1, 1): word statistics disagree")),
    # count_skips reads each boxed rank's place in the word; one place too
    # many above n opens a gap between two neighbouring boxed entries
    "triple-reconstruction-position": (
        31, rankwords, "_position", lambda real: lambda r, n: real(r, n) + (r > n),
        Result("triple-reconstruction", 4, "n=4 (2, 3, 4): word statistics disagree")),
    # the wrong skips makes the swapped triple unrealizable: omega and involution raise
    "triple-reconstruction-skips": (
        16, stats, "_skips", one_more_skip_when_k_leads,
        Result("triple-reconstruction", 2, "n=2 (1, 2, 2): raised InvalidTriple: "
               "no path has area=0, skips=1, dinv=1")),
    "triple-realizability": (8, rankwords, "is_valid_triple", lambda real: lambda a, s, d: True,
                             Result("triple-realizability", 3, "n=2: mismatch at (0, 1, 0)")),
    "closed-form": (8, qtpoly, "catalan3_closed_form",
                    lambda real: lambda n: real(n) + QtPolynomial({(0, 0): 1}),
                    Result("closed-form", 1, "n=1: brute force and closed form differ")),
    # the one-column count reads every dinv term from the phi tables, first
    # at (3,4): with phi_1 read one distance late, ...
    "closed-form-pair-term-one-late": (
        31, stats, "_pair_dinv",
        other_pair_terms(lambda phi0, phi1, phi2: (phi0, [0] + phi1[:-1], phi2)),
        Result("closed-form", 3, "n=4: brute force and closed form differ")),
    # ... and with phi_2's table one distance short of those the walk reads
    "closed-form-last-table-one-short": (
        31, stats, "_pair_dinv",
        other_pair_terms(lambda phi0, phi1, phi2: (phi0, phi1, phi2[:-1])),
        Result("closed-form", 3, "n=4: brute force and closed form differ")),
    "qt-symmetry": (8, qtpoly, "catalan3_closed_form",
                    lambda real: lambda n: real(n) + QtPolynomial({(1, 0): 1}),
                    Result("qt-symmetry", 1, "n=1: closed form not symmetric in q and t")),
    "involution": (8, bijection, "involution", lambda real: lambda p: p,
                   Result("involution", 2, "n=2 (1, 2, 2): triple not swapped")),
    "involution-other-lattice": (
        8, bijection, "involution", lambda real: lambda p: next(paths.enumerate_paths(3, p.n + 3)),
        Result("involution", 1, "n=1 (1, 1, 1): image not a path")),
    # every t even: t = max(d - n // 3, 0) splits as t // 2 and t // 2
    "involution-counts": (
        16, bijection, "_counts",
        lambda real: lambda n, s, d: (d - max(d - n // 3, 0) // 2, max(d - n // 3, 0) // 2 + s),
        Result("involution", 10, "n=5 (2, 5, 5): not an involution")),
    "involution-skips": (
        16, stats, "_skips", one_more_skip_when_k_leads,
        Result("involution", 2, "n=2 (1, 2, 2): raised NotMonotone: "
               "heights must weakly increase within 0..2: (2, 1, 2)")),
}


@pytest.mark.parametrize("bound, module, attr, plant, want", FAULTS.values(), ids=FAULTS)
def test_each_check_catches_a_planted_fault(monkeypatch, bound, module, attr, plant, want):
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    assert CHECK[want.name](bound) == want


def test_each_check_is_declared_once():
    names = [name for name, _, _ in verify.CHECKS]
    assert len(set(names)) == len(names)
    # the rows name every declared check and no other, each first by its name
    assert {want.name for *_, want in FAULTS.values()} == set(names) <= FAULTS.keys()
    declared = [value for attr, value in vars(verify).items() if attr.startswith("check_")]
    assert [check for _, check, _ in verify.CHECKS] == declared


@pytest.mark.parametrize("plant", [None, FAULTS["stat-identity-value-error"][1:4],
                                   (stats, "dinv", raising(RuntimeError, "broken"))],
                         ids=["no-fault", "value-error", "runtime-error"])
def test_run_all_gives_each_checks_own_result(monkeypatch, plant):
    if plant:
        module, attr, build = plant
        monkeypatch.setattr(module, attr, build(getattr(module, attr)))
    want = []
    for name, check, scope in verify.CHECKS:
        try:
            want.append(check(8 if scope == "n" else 6))
        except RuntimeError:  # no ValueError, so the check lets it through
            want.append(Result(name, 0, "raised RuntimeError: broken"))
    assert verify.run_all(max_n=8, max_mn=6) == want


def test_a_check_keeps_no_state_from_one_run_to_the_next(monkeypatch):
    # triple-uniqueness holds the first heights of each triple for one lattice
    bound, module, attr, plant, want = FAULTS["triple-uniqueness"]
    real = stats.stat_triple

    def swapped_triple(p):
        # one-to-one, so a run passes, but it records each triple with the
        # heights of another path than a clean run does
        a, s, d = real(p)
        return StatTriple(d, s, a)

    clean = verify.check_triple_uniqueness(bound)
    with monkeypatch.context() as patch:
        patch.setattr(module, attr, plant(real))
        planted = verify.check_triple_uniqueness(bound)
        patch.setattr(stats, "stat_triple", swapped_triple)
        swapped = verify.check_triple_uniqueness(bound)
    assert clean == Result("triple-uniqueness", 42)
    assert planted == want
    assert swapped == clean
    assert verify.check_triple_uniqueness(bound) == clean


def test_two_faults_hide_from_the_library_and_not_from_verify(monkeypatch):
    # marking and inversion share the bottom-ranks rule; catalan_bruteforce never walks m > n
    real_walk = qtpoly._walk
    for row in ("word-roundtrip-bottom", "poly-mn-symmetry-more-columns"):
        _, module, attr, plant, _ = FAULTS[row]
        monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    for p in paths.enumerate_paths(3, 8):
        assert rankwords.path_from_word(rankwords.mark_from_path(p)) == p
    assert qtpoly.catalan_bruteforce(2, 1) == real_walk(1, 2)


def test_verify_builds_no_cell(monkeypatch):
    # every cell check walks (column, row) integers, not Cell tuples
    def no_cell(column, row):
        raise AssertionError("verify built a Cell")

    monkeypatch.setattr(paths, "Cell", no_cell)
    for r in verify.run_all(max_n=16, max_mn=10):
        assert r.ok, f"{r.name}: {r.counterexample}"
