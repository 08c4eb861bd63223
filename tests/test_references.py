"""The library against its independent references (tests/oracles.py), from two tables.

REFERENCES maps a row name to (objects, library, reference): on every x
that objects() yields (paths, lattices, row counts, triples or words),
library(x) must equal reference(x).  POLYS maps a row name to (lattices,
reference): under each count of the walk's bottom columns (ROUTES),
qtpoly._walk(m, n) and catalan_bruteforce(m, n) must equal reference(m, n)
on every lattice.  A new reference is one row.
"""

import importlib.util
import random
import sys
from collections import Counter
from itertools import chain
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

import oracles
from qtcatalan import (
    Cell, DyckPath, MarkedRankWord, QtPolynomial, area, arm, catalan3_closed_form,
    catalan_bruteforce, count_skips, dinv, enumerate_paths, involution, is_valid_triple,
    lattice_rank_word, leg, make_path, mark_from_path, omega, path_from_word, qtpoly,
    render_path, shape_cells, skips, stat_triple, transpose,
)
from qtcatalan.stats import _pair_dinv


def paths_of(lattices):
    return chain.from_iterable(enumerate_paths(m, n) for m, n in lattices)


def three_column_paths(max_n):
    return paths_of((3, n) for n in oracles.row_counts(max_n))


def valid_triples(max_total):
    return (t for t in oracles.triples(max_total) if is_valid_triple(*t))


def cell_area(p):
    return oracles.area_by_cells(p.m, p.n, p.east_heights)


def heights_of(lattice):
    return [p.east_heights for p in enumerate_paths(*lattice)]


def dinv_and_area(p):
    return dinv(p), area(p)


def dinv_by_phi(p):
    """Each column a's dinv as the sum over b > a of phi_{b-a}(y_b - y_a),
    the identity the brute-force walk reads."""
    phi, y = _pair_dinv(p.m, p.n), p.east_heights
    return [sum(phi[b - a][y[b] - y[a]] for b in range(a + 1, p.m)) for a in range(p.m)]


def validated(x):
    """x built again by its checking constructor, and its hash: the values
    made unchecked must equal, and hash like, the checked ones."""
    if isinstance(x, DyckPath):
        x = make_path(x.m, x.n, x.east_heights)
    else:
        x = MarkedRankWord(x.n, x.boxed)
    return x, hash(x)


def rebuilt_from_the_word(p):
    a, s, d = stat_triple(p)
    return path_from_word(omega(d, s, a))


def a_long_path_both_ways():
    """A seeded (3,30001)-path and its (30001,3) image, which transpose
    takes back in one step per column."""
    rng = random.Random(12)
    n = 30001
    y1 = rng.randint(-(-n // 3), n)
    p = make_path(3, n, [y1, rng.randint(max(y1, -(-2 * n // 3)), n), n])
    return [p, oracles.transpose_by_word(p)]


REFERENCES = {
    # area is a sum of heights minus a constant of the lattice: the constant
    # on every lattice with m + n <= 16, and on the edge lattices m = 1 and n = 1
    "area-by-cells": (lambda: paths_of([*oracles.coprime_pairs(16), (1100, 1), (1, 1100)]),
                      area, cell_area),
    "dinv-by-cells": (lambda: paths_of(oracles.coprime_pairs(15)), dinv,
                      lambda p: oracles.dinv_by_cells(p.m, p.n, p.east_heights)),
    "dinv-of-each-column-by-phi": (lambda: paths_of(oracles.coprime_pairs(16)), dinv_by_phi,
                                   oracles.dinv_cells_by_column),
    "dinv-by-contributing-cells": (
        lambda: (make_path(3, 30001, h) for h in [(10001, 20001, 30001), (12345, 29000, 30001)]),
        dinv, lambda p: sum(oracles.dinv_cells_by_column(p))),
    # a third route to dinv, sharing nothing with the arm/leg intervals
    "dinv-by-the-sweep-map": (lambda: paths_of(oracles.coprime_pairs(18)), dinv,
                              lambda p: cell_area(oracles.sweep(p))),
    "sweep-map-permutes-each-lattice": (
        lambda: oracles.coprime_pairs(18), heights_of,
        lambda mn: sorted(oracles.sweep(p).east_heights for p in enumerate_paths(*mn))),
    # verify's transpose-involution covers m + n <= 16; these lie beyond it
    "transpose-keeps-area-and-dinv": (lambda: paths_of([(3, 14), (3, 16)]),
                                      lambda p: dinv_and_area(transpose(p)), dinv_and_area),
    "enumeration-by-step-words": (
        lambda: oracles.coprime_pairs(12),
        lambda mn: sorted(render_path(p) for p in enumerate_paths(*mn)),
        lambda mn: sorted(oracles.paths_by_filter(*mn))),
    # (6,23) has more paths than one block takes, (7,30) runs the prefix
    # odometer over several columns, and on the wide (1099,2) and (2001,2)
    # a block holds a few paths and the table a few suffixes
    "enumeration-by-the-odometer": (
        lambda: [*oracles.coprime_pairs(22), (1100, 1), (1, 50), (2, 1001), (6, 23), (7, 30),
                 (1099, 2), (2001, 2)],
        heights_of, lambda mn: list(oracles.heights_by_odometer(*mn))),
    "arm-and-leg-by-cells": (
        lambda: paths_of(oracles.coprime_pairs(12)),
        lambda p: {(type(x), *x): (arm(p, x), leg(p, x)) for x in shape_cells(p)},
        lambda p: {(Cell, *x): arm_leg
                   for x, arm_leg in oracles.arms_and_legs(p.m, p.n, p.east_heights).items()}),
    "transpose-by-the-step-word": (
        lambda: chain(paths_of(oracles.coprime_pairs(16)),
                      paths_of(mn for n in range(1, 41) for mn in ((1, n), (n, 1))),
                      a_long_path_both_ways()),
        transpose, oracles.transpose_by_word),
    "unchecked-paths-are-genuine": (
        lambda: (q for p in paths_of(oracles.coprime_pairs(14)) for q in (p, transpose(p))),
        lambda x: (x, hash(x)), validated),
    "rank-word-by-sorting": (lambda: oracles.row_counts(99),
                             lambda n: [(e.rank, e.color) for e in lattice_rank_word(n).entries],
                             oracles.rank_word_by_sorting),
    "marking-by-cells": (lambda: three_column_paths(99), lambda p: mark_from_path(p).boxed,
                         lambda p: oracles.marking_by_cells(p.n, p.east_heights)),
    "unchecked-words-are-genuine": (
        lambda: chain(map(mark_from_path, three_column_paths(99)),
                      (omega(*t) for t in valid_triples(78))),
        lambda x: (x, hash(x)), validated),
    # both residues of n, the one- and two-entry words among them
    "skips-by-runs-on-every-marking": (
        lambda: (MarkedRankWord(n, b) for n in (1, 2, 4, 5, 7, 8, 10, 11, 13)
                 for b in oracles.every_marking(n)),
        count_skips, lambda w: oracles.skips_by_runs([e.boxed for e in w.entries])),
    # n < 64 reaches K = max(k - n // 3, 0) both at most and above ell, for
    # both residues of n
    "skips-by-the-fenced-runs": (
        lambda: chain(three_column_paths(63), oracles.large_three_column_paths()),
        skips, lambda p: count_skips(mark_from_path(p))),
    # n < 80 covers t = max(d - n // 3, 0) zero, even and odd
    "omega-by-the-walk": (lambda: valid_triples(78), lambda t: omega(*t).boxed,
                          lambda t: oracles.omega_by_walk(*t)),
    "involution-through-the-word": (
        lambda: chain(three_column_paths(63), oracles.large_three_column_paths()),
        involution, rebuilt_from_the_word),
    "validity-swapping-area-and-dinv": (lambda: oracles.triples(20),
                                        lambda t: is_valid_triple(*t),
                                        lambda t: is_valid_triple(*t[::-1])),
}


@pytest.mark.parametrize("row", REFERENCES)
def test_the_library_equals_its_reference(row):
    objects, library, reference = REFERENCES[row]
    for x in objects():
        assert library(x) == reference(x), f"{row}: first difference at {x!r}"


def qt_sum(pairs):
    """The sum of q^dinv t^area over (dinv, area) pairs."""
    return QtPolynomial(Counter(pairs))


# the walk's two counts of its bottom columns, each forced on every lattice
# as the rule for the two-column count: the bottom two columns from the pair
# table (wherever m > 2), or the bottom one
ROUTES = {"pairs": lambda m, n: m > 2, "column": lambda m, n: False}

POLYS = {
    # step words filtered point by point, dinv and area cell by cell: no line
    # of the library's path, dinv or area code is shared
    "oracle-sum": (oracles.coprime_pairs(13), lambda m, n: qt_sum(
        (oracles.dinv_by_cells(*h), oracles.area_by_cells(*h))
        for h in map(oracles.heights_by_scan, oracles.paths_by_filter(m, n)))),
    # dinv as the area of the sweep map's image: no arm, leg or straddle interval
    "sweep-sum": (oracles.coprime_pairs(18), lambda m, n: qt_sum(
        (cell_area(oracles.sweep(p)), cell_area(p)) for p in enumerate_paths(m, n))),
    "path-statistics": ([(m, n) for m in range(1, 10) for n in range(1, 10) if gcd(m, n) == 1],
                        lambda m, n: qt_sum(map(dinv_and_area, enumerate_paths(m, n)))),
    "closed-form": ([(3, n) for n in oracles.row_counts(61)],
                    lambda m, n: catalan3_closed_form(n)),
    # the walk over the other orientation, beyond verify's m + n <= 16
    "mn-symmetry": ([(10, 11), (8, 23), (5, 41)], lambda m, n: qtpoly._walk(n, m)),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("row", POLYS)
def test_the_walk_equals_each_polynomial_reference(monkeypatch, row, route):
    lattices, reference = POLYS[row]
    monkeypatch.setattr(qtpoly, "_two_columns", ROUTES[route])
    for m, n in lattices:
        want = reference(m, n)
        assert qtpoly._walk(m, n) == want, f"{row}, {route} count: _walk({m}, {n})"
        assert catalan_bruteforce(m, n) == want, f"{row}, {route} count: ({m}, {n})"


def test_the_benchmark_loads_the_oracles_it_judges_by():
    # as bench/workloads.load_oracles does, by the file's path, here where
    # neither pytest nor hypothesis can be imported
    spec = importlib.util.spec_from_file_location("oracles", Path(__file__).with_name("oracles.py"))
    loaded = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"pytest": None, "hypothesis": None}):
        spec.loader.exec_module(loaded)
    heights = oracles.PI1.east_heights
    for name in ("area_by_cells", "dinv_by_cells"):
        assert getattr(loaded, name)(3, 8, heights) == getattr(oracles, name)(3, 8, heights)
    flags = [e.boxed for e in mark_from_path(oracles.PI1).entries]
    assert loaded.skips_by_runs(flags) == oracles.skips_by_runs(flags)
