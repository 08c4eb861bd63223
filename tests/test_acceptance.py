"""Acceptance suite: the ten numbered criteria, all exact, as rows of one table.

ACCEPTANCE maps a criterion's number to a Criterion: its name, the
`qtcatalan verify` checks it runs at the bounds stated there, its time
budget where one is stated, and the values verify has no check for (the
worked examples, the classical n = 4 polynomial, triples whose n is a
multiple of 3).  One test runs each row and prints a single line,
`ACCEPTANCE NN name: PASS` or `FAIL` (visible with pytest -s, or in
captured output on failure), and fails naming the criterion.  A new
criterion is one row.
"""

import time
from functools import partial
from typing import Callable, NamedTuple

import pytest

from qtcatalan import (
    catalan3_closed_form, catalan_bruteforce, is_valid_triple, lattice_rank_word, mark_from_path,
    render_word, stat_triple, verify,
)

from oracles import CLASSICAL_C3, PI1, PI2


class Criterion(NamedTuple):
    """checks holds (verify check, bound) pairs, and pins (label, call,
    value) triples: call() must return value."""

    name: str
    checks: tuple[tuple[Callable, int], ...] = ()
    budget_s: float | None = None
    pins: tuple[tuple[str, Callable[[], object], object], ...] = ()


ACCEPTANCE = {
    1: Criterion("path counts, m+n <= 18", ((verify.check_path_counts, 18),), 10),
    2: Criterion("worked examples", pins=(
        ("PI1 triple", lambda: tuple(stat_triple(PI1)), (3, 2, 2)),
        ("PI2 triple", lambda: tuple(stat_triple(PI2)), (5, 1, 1)),
        ("PI1 boxed", lambda: sorted(mark_from_path(PI1).boxed), [2, 5, 10, 13]),
        ("PI2 boxed", lambda: sorted(mark_from_path(PI2).boxed), [5, 13]),
        ("rk(L_3,5) =", lambda: render_word(lattice_rank_word(5)), "1_1 2_2 4_1 7_1"),
    )),
    3: Criterion("area + skips + dinv = n - 1, n <= 31", ((verify.check_stat_identity, 31),), 5),
    4: Criterion("omega(stat_triple) = marked word, n <= 31",
                 ((verify.check_triple_reconstruction, 31),)),
    # triples whose n is a multiple of 3 must be invalid outright
    5: Criterion("valid triples = realized triples, n <= 31",
                 ((verify.check_triple_realizability, 31),),
                 pins=tuple((f"({a},{s},{d}) valid", partial(is_valid_triple, a, s, d), False)
                            for a, s, d in [(2, 2, 4), (0, 0, 2), (5, 0, 0)])),
    6: Criterion("closed form = brute force, n <= 31", ((verify.check_closed_form, 31),), pins=(
        ("closed form at n=4", lambda: catalan3_closed_form(4), CLASSICAL_C3),
        ("brute force at n=4", lambda: catalan_bruteforce(3, 4), CLASSICAL_C3),
    )),
    7: Criterion("q,t-symmetry (n <= 100) and involution (n <= 31)",
                 ((verify.check_qt_symmetry, 100), (verify.check_involution, 31)), 10),
    8: Criterion("C(m,n) = C(n,m), m+n <= 16", ((verify.check_poly_mn_symmetry, 16),)),
    9: Criterion("cell classification, n <= 16", ((verify.check_cell_classification, 16),)),
    10: Criterion("inequality suite, n <= 31", ((verify.check_stat_inequalities, 31),)),
}


@pytest.mark.parametrize("num", ACCEPTANCE, ids="{:02d}".format)
def test_criterion(num):
    name, checks, budget_s, pins = ACCEPTANCE[num]
    start = time.perf_counter()
    results = [check(bound) for check, bound in checks]
    pinned = [(label, call(), value) for label, call, value in pins]
    elapsed = time.perf_counter() - start
    failures = [f"{r.name}: {r.counterexample}" for r in results if not r.ok]
    failures += [f"{r.name}: nothing checked" for r in results if not r.checked]
    failures += [f"{label} {got!r}" for label, got, value in pinned if got != value]
    if budget_s is not None and elapsed >= budget_s:
        failures.append(f"took {elapsed:.1f}s, budget {budget_s}s")
    visited = [f"{r.name} {r.checked}" for r in results] + [f"{len(pins)} values"] * bool(pins)
    detail = failures[0] if failures else f"{', '.join(visited)}; {elapsed:.2f}s"
    print(f"ACCEPTANCE {num:2d} {name}: {'FAIL' if failures else 'PASS'} ({detail})")
    assert not failures, f"criterion {num} ({name}): {detail}"
