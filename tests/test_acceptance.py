"""Acceptance suite: one test per numbered criterion, all exact.

Criteria 1 and 3-10 run the `qtcatalan verify` checks at the bounds
stated here; the assertions verify has no check for (the worked
examples, the classical n = 4 polynomial, triples whose n is a multiple
of 3) live here.  Each test prints a single PASS/FAIL line (visible with
pytest -s, or in captured output on failure).  Time budgets are
asserted where stated.
"""

import time

from qtcatalan import (
    StatTriple,
    catalan3_closed_form,
    catalan_bruteforce,
    is_valid_triple,
    lattice_rank_word,
    mark_from_path,
    omega,
    render_word,
    stat_triple,
)
from qtcatalan import verify

from oracles import CLASSICAL_C3, PI1, PI2


def report(num, name, failures, detail=""):
    ok = not failures
    tail = failures[0] if failures else detail
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({tail})" if tail else ""))
    assert ok, f"criterion {num} ({name}): {tail}"


def accept(num, name, checks, budget_s=None, extra=()):
    """Run (check, bound) pairs from verify and report them as one criterion."""
    start = time.perf_counter()
    results = [check(bound) for check, bound in checks]
    elapsed = time.perf_counter() - start
    failures = [f"{r.name}: {r.counterexample}" for r in results if not r.ok]
    failures += [f"{r.name}: nothing checked" for r in results if not r.checked]
    failures += extra
    if budget_s is not None and elapsed >= budget_s:
        failures.append(f"took {elapsed:.1f}s, budget {budget_s}s")
    checked = ", ".join(f"{r.name} {r.checked}" for r in results)
    report(num, name, failures, f"{checked}; {elapsed:.2f}s")


def test_criterion_01_path_counts_match_formula():
    accept(1, "path counts, m+n <= 18", [(verify.check_path_counts, 18)], 10)


def test_criterion_02_worked_examples():
    failures = []
    if tuple(stat_triple(PI1)) != (3, 2, 2):
        failures.append(f"PI1 triple {tuple(stat_triple(PI1))}")
    if tuple(stat_triple(PI2)) != (5, 1, 1):
        failures.append(f"PI2 triple {tuple(stat_triple(PI2))}")
    if sorted(mark_from_path(PI1).boxed) != [2, 5, 10, 13]:
        failures.append(f"PI1 boxed {sorted(mark_from_path(PI1).boxed)}")
    if sorted(mark_from_path(PI2).boxed) != [5, 13]:
        failures.append(f"PI2 boxed {sorted(mark_from_path(PI2).boxed)}")
    if render_word(lattice_rank_word(5)) != "1_1 2_2 4_1 7_1":
        failures.append(f"rk(L_3,5) = {render_word(lattice_rank_word(5))}")
    report(2, "worked examples", failures)


def test_criterion_03_statistics_sum_to_n_minus_1():
    accept(3, "area + skips + dinv = n - 1, n <= 31",
           [(verify.check_stat_identity, 31)], 5)


def test_criterion_04_reconstruction_matches_marking():
    accept(4, "omega(stat_triple) = marked word, n <= 31",
           [(verify.check_triple_reconstruction, 31)])


def test_criterion_05_triple_validity_iff_realizable():
    # triples whose n is a multiple of 3 must be invalid outright
    wrongly_valid = [
        f"({a},{s},{d}) wrongly valid"
        for a, s, d in [(2, 2, 4), (0, 0, 2), (5, 0, 0)]
        if is_valid_triple(a, s, d)
    ]
    accept(5, "valid triples = realized triples, n <= 31",
           [(verify.check_triple_realizability, 31)], extra=wrongly_valid)


def test_criterion_06_closed_form_equals_bruteforce():
    failures = []
    if catalan3_closed_form(4) != CLASSICAL_C3:
        failures.append("n=4 is not the classical polynomial")
    if catalan_bruteforce(3, 4) != CLASSICAL_C3:
        failures.append("brute force at n=4 is not the classical polynomial")
    accept(6, "closed form = brute force, n <= 31",
           [(verify.check_closed_form, 31)], extra=failures)


def test_criterion_07_qt_symmetry_and_involution():
    accept(7, "q,t-symmetry (n <= 100) and involution (n <= 31)",
           [(verify.check_qt_symmetry, 100), (verify.check_involution, 31)], 10)


def test_criterion_08_mn_symmetry_of_the_polynomial():
    accept(8, "C(m,n) = C(n,m), m+n <= 16", [(verify.check_poly_mn_symmetry, 16)])


def test_criterion_09_cell_classification():
    accept(9, "cell classification, n <= 16",
           [(verify.check_cell_classification, 16)])


def test_criterion_10_inequality_suite():
    accept(10, "inequality suite, n <= 31", [(verify.check_stat_inequalities, 31)])


def test_worked_triples_are_valid_and_their_words_realizable():
    # cross-check tying criteria 2, 4 and 5 together on the examples
    for p, triple in [(PI1, (3, 2, 2)), (PI2, (5, 1, 1))]:
        assert stat_triple(p) == StatTriple(*triple)
        assert is_valid_triple(*triple)
        assert omega(*triple) == mark_from_path(p)
