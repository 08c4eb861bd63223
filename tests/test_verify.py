import pytest

from qtcatalan import QtPolynomial, StatTriple, bijection, paths, qtpoly, rankwords
from qtcatalan import stats, verify
from qtcatalan.errors import NotMonotone

from oracles import SWAP_NE

# check name -> (module, function the check guards, fault built from the real one)
PLANTED_FAULTS = {
    "path-count": (paths, "count_paths", lambda real: lambda m, n: real(m, n) + 1),
    # parses the transposed word, so the (n,m)-path comes back
    "serialization-roundtrip": (
        paths, "parse_path", lambda real: lambda w: real(w[::-1].translate(SWAP_NE))
    ),
    "shape-monotone": (paths, "cells_above", lambda real: lambda p: real(p)[::-1]),
    "transpose-involution": (paths, "transpose", lambda real: lambda p: p),
    # the check calls the walk over each orientation, not catalan_bruteforce
    "poly-mn-symmetry": (
        qtpoly, "_walk",
        lambda real: lambda m, n: real(m, n) + QtPolynomial({(m, 0): 1}),
    ),
    # the check calls the unchecked rank, as the cell checks call _arm and _leg
    "rank-positivity": (
        rankwords, "_rank", lambda real: lambda a, b, n: real(a, b, n) - 3
    ),
    "cell-classification": (
        stats, "_cell_label", lambda real: lambda ar, lg, n: stats.CellClass.CONTRIBUTES
    ),
    "stat-identity": (stats, "area", lambda real: lambda p: real(p) + 1),
    "stat-inequalities": (stats, "skips", lambda real: lambda p: real(p) - 1),
    "triple-uniqueness": (
        stats, "stat_triple", lambda real: lambda p: StatTriple(0, 0, p.n - 1)
    ),
    "word-roundtrip": (
        rankwords, "path_from_word",
        lambda real: lambda w: next(paths.enumerate_paths(3, w.n)),
    ),
    "triple-reconstruction": (
        rankwords, "omega", lambda real: lambda a, s, d: real(d, s, a)
    ),
    "triple-realizability": (
        rankwords, "is_valid_triple", lambda real: lambda a, s, d: True
    ),
    "closed-form": (
        qtpoly, "catalan3_closed_form",
        lambda real: lambda n: real(n) + QtPolynomial({(0, 0): 1}),
    ),
    "qt-symmetry": (
        qtpoly, "catalan3_closed_form",
        lambda real: lambda n: real(n) + QtPolynomial({(1, 0): 1}),
    ),
    "involution": (bijection, "involution", lambda real: lambda p: p),
}


def test_a_broken_statistic_is_caught_with_a_counterexample(monkeypatch):
    real_area = stats.area
    monkeypatch.setattr(stats, "area", lambda p: max(real_area(p) - 1, 0))
    results = verify.run_all(max_n=8, max_mn=6)
    failed = [r for r in results if not r.ok]
    assert failed
    assert all(r.counterexample for r in failed)


def test_a_crashing_check_is_reported_not_raised(monkeypatch):
    def boom(p):
        raise RuntimeError("broken")

    monkeypatch.setattr(stats, "dinv", boom)
    results = verify.run_all(max_n=5, max_mn=5)
    failed = [r for r in results if not r.ok]
    assert failed
    assert any("RuntimeError" in (r.counterexample or "") for r in failed)


@pytest.mark.parametrize(
    "name, check, scope", verify.CHECKS, ids=[name for name, _, _ in verify.CHECKS]
)
def test_each_check_catches_a_planted_fault(monkeypatch, name, check, scope):
    module, attr, plant = PLANTED_FAULTS[name]
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    result = check(8 if scope == "n" else 6)
    assert not result.ok
    assert 0 < result.checked
    # a three-column check names n first, a general one its lattice (m,n)
    assert result.counterexample.startswith("n=" if scope == "n" else "(")


def test_each_check_is_declared_once():
    names = [name for name, _, _ in verify.CHECKS]
    assert len(set(names)) == len(names) == len(PLANTED_FAULTS)
    declared = [value for attr, value in vars(verify).items() if attr.startswith("check_")]
    assert [check for _, check, _ in verify.CHECKS] == declared


def test_a_check_keeps_no_state_from_one_run_to_the_next(monkeypatch):
    # triple-uniqueness holds the first heights of each triple for one lattice
    module, attr, plant = PLANTED_FAULTS["triple-uniqueness"]
    real = stats.stat_triple

    def swapped_triple(p):
        # one-to-one, so a run passes, but it records each triple with the
        # heights of another path than a clean run does
        a, s, d = real(p)
        return StatTriple(d, s, a)

    clean = verify.check_triple_uniqueness(8)
    with monkeypatch.context() as patch:
        patch.setattr(module, attr, plant(real))
        planted = verify.check_triple_uniqueness(8)
        patch.setattr(stats, "stat_triple", swapped_triple)
        swapped = verify.check_triple_uniqueness(8)
    assert clean.ok and clean.checked > 0
    assert not planted.ok
    assert swapped == clean
    assert verify.check_triple_uniqueness(8) == clean


def test_a_shared_triple_names_both_paths_and_counts_whole_lattices(monkeypatch):
    module, attr, plant = PLANTED_FAULTS["triple-uniqueness"]
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    result = verify.check_triple_uniqueness(8)
    # the one (3,1)-path, then both (3,2)-paths
    assert (result.checked, result.counterexample) == (
        3, "n=2: (2, 2, 2) shares (0, 0, 1) with (1, 2, 2)"
    )


def test_verify_builds_no_cell(monkeypatch):
    # every cell check walks (column, row) integers, not Cell tuples
    def no_cell(column, row):
        raise AssertionError("verify built a Cell")

    monkeypatch.setattr(paths, "Cell", no_cell)
    for r in verify.run_all(max_n=16, max_mn=10):
        assert r.ok, f"{r.name}: {r.counterexample}"


def test_a_nonpositive_rank_is_named(monkeypatch):
    module, attr, plant = PLANTED_FAULTS["rank-positivity"]
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    result = verify.check_rank_positivity(8)
    assert (result.checked, result.counterexample) == (
        1, "n=2 (1, 2, 2): cell (1, 2) has rank -2"
    )


def test_a_cell_fitting_no_class_is_named(monkeypatch):
    monkeypatch.setattr(paths, "_arm", lambda heights, column, row: 2)
    result = verify.check_cell_classification(8)
    assert result.counterexample.endswith("labels not exclusive")


def test_a_second_column_cell_that_does_not_contribute_is_named(monkeypatch):
    real_arm = paths._arm

    def arm_one_in_column_two(heights, column, row):
        # (2, 4) above (2, 3, 4) then has arm 1 and leg 0 < 4/3 - 1: a short leg
        return 1 if column == 2 else real_arm(heights, column, row)

    monkeypatch.setattr(paths, "_arm", arm_one_in_column_two)
    result = verify.check_cell_classification(8)
    assert result.counterexample == (
        "n=4 (2, 3, 4): cell (2, 4): second column must contribute"
    )


def test_a_dinv_off_by_one_is_named(monkeypatch):
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + 1)
    result = verify.check_cell_classification(8)
    assert not result.ok
    # the path has no cell above it, yet the check counts the path it names
    assert result.checked == 1
    assert result.counterexample.startswith("n=1 (1, 1, 1)")
    assert result.counterexample.endswith("0 contributing cells, dinv 1")


def test_a_fault_in_the_skips_rule_is_named(monkeypatch):
    real_skips = stats._skips

    def one_more_when_k_leads(n, k, ell):
        return real_skips(n, k, ell) + (max(k - n // 3, 0) > ell)

    monkeypatch.setattr(stats, "_skips", one_more_when_k_leads)
    result = verify.check_cell_classification(16)
    assert result.counterexample == "n=2 (1, 2, 2): 0 fenced cells, skips 1"


def test_a_fault_in_the_counts_rule_is_named(monkeypatch):
    def every_t_even(n, s, d):
        t = max(d - n // 3, 0)
        return d - t // 2, t // 2 + s

    monkeypatch.setattr(bijection, "_counts", every_t_even)
    result = verify.check_involution(16)
    assert result.counterexample == "n=5 (2, 5, 5): not an involution"


def test_an_image_in_another_lattice_is_named(monkeypatch):
    monkeypatch.setattr(
        bijection, "involution", lambda p: next(paths.enumerate_paths(3, p.n + 3))
    )
    result = verify.check_involution(8)
    assert result.counterexample == "n=1 (1, 1, 1): image not a path"


def test_a_transpose_image_below_the_diagonal_is_named(monkeypatch):
    # transpose builds its image unchecked, so the check validates it
    monkeypatch.setattr(
        paths, "transpose", lambda p: paths._built(p.n, p.m, (0,) * p.n)
    )
    result = verify.check_transpose(6)
    assert (result.checked, result.counterexample) == (
        1, "(1,1) (1,): raised BelowDiagonal: east step 1 at height 0 dips "
        "below the diagonal (needs >= 1)",
    )


def test_a_statistic_the_transpose_does_not_keep_is_named(monkeypatch):
    # dinv one too high on the lattices with more columns than rows
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + (p.m > p.n))
    result = verify.check_transpose(6)
    assert (result.checked, result.counterexample) == (
        2, "(1,2) (2,): statistics changed"
    )


def test_a_walk_wrong_only_with_more_columns_than_rows_is_named(monkeypatch):
    # catalan_bruteforce never walks that orientation; the check walks both
    real_walk = qtpoly._walk
    monkeypatch.setattr(
        qtpoly, "_walk",
        lambda m, n: real_walk(m, n) + QtPolynomial({(0, 0): int(m > n)}),
    )
    assert qtpoly.catalan_bruteforce(2, 1) == real_walk(1, 2)
    result = verify.check_poly_mn_symmetry(6)
    assert (result.checked, result.counterexample) == (2, "(1,2): C_{m,n} != C_{n,m}")


def test_word_statistics_that_disagree_with_the_triple_are_named(monkeypatch):
    real_count_skips = rankwords.count_skips
    monkeypatch.setattr(rankwords, "count_skips", lambda w: real_count_skips(w) + 1)
    result = verify.check_triple_reconstruction(8)
    assert (result.checked, result.counterexample) == (
        1, "n=1 (1, 1, 1): word statistics disagree"
    )


def test_a_word_position_off_by_one_above_n_is_named(monkeypatch):
    # count_skips reads each boxed rank's place in the word; one place too
    # many above n opens a gap between two neighbouring boxed entries
    real_position = rankwords._position
    monkeypatch.setattr(
        rankwords, "_position", lambda r, n: real_position(r, n) + (r > n)
    )
    result = verify.check_triple_reconstruction(31)
    assert (result.checked, result.counterexample) == (
        4, "n=4 (2, 3, 4): word statistics disagree"
    )


def test_word_roundtrip_names_marked_ranks_outside_the_lattice(monkeypatch):
    # mark_from_path builds its word unchecked, so ranks that are not word
    # ranks reach the comparison with the cell ranks instead of raising; a
    # subclass with other ranges keeps the isinstance checks on derived sets
    class ShiftedRanks(rankwords._TopRanks):
        __slots__ = ()

        def _ranges(self):
            return tuple(range(r.start - 3, r.stop - 3, 3) for r in super()._ranges())

    monkeypatch.setattr(rankwords, "_TopRanks", ShiftedRanks)
    result = verify.check_word_roundtrip(8)
    assert result.counterexample == (
        "n=2 (1, 2, 2): boxed ranks are not the cell ranks"
    )


def test_word_roundtrip_catches_a_rule_shared_by_marking_and_inversion(monkeypatch):
    # boxing the smallest ranks of each color is wrong, but mark_from_path
    # and path_from_word share it, so only the cell ranks can tell
    class BottomRanks(rankwords._TopRanks):
        __slots__ = ()

        def _ranges(self):
            n = self.n
            return (range(2 * n % 3, 2 * n % 3 + 3 * self.k, 3),
                    range(n % 3, n % 3 + 3 * self.ell, 3))

    monkeypatch.setattr(rankwords, "_TopRanks", BottomRanks)
    for p in paths.enumerate_paths(3, 8):
        assert rankwords.path_from_word(rankwords.mark_from_path(p)) == p
    result = verify.check_word_roundtrip(8)
    assert result.counterexample == (
        "n=4 (3, 3, 4): boxed ranks are not the cell ranks"
    )


def test_a_skips_fault_that_breaks_the_involution_names_the_path(monkeypatch):
    # the wrong skips makes the swapped triple unrealizable, so involution
    # and omega raise; the checks report the path instead of raising
    real_skips = stats._skips

    def one_more_when_k_leads(n, k, ell):
        return real_skips(n, k, ell) + (max(k - n // 3, 0) > ell)

    monkeypatch.setattr(stats, "_skips", one_more_when_k_leads)
    involution = verify.check_involution(16)
    assert involution.counterexample.startswith("n=2 (1, 2, 2): raised NotMonotone: ")
    reconstruction = verify.check_triple_reconstruction(16)
    assert reconstruction.counterexample.startswith(
        "n=2 (1, 2, 2): raised InvalidTriple: "
    )
    by_name = {r.name: r for r in verify.run_all(max_n=16, max_mn=6)}
    for name in ("involution", "triple-reconstruction"):
        assert by_name[name].checked > 0
        assert by_name[name].counterexample.startswith("n=2 (1, 2, 2): raised ")


def test_a_value_error_in_any_check_names_the_object(monkeypatch):
    def no_area(p):
        raise NotMonotone("planted")

    monkeypatch.setattr(stats, "area", no_area)
    want = "n=1 (1, 1, 1): raised NotMonotone: planted"
    direct = verify.check_stat_identity(8)
    assert (direct.checked, direct.counterexample) == (1, want)
    by_name = {r.name: r for r in verify.run_all(max_n=8, max_mn=6)}
    assert by_name["stat-identity"].checked > 0
    assert by_name["stat-identity"].counterexample == want
    assert by_name["transpose-involution"].counterexample == (
        "(1,1) (1,): raised NotMonotone: planted"
    )
