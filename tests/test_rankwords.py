import random
from unittest import mock

import pytest

from qtcatalan import chunks, cli, rankwords
from qtcatalan import (
    MarkedRankWord,
    NotRealizable,
    RankEntry,
    boxed_counts,
    count_skips,
    enumerate_paths,
    lattice_rank_word,
    mark_from_path,
    omega,
    path_from_word,
    rank,
    render_word,
    stat_triple,
)

import oracles
from oracles import PI1


def test_third_column_ranks_are_negative():
    for n in (2, 5, 8, 11):
        for b in range(1, n + 1):
            assert rank(3, b, n) < 0


# each entry as "rank color boxed", so a listing can be read back
KIND_TEMPLATES = {(c, b): f"%d {c} {b:d}" for c in (1, 2) for b in (False, True)}
BOXED_TEMPLATES = {(1, True): "%d", (2, True): "%d"}


def test_listing_reads_the_sorted_cell_ranks_and_any_marking():
    rng = random.Random(3)
    for n in range(1, 100):
        if n % 3 == 0:
            continue
        word = oracles.rank_word_by_sorting(n)
        ranks = [r for r, _ in word]
        markings = [frozenset(), frozenset(ranks)]
        markings += [frozenset(rng.sample(ranks, rng.randint(0, len(ranks)))) for _ in range(4)]
        for boxed in markings:
            w = MarkedRankWord(n, boxed)
            assert all(c for cs, _ in rankwords._runs(w) for c in cs)  # none empty
            # chunks of a few entries, so that the runs span many of them
            with mock.patch.object(chunks, "CHARS", rng.randint(1, 40)):
                text = "".join(rankwords._formatted(w, KIND_TEMPLATES, ";"))
                only_boxed = "".join(rankwords._formatted(w, BOXED_TEMPLATES, ", "))
            listed = [tuple(map(int, entry.split())) for entry in text.split(";") if entry]
            assert [(r, color) for r, color, _ in listed] == word
            assert [b for _, _, b in listed] == [r in boxed for r in ranks]
            assert w.entries == tuple(RankEntry(r, c, bool(b)) for r, c, b in listed)
            # a kind without a template is left out: the boxed ranks, sorted
            assert only_boxed == ", ".join(map(str, sorted(boxed)))


def test_color_counts_and_right_block_structure():
    # the rightmost ceil(n/3) entries are color 1; to their left the
    # colors alternate starting with 2
    for n in range(1, 32):
        if n % 3 == 0:
            continue
        pairs = [(e.rank, e.color) for e in lattice_rank_word(n).entries]
        assert len(pairs) == n - 1
        assert sum(1 for _, c in pairs if c == 2) == n // 3
        assert sum(1 for _, c in pairs if c == 1) == 2 * n // 3
        assert pairs == sorted(pairs)
        block = -(-n // 3)
        if n > 1:
            assert all(c == 1 for _, c in pairs[len(pairs) - block:])
            want = 2
            for _, c in reversed(pairs[: len(pairs) - block]):
                assert c == want
                want = 3 - want


def word_forms(w):
    """Everything the library reads off a word, its path or its NotRealizable."""
    try:
        path = path_from_word(w)
    except NotRealizable as exc:
        path = str(exc)
    record = "".join(cli._json(cli._word_record(w)))
    return (render_word(w), w.entries, boxed_counts(w), count_skips(w), record, path,
            sorted(w.boxed), len(w.boxed))


def test_a_derived_word_is_the_word_of_the_same_ranks():
    # the boxed set of a derived word is its counts (k, ell); k up to the
    # number of color-1 ranks puts the threshold 2n - 3k on each side of n
    for n in range(1, 41):
        if n % 3 == 0:
            continue
        word = oracles.rank_word_by_sorting(n)
        ones, twos = ([r for r, color in reversed(word) if color == c] for c in (1, 2))
        for k in range(len(ones) + 1):
            for ell in range(len(twos) + 1):
                derived = rankwords._derived(n, k, ell)
                plain = MarkedRankWord(n, frozenset(ones[:k] + twos[:ell]))
                for w in (derived, plain):  # at most 4 progressions, none empty
                    runs = list(rankwords._runs(w))
                    assert len(runs) <= 4, (n, k, ell)
                    assert all(c for cs, _ in runs for c in cs), (n, k, ell)
                assert derived == plain and plain == derived, (n, k, ell)
                assert derived.boxed == plain.boxed and plain.boxed == derived.boxed
                assert hash(derived) == hash(plain), (n, k, ell)
                assert hash(derived.boxed) == hash(plain.boxed), (n, k, ell)
                assert word_forms(derived) == word_forms(plain), (n, k, ell)
                if k < ell:
                    with pytest.raises(NotRealizable):
                        path_from_word(derived)
                other = rankwords._TopRanks(n, k + 1, ell)
                assert derived.boxed != other and other != plain.boxed


def test_derived_boxed_sets_compare_as_sets():
    # across row counts, different counts can box the same ranks: {1} is
    # the top color-2 rank of 4 rows and the top color-1 rank of 2 rows
    assert rankwords._TopRanks(4, 0, 1) == rankwords._TopRanks(2, 1, 0) == {1}
    assert rankwords._TopRanks(4, 0, 0) == rankwords._TopRanks(5, 0, 0) == set()
    assert rankwords._TopRanks(5, 1, 0) != rankwords._TopRanks(4, 1, 0)
    boxed = mark_from_path(PI1).boxed  # {2, 5, 10, 13}
    assert 13 in boxed and 5 in boxed and 7 not in boxed and 16 not in boxed
    assert 13.0 in boxed and "13" not in boxed
    assert boxed | {7} == {2, 5, 7, 10, 13} and isinstance(boxed - {2}, frozenset)
    assert boxed <= {2, 5, 10, 13} and {2, 5, 10, 13} >= boxed
    # builtin sets and any other Set, in both operand orders, and equal
    # sets hash alike
    for kind in (set, frozenset, lambda ranks: dict.fromkeys(ranks).keys()):
        same, more, fewer = (kind(r) for r in ({2, 5, 10, 13}, {2, 5, 7, 10, 13}, {5, 10, 13}))
        assert boxed == same and same == boxed and not boxed != same and not same != boxed
        assert hash(boxed) == hash(frozenset(same))
        for other in (more, fewer, kind({2, 5, 10, 16})):
            assert boxed != other and other != boxed
            assert not boxed == other and not other == boxed
        # counts past a color's length: 4 rows have only the color-1 ranks 2
        # and 5, so these show the comparison counts k + ell, not the ranks read
        past = rankwords._TopRanks(4, 3, 0)
        assert past != kind({5}) and kind({5}) != past
        assert past != kind({2, 5}) and kind({2, 5}) != past


def test_top_ranks_are_a_consistent_set_past_the_color_counts():
    # the unchecked constructor takes counts past a color's length, and its
    # len, iteration and set must still agree: _TopRanks(4, 3, 0) is three ranks
    for n in range(1, 21):
        if n % 3 == 0:
            continue
        for k in range(2 * n // 3 + 3):
            for ell in range(n // 3 + 3):
                top = rankwords._TopRanks(n, k, ell)
                assert len(top) == len(list(top)) == len(set(top)), (n, k, ell)


def test_marked_word_rejects_foreign_ranks():
    for n in (1, 2, 4, 5, 7, 8):
        ranks = {r for r, _ in oracles.rank_word_by_sorting(n)}
        for r in range(-3 * n, 3 * n + 1):
            if r in ranks:
                assert MarkedRankWord(n, frozenset({r})).boxed == {r}
            else:
                with pytest.raises(ValueError):
                    MarkedRankWord(n, frozenset({r}))


def test_path_from_word_inverts_marking_on_every_boxed_subset():
    words = 0
    for n in (2, 4, 5, 7, 8, 10):
        marked = {mark_from_path(p): p for p in enumerate_paths(3, n)}
        for boxed in oracles.every_marking(n):
            word = MarkedRankWord(n, boxed)
            words += 1
            if word in marked:
                assert path_from_word(word) == marked[word]
            else:
                with pytest.raises(NotRealizable):
                    path_from_word(word)
    assert words == 730


def test_omega_roundtrips_at_a_thousand_rows():
    for n in (1000, 1001):
        top = (n - 1) // 3
        for s in {0, 1, top // 2, top}:
            for a in {s, (n - 1 - s) // 2, n - 1 - 2 * s}:
                t = (a, s, n - 1 - a - s)
                assert stat_triple(path_from_word(omega(*t))) == t
