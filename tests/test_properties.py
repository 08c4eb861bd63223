"""Property-based checks over randomly drawn instances."""

from itertools import islice
from math import gcd

from hypothesis import assume, example, given, strategies as st

from qtcatalan import (
    DyckPath,
    area,
    count_paths,
    count_skips,
    dinv,
    enumerate_paths,
    is_valid_triple,
    lattice_rank_word,
    mark_from_path,
    omega,
    parse_path,
    path_from_word,
    render_path,
    stat_triple,
    transpose,
    MarkedRankWord,
)

import oracles

COPRIME_PAIRS = sorted(
    (m, n)
    for m in range(1, 9)
    for n in range(1, 9)
    if gcd(m, n) == 1 and m + n <= 12
)


def nth_path(m, n, index):
    return next(islice(enumerate_paths(m, n), index, None))


@given(st.sampled_from(COPRIME_PAIRS), st.integers(min_value=0, max_value=10**6))
def test_transpose_involution_preserves_statistics(pair, seed):
    m, n = pair
    p = nth_path(m, n, seed % count_paths(m, n))
    q = transpose(p)
    assert transpose(q) == p
    assert area(q) == area(p)
    assert dinv(q) == dinv(p)


@given(st.sampled_from(COPRIME_PAIRS), st.integers(min_value=0, max_value=10**6))
def test_serialization_roundtrip(pair, seed):
    m, n = pair
    p = nth_path(m, n, seed % count_paths(m, n))
    assert parse_path(render_path(p)) == p


@st.composite
def bounded_triples(draw):
    """(a, s, d) with s <= a <= 20 and s <= d <= 20: the valid triples
    with parts up to 20, and those whose a + s + d + 1 is a multiple of 3."""
    s = draw(st.integers(min_value=0, max_value=20))
    a = draw(st.integers(min_value=s, max_value=20))
    return a, s, draw(st.integers(min_value=s, max_value=20))


@given(bounded_triples())
def test_valid_triples_reconstruct_exactly(triple):
    a, s, d = triple
    assume((a + s + d + 1) % 3 != 0)
    assert is_valid_triple(a, s, d)
    p = path_from_word(omega(a, s, d))
    assert p.n == a + s + d + 1
    assert tuple(stat_triple(p)) == (a, s, d)


@given(st.sampled_from([2, 4, 5, 7, 8, 10, 11, 13]), st.data())
def test_count_skips_matches_run_oracle(n, data):
    ranks = [e.rank for e in lattice_rank_word(n).entries]
    subset = data.draw(st.sets(st.sampled_from(ranks)) if ranks else st.just(set()))
    word = MarkedRankWord(n, frozenset(subset))
    assert count_skips(word) == oracles.skips_by_runs([e.boxed for e in word.entries])


@given(st.text(alphabet="NE", max_size=14))
def test_parse_accepts_exactly_the_valid_words(word):
    m, n = word.count("E"), word.count("N")
    try:
        p = parse_path(word)
    except ValueError:
        degenerate = m < 1 or n < 1 or gcd(m, n) != 1
        assert degenerate or word not in oracles.paths_by_filter(m, n)
    else:
        assert render_path(p) == word
        assert word in oracles.paths_by_filter(m, n)


def outcome(read, word):
    """What read(word) returns, or the type and message of the error it raises."""
    try:
        return read(word)
    except ValueError as exc:
        return type(exc), str(exc)


# a valid (3,30001)-path of 30,004 steps, and copies with a stray character
# at its start, in its middle and at its end
LONG = "N" * 15000 + "E" + "N" * 10000 + "E" + "N" * 5001 + "E"
LONG_WORDS = [LONG] + [LONG[:i] + "X" + LONG[i + 1:] for i in (0, 15002, len(LONG) - 1)]
STRAYS = ["X", "n", "\u00b2", " ", "\u0301"]


@given(st.text(alphabet="NE") | st.text(alphabet=["N", "E", *STRAYS]))
@example("")
@example(LONG_WORDS[0])
@example(LONG_WORDS[1])
@example(LONG_WORDS[2])
@example(LONG_WORDS[3])
def test_parse_agrees_with_a_scan_one_character_at_a_time(word):
    want = outcome(lambda w: DyckPath(*oracles.heights_by_scan(w)), word)
    assert outcome(parse_path, word) == want


@given(st.sampled_from([n for n in range(1, 20) if n % 3]), st.integers(0, 10**6))
def test_marked_word_statistics_add_up(n, seed):
    p = nth_path(3, n, seed % count_paths(3, n))
    word = mark_from_path(p)
    a, s, d = stat_triple(p)
    assert count_skips(word) == s
    assert len(word) - len(word.boxed) == a
    assert a + s + d == n - 1
