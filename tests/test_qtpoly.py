import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from qtcatalan import paths as paths_module
from qtcatalan import chunks, cli, qtpoly
from qtcatalan import (
    BadResidue,
    NotCoprime,
    QtPolynomial,
    catalan3_closed_form,
    catalan_bruteforce,
)


def test_addition_and_equality_are_exact():
    p = QtPolynomial({(1, 0): 1, (0, 1): 1})
    q = QtPolynomial({(0, 1): 2})
    assert p + q == QtPolynomial({(1, 0): 1, (0, 1): 3})
    # a term of the right operand that the left one lacks
    assert QtPolynomial({(1, 0): 1}) + q == QtPolynomial({(1, 0): 1, (0, 1): 2})
    with pytest.raises(TypeError):
        QtPolynomial({(1, 0): 1}) + 3
    assert not QtPolynomial()
    assert p != q
    assert hash(p) == hash(QtPolynomial({(0, 1): 1, (1, 0): 1}))


@given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       st.integers(1, 9), max_size=60))
def test_terms_come_in_graded_lex_order(counts):
    # total degree descending, then q-degree descending, as one sort key
    order = sorted(counts, key=lambda e: (-(e[0] + e[1]), -e[0]))
    assert QtPolynomial(counts).terms() == [(dq, dt, counts[dq, dt]) for dq, dt in order]


def test_bruteforce_walks_the_side_with_fewer_columns(monkeypatch):
    walked = []
    real_walk = qtpoly._walk

    def recorded(m, n):
        walked.append((m, n))
        return real_walk(m, n)

    monkeypatch.setattr(qtpoly, "_walk", recorded)
    for m, n in ((7, 12), (12, 7), (1, 5), (5, 1), (2, 3), (3, 2)):
        assert catalan_bruteforce(m, n) == real_walk(m, n)
    assert walked == [(7, 12), (7, 12), (1, 5), (1, 5), (2, 3), (2, 3)]


def test_bruteforce_rejects_a_lattice_before_computing_any_height(monkeypatch):
    # the walk's floors hold m heights, so a check left to them would cost
    # O(m) time and memory before the error
    def no_heights(a, m, n):
        raise AssertionError("computed a height of a rejected lattice")

    monkeypatch.setattr(paths_module, "min_east_height", no_heights)
    for m, n in ((0, 5), (-3, 4)):
        with pytest.raises(ValueError, match="m and n must be positive"):
            catalan_bruteforce(m, n)
    with pytest.raises(NotCoprime, match=r"gcd\(3, 6\) != 1"):
        catalan_bruteforce(3, 6)


def closed_form_terms(n):
    """The terms (dq, dt, 1) of C_{3,n}(q,t), row after row of _closed_form_rows."""
    rows = qtpoly._closed_form_rows(n)
    return [(dq, dt, 1) for qs, ts in rows for dq, dt in zip(qs, ts)]


def test_closed_form_terms_come_in_graded_lex_order():
    # the same terms as the sorted polynomial, in its order, for every n < 400
    for n in range(1, 400):
        if n % 3 == 0:
            continue
        terms = closed_form_terms(n)
        assert terms == catalan3_closed_form(n).terms(), n
        # row s holds q^(n-a-s-1) t^a for s <= a < n - 2s, s ascending
        assert terms == [(n - a - s - 1, a, 1)
                         for s in range(n // 3 + 1) for a in range(s, n - 2 * s)], n


def cmd_poly_closed(n, fmt):
    """What main writes for `poly 3 n --method closed` in the given format."""
    args = cli.build_parser().parse_args(
        ["poly", "3", str(n), "--method", "closed", "--format", fmt])
    _code, text, record = cli.cmd_poly(args)
    return "".join([*cli._json(record), "\n"] if fmt == "json" else text)


def test_term_formatting_of_the_closed_form_terms():
    for n in [*range(1, 100), 398, 399, 1001]:
        if n % 3 == 0:
            continue
        poly = catalan3_closed_form(n)
        assert cmd_poly_closed(n, "text") == poly.render() + "\n"
        # the CLI's JSON of the same terms, as json.dumps writes the library's
        want = json.dumps(poly.json_terms(), sort_keys=True) + "\n"
        assert cmd_poly_closed(n, "json") == want
    assert "".join(cli._json(cli._array([]))) == "[]"


def test_closed_form_rows_format_as_their_terms_do():
    # a row writes its middle terms as one progression and leaves the end
    # terms, with an exponent below 2, to _render_term as literal segments;
    # chunks of a few terms, so that a row spans many of them
    for n in [*range(1, 201), 1000, 1001]:
        if n % 3 == 0:
            continue
        for qs, ts in qtpoly._closed_form_rows(n):
            terms = list(zip(qs, ts))
            with mock.patch.object(chunks, "CHARS", n % 40 + 1):
                text = "".join(chunks.rows(qtpoly._row_text(qs, ts), " + "))
                json_row = "".join(chunks.rows([(cli._UNIT_TERM, (qs, ts))], ", "))
            assert text == " + ".join(
                qtpoly._render_term(dq, dt, 1) for dq, dt in terms), (n, ts[0])
            assert json_row == ", ".join(
                cli._TERM % (1, dq, dt) for dq, dt in terms), (n, ts[0])


def test_closed_form_terms_check_n_at_the_call():
    with pytest.raises(ValueError, match="n must be positive"):
        qtpoly._closed_form_rows(0)
    with pytest.raises(BadResidue, match="n must not be a multiple of 3, got 6"):
        qtpoly._closed_form_rows(6)
    with pytest.raises(TypeError):
        qtpoly._closed_form_rows(4.0)


def test_three_column_terms_respect_the_degree_bound():
    # i + j <= n - 1, with equality exactly on the skips-free terms
    for n in (5, 8, 13):
        brute = catalan_bruteforce(3, n)
        for dq, dt, _ in brute.terms():
            assert dq + dt <= n - 1
        full = [(dq, dt) for dq, dt, _ in brute.terms() if dq + dt == n - 1]
        assert sorted(full) == [(i, n - 1 - i) for i in range(n)]
