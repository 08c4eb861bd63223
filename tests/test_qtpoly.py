import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from qtcatalan import chunks, cli, qtpoly
from qtcatalan import BadResidue, QtPolynomial, catalan3_closed_form, catalan_bruteforce


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
