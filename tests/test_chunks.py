from unittest import mock

from hypothesis import given, settings, strategies as st

from qtcatalan import chunks

# literal text without "%", so that template % row is the reference
LITERAL = st.text(alphabet='ab_[]{}": ,+', max_size=4)
# the smallest member of a column, often at or around a multiple of the
# table size, where a number's high part changes
LOWEST = st.one_of(
    st.integers(0, 3000),
    st.sampled_from([0, 999, 1000, 1001, 1999, 2000, 9999, 10000, 10**6 - 1, 10**6]),
    st.integers(0, 10**7),
)


@st.composite
def columns(draw):
    """1 to 3 ranges of one length, with nonnegative members, of either sign of step."""
    length = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 400)))
    drawn = []
    for _ in range(draw(st.integers(1, 3))):
        step = draw(st.integers(-1100, 1100).filter(bool))
        lowest = draw(LOWEST)
        # a falling column ends at its lowest member
        first = lowest if step > 0 else lowest - step * (length - 1)
        drawn.append(range(first, first + step * length, step))
    return drawn


@st.composite
def segments(draw):
    """1 to 4 segments: progressions of 1 to 3 columns, or literal rows."""
    drawn = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cols = draw(columns())
            template = "%d".join(draw(st.lists(LITERAL, min_size=len(cols) + 1,
                                               max_size=len(cols) + 1)))
            drawn.append((template, cols))
        else:
            drawn.append((draw(LITERAL), ()))
    return drawn


def rows_of(template, cols):
    """The rows of one segment: template % row per row, or the literal itself."""
    return [template % row for row in zip(*cols)] if cols else [template]


@settings(max_examples=300, deadline=None)
@given(segments(), LITERAL, st.integers(1, 40))
def test_rows_writes_each_row_of_its_template(segs, sep, chars):
    want = [row for template, cols in segs for row in rows_of(template, cols)]
    with mock.patch.object(chunks, "CHARS", chars):
        got = list(chunks.rows(segs, sep))
    assert "".join(got) == sep.join(want)
    # a segment with no rows adds no sep: the output is that of the others
    kept = [(template, cols) for template, cols in segs if not cols or len(cols[0])]
    assert "".join(chunks.rows(kept, sep)) == "".join(got)
    if not kept:
        assert got == []
    # a chunk ends at about CHARS characters and holds at least one row
    longest_row = max(map(len, want), default=0) + len(sep)
    assert all(len(chunk) <= chars + longest_row for chunk in got)
    assert len(got) <= len(want)
