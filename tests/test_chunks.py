import contextlib
import io
from unittest import mock

from hypothesis import given, settings, strategies as st

from qtcatalan import chunks, cli, paths

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
    # random literals must not grow the table cache past its bound
    info = chunks._numbered.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def written(segs, sep, chars):
    """rows(segs, sep) with CHARS patched to chars, and the tables it read."""
    chunks._numbered.cache_clear()
    with mock.patch.object(chunks, "CHARS", chars):
        got = list(chunks.rows(segs, sep))
    info = chunks._numbered.cache_info()
    return got, info.hits + info.misses


def test_rows_sharing_one_high_part_read_the_cached_tables():
    # a rank word's shape: two step-3 columns, over several thousand
    # boundaries, in one high part but for one-row blocks at a boundary
    segs = [("%d_2 [%d_1]", (range(2, 6002, 3), range(1, 6001, 3)))]
    mixed = sum(a // 1000 != b // 1000 for a, b in zip(*segs[0][1]))
    assert mixed == 2  # the rows (2000, 1999) and (5000, 4999)
    for chars in (7, 40, 1 << 17):
        got, reads = written(segs, " ", chars)
        assert "".join(got) == " ".join(rows_of(*segs[0]))
        # a table per column of each block but the mixed rows
        assert reads == 2 * (len(got) - mixed)
    # one high part of several digits, or the empty one, and either step sign
    for lo in (0, 5, 1_234_000, 10**9 + 299):
        segs = [("q^%d t^%d", (range(lo + 700, lo, -1), range(lo + 1, lo + 701)))]
        got, reads = written(segs, " + ", 60)
        assert "".join(got) == " + ".join(rows_of(*segs[0]))
        assert reads == 2 * len(got)


def test_rows_of_mixed_high_parts_hold_the_literals_apart():
    # a closed-form row's shape for n > 1000: q falls from above 1000 while
    # t rises from below it, so no block shares a high part
    segs = [('{"c": 1, "q": %d, "t": %d}', (range(1500, 1000, -1), range(0, 500)))]
    for chars in (7, 100, 1 << 17):
        got, reads = written(segs, ", ", chars)
        assert "".join(got) == ", ".join(rows_of(*segs[0]))
        assert reads == 0
    # q falls into t's high part and below it: mixed, shared, mixed again
    segs = [("q^%d t^%d", (range(2100, 900, -1), range(500, 1700)))]
    got, reads = written(segs, " + ", 50)
    assert "".join(got) == " + ".join(rows_of(*segs[0]))
    assert 0 < reads < 2 * len(got)


def test_rows_of_one_row_or_one_column_blocks():
    cases = [
        [("<%d|%d>", (range(999, 1000), range(1000, 1001)))],  # one row, mixed
        [("<%d|%d>", (range(1999, 2000), range(1998, 1999)))],  # one row, shared
        [("<%d>", (range(0, 3000, 7),)), ("<%d>", (range(4000, 0, -13),))],  # one column
        [("%d", (range(10**6 - 3, 10**6 + 3),)), ("end", ())],
    ]
    for segs in cases:
        want = [row for template, cols in segs for row in rows_of(template, cols)]
        for chars in (1, 9, 1 << 17):  # CHARS = 1: a row per block
            got, _ = written(segs, ", ", chars)
            assert "".join(got) == ", ".join(want)
            if chars == 1:
                assert len(got) == len(want)


def test_the_table_cache_stays_within_its_bound():
    info = chunks._numbered.cache_info()
    literals = [f"<{i}>" for i in range(2 * info.maxsize)]
    for literal in literals:
        segs = [("%d" + literal, (range(1000, 1010),)), ("%d" + literal, (range(10),))]
        assert "".join(chunks.rows(segs, "")) == "".join(
            row for template, cols in segs for row in rows_of(template, cols))
    assert chunks._numbered.cache_info().currsize == info.maxsize


def test_one_pass_of_many_outputs_fits_the_table_cache():
    # a long-lived caller that writes words, boxed words and closed forms in
    # both formats reads more tables than one output does; once read, a
    # second pass of the same outputs finds every table in the cache
    assert chunks._numbered.cache_info().maxsize == 32
    n = 3001
    word = paths.render_path(paths.make_path(3, n, (1100, 2300, n)))
    argvs = [[command, "--format", fmt, *args] for fmt in ("text", "json")
             for command, *args in (["stats", word], ["rankword", word], ["rankword", str(n)],
                                    ["omega", "600", "600", str(n - 1201)],
                                    ["poly", "3", "1001", "--method", "closed"])]
    chunks._numbered.cache_clear()
    for _ in range(2):
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        info = chunks._numbered.cache_info()
        # more tables than the 16 slots of old: each read once, none again
        assert 16 < info.misses == info.currsize <= info.maxsize
