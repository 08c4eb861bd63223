"""Property-based checks over randomly drawn instances."""

from hypothesis import example, given, strategies as st

from qtcatalan import DyckPath, parse_path

import oracles


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
