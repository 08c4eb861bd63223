import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import bijection, chunks, cli, paths, qtpoly, rankwords, stats
from qtcatalan.cli import main

import oracles
from oracles import PI1, PI2

PI1_WORD, PI2_WORD = paths.render_path(PI1), paths.render_path(PI2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok(out):
    """The row of a request that succeeds: exit 0, out, nothing on stderr."""
    return 0, out, ""


JSON = ("--format", "json")
LIMIT = 2**63 - 1  # the largest row count, lattice side and path count

ONE = ("1\n", '[{"c": 1, "q": 0, "t": 0}]\n')
C_2_9 = (
    "q^4 + q^3 t + q^2 t^2 + q t^3 + t^4\n",
    '[{"c": 1, "q": 4, "t": 0}, {"c": 1, "q": 3, "t": 1}, {"c": 1, "q": 2, "t": 2}, '
    '{"c": 1, "q": 1, "t": 3}, {"c": 1, "q": 0, "t": 4}]\n',
)
C_3_4 = (
    "q^3 + q^2 t + q t^2 + t^3 + q t\n",
    '[{"c": 1, "q": 3, "t": 0}, {"c": 1, "q": 2, "t": 1}, {"c": 1, "q": 1, "t": 2}, '
    '{"c": 1, "q": 0, "t": 3}, {"c": 1, "q": 1, "t": 1}]\n',
)
# (m, n): the text and JSON output of poly m n --method brute
POLY_BRUTE_OUTPUT = {
    (1, 1): ONE, (1, 5): ONE, (5, 1): ONE,
    (2, 9): C_2_9, (9, 2): C_2_9, (3, 4): C_3_4, (4, 3): C_3_4,
}
C_3_5 = "q^4 + q^3 t + q^2 t^2 + q t^3 + t^4 + q^2 t + q t^2\n"
LATTICE_4_JSON = (
    '{"entries": [{"boxed": false, "color": 2, "rank": 1}, '
    '{"boxed": false, "color": 1, "rank": 2}, {"boxed": false, "color": 1, "rank": 5}], '
    '"n": 4, "word": "1_2 2_1 5_1"}\n'
)

# `qtcatalan verify` at its default bounds: check names, order and counts
VERIFY_DEFAULT_TEXT = """\
PASS  path-count                    45 checked
PASS  serialization-roundtrip      431 checked
PASS  shape-monotone               431 checked
PASS  transpose-involution         431 checked
PASS  poly-mn-symmetry              23 checked
PASS  rank-positivity             1305 checked
PASS  cell-classification         1305 checked
PASS  stat-identity                216 checked
PASS  stat-inequalities            216 checked
PASS  triple-uniqueness            216 checked
PASS  word-roundtrip               216 checked
PASS  triple-reconstruction        216 checked
PASS  triple-realizability         216 checked
PASS  closed-form                   11 checked
PASS  qt-symmetry                   11 checked
PASS  involution                   216 checked
16 passed, 0 failed
"""
# the smallest bounds that select a lattice: the cell checks find no cell
VERIFY_SMALLEST_TEXT = """\
PASS  path-count                     1 checked
PASS  serialization-roundtrip        1 checked
PASS  shape-monotone                 1 checked
PASS  transpose-involution           1 checked
PASS  poly-mn-symmetry               1 checked
PASS  rank-positivity                0 checked
PASS  cell-classification            0 checked
PASS  stat-identity                  1 checked
PASS  stat-inequalities              1 checked
PASS  triple-uniqueness              1 checked
PASS  word-roundtrip                 1 checked
PASS  triple-reconstruction          1 checked
PASS  triple-realizability           1 checked
PASS  closed-form                    1 checked
PASS  qt-symmetry                    1 checked
PASS  involution                     1 checked
16 passed, 0 failed
"""
# each check's record holds its fields and ok, a failed one its counterexample
VERIFY_5_JSON = (
    '{"checks": ['
    '{"checked": 9, "counterexample": null, "name": "path-count", "ok": true}, '
    '{"checked": 11, "counterexample": null, '
    '"name": "serialization-roundtrip", "ok": true}, '
    '{"checked": 11, "counterexample": null, "name": "shape-monotone", "ok": true}, '
    '{"checked": 11, "counterexample": null, '
    '"name": "transpose-involution", "ok": true}, '
    '{"checked": 5, "counterexample": null, "name": "poly-mn-symmetry", "ok": true}, '
    '{"checked": 24, "counterexample": null, "name": "rank-positivity", "ok": true}, '
    '{"checked": 24, "counterexample": null, '
    '"name": "cell-classification", "ok": true}, '
    '{"checked": 15, "counterexample": null, "name": "stat-identity", "ok": true}, '
    '{"checked": 15, "counterexample": null, '
    '"name": "stat-inequalities", "ok": true}, '
    '{"checked": 15, "counterexample": null, '
    '"name": "triple-uniqueness", "ok": true}, '
    '{"checked": 15, "counterexample": null, "name": "word-roundtrip", "ok": true}, '
    '{"checked": 15, "counterexample": null, '
    '"name": "triple-reconstruction", "ok": true}, '
    '{"checked": 15, "counterexample": null, '
    '"name": "triple-realizability", "ok": true}, '
    '{"checked": 4, "counterexample": null, "name": "closed-form", "ok": true}, '
    '{"checked": 4, "counterexample": null, "name": "qt-symmetry", "ok": true}, '
    '{"checked": 15, "counterexample": null, "name": "involution", "ok": true}], '
    '"failed": 0, "passed": 16}\n'
)

# requests that other tests run too, with a fault planted or in a child
STATS_PI2 = ("stats", PI2_WORD)
LATTICE_5 = ("rankword", "5")
VERIFY_5_TEXT = ("verify", "--max-n", "5", "--max-mn", "5")
VERIFY_5 = (*VERIFY_5_TEXT, *JSON)

# requests refused in either format, each with the one line it writes to
# stderr; it exits 2 and writes nothing to stdout
REFUSED = {
    ("stats", "NEX"): "error: BadCharacter: step words use only N and E, found 'X'\n",
    ("enumerate", "3", "6"): "error: NotCoprime: gcd(3, 6) != 1\n",
    ("enumerate", "4", "6"): "error: NotCoprime: gcd(4, 6) != 1\n",
    ("enumerate", "0", "5"): "error: ValueError: m and n must be positive\n",
    # '\u00b2' (SUPERSCRIPT TWO) is a digit but no decimal, so it is read as
    # a step word
    ("rankword", "\u00b2"):
        "error: BadCharacter: step words use only N and E, found '\u00b2'\n",
    ("rankword", "30"): "error: BadResidue: n must not be a multiple of 3, got 30\n",
    ("omega", "1", "2", "3"): "error: InvalidTriple: no path has area=1, skips=2, dinv=3\n",
    ("omega", "3", "6", "8"): "error: InvalidTriple: no path has area=3, skips=6, dinv=8\n",
    ("poly", "3", "6", "--method", "closed"):
        "error: BadResidue: n must not be a multiple of 3, got 6\n",
    # the library's named error for a three-column operation on m != 3
    ("poly", "4", "7", "--method", "closed"):
        "error: UnsupportedM: the closed form needs m = 3, got m = 4\n",
    ("bijection", "NNNEE"): "error: UnsupportedM: skips is defined for m = 3, not m = 2\n",
    ("verify", "--max-n", "-5", "--max-mn", "-1"):
        "error: EmptyBound: max_n must be at least 1 to select a lattice, got -5\n",
    ("verify", "--max-n", "0"):
        "error: EmptyBound: max_n must be at least 1 to select a lattice, got 0\n",
    ("verify", "--max-mn", "1"):
        "error: EmptyBound: max_mn must be at least 2 to select a lattice, got 1\n",
    # more paths than the cap, counted without listing them
    ("enumerate", "40", "41"):
        f"error: CoefficientOverflow: the (40,41)-lattice has more than {LIMIT} paths\n",
    ("enumerate", "3037000499", "3037000498"):
        "error: CoefficientOverflow: the (3037000499,3037000498)-lattice has more than "
        f"{LIMIT} paths\n",
    # row counts whose progressions have no len: refused before any output
    ("omega", "0", "0", "99999999999999999999"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 100000000000000000000\n",
    ("rankword", "99999999999999999998"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999998\n",
    ("poly", "3", "99999999999999999998", "--method", "closed"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999998\n",
    # lattice sides that index no tuple: refused before a count is written or a walk starts
    ("enumerate", "1", "99999999999999999999"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999999\n",
    ("enumerate", "2", "99999999999999999999"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999999\n",
    ("enumerate", "3", "99999999999999999998"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999998\n",
    ("enumerate", "99999999999999999999", "2"):
        f"error: CoefficientOverflow: m must be at most {LIMIT}, got 99999999999999999999\n",
    ("enumerate", "99999999999999999999", "99999999999999999998"):
        f"error: CoefficientOverflow: m must be at most {LIMIT}, got 99999999999999999999\n",
    ("poly", "2", "99999999999999999999"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999999\n",
    ("poly", "99999999999999999999", "2"):
        f"error: CoefficientOverflow: m must be at most {LIMIT}, got 99999999999999999999\n",
    ("poly", "3", "99999999999999999998"):
        f"error: CoefficientOverflow: n must be at most {LIMIT}, got 99999999999999999998\n",
}

# The CLI's small outputs, byte for byte: argv -> (exit code, stdout,
# stderr).  A row without --format is the text form.
SMALL_OUTPUTS = {
    STATS_PI2: ok(
        "m: 3\nn: 8\narea: 5\ndinv: 1\nskips: 1\n"
        "rank word: 1_1 2_2 4_1 [5_2] 7_1 10_1 [13_1]\n"),
    (*STATS_PI2, *JSON): ok(
        '{"area": 5, "boxed": [5, 13], "dinv": 1, "m": 3, "n": 8, "path": "NNNNNNNEENE", '
        '"rank_word": "1_1 2_2 4_1 [5_2] 7_1 10_1 [13_1]", "skips": 1}\n'),
    # one column: no skips and no rank word
    ("stats", "NNNNE"): ok("m: 1\nn: 4\narea: 0\ndinv: 0\n"),
    ("enumerate", "3", "4"): ok("NNENENE\nNNENNEE\nNNNEENE\nNNNENEE\nNNNNEEE\n"),
    ("enumerate", "3", "4", *JSON): ok(
        '{"count": 5, "m": 3, "n": 4, '
        '"paths": ["NNENENE", "NNENNEE", "NNNEENE", "NNNENEE", "NNNNEEE"]}\n'),
    ("enumerate", "1100", "1"): ok("N" + "E" * 1100 + "\n"),
    LATTICE_5: ok("1_1 2_2 4_1 7_1\n"),
    ("rankword", PI1_WORD): ok("1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]\n"),
    ("rankword", "4", *JSON): ok(LATTICE_4_JSON),
    # '\u0664' (ARABIC-INDIC DIGIT FOUR) is a decimal, and int() reads it as 4
    ("rankword", "\u0664"): ok("1_2 2_1 5_1\n"),
    ("rankword", "\u0664", *JSON): ok(LATTICE_4_JSON),
    ("omega", "3", "2", "2"): ok(
        "word: 1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]\npath: NNNNNNEENNE\n"),
    ("omega", "3", "2", "2", *JSON): ok(
        '{"area": 3, "dinv": 2, "entries": [{"boxed": false, "color": 1, "rank": 1}, '
        '{"boxed": true, "color": 2, "rank": 2}, {"boxed": false, "color": 1, "rank": 4}, '
        '{"boxed": true, "color": 2, "rank": 5}, {"boxed": false, "color": 1, "rank": 7}, '
        '{"boxed": true, "color": 1, "rank": 10}, {"boxed": true, "color": 1, "rank": 13}], '
        '"n": 8, "path": "NNNNNNEENNE", "skips": 2, '
        '"word": "1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]"}\n'),
    ("poly", "3", "5"): ok(C_3_5),
    ("poly", "3", "5", "--method", "closed"): ok(C_3_5),
    # one path of 1100 columns: the walk sets each column without recursing
    ("poly", "1100", "1", "--method", "brute"): ok("1\n"),
    ("poly", "1", "1100", "--method", "brute"): ok("1\n"),
    **{("poly", str(m), str(n), "--method", "brute", *fmt): ok(out)
       for (m, n), forms in POLY_BRUTE_OUTPUT.items() for fmt, out in zip(((), JSON), forms)},
    ("bijection", PI1_WORD): ok(
        "image: NNNENNNNNEE\n"
        "triple: area=3 skips=2 dinv=2\n"
        "image triple: area=2 skips=2 dinv=3\n"),
    ("bijection", PI1_WORD, *JSON): ok(
        '{"image": "NNNENNNNNEE", "image_triple": {"area": 2, "dinv": 3, "skips": 2}, '
        '"path": "NNNNNNEENNE", "triple": {"area": 3, "dinv": 2, "skips": 2}}\n'),
    ("transpose", "NNNNE"): ok("NEEEE\n"),
    ("transpose", "NNNNE", *JSON): ok('{"path": "NNNNE", "transpose": "NEEEE"}\n'),
    ("verify",): ok(VERIFY_DEFAULT_TEXT),
    VERIFY_5: ok(VERIFY_5_JSON),
    ("verify", "--max-n", "1", "--max-mn", "2"): ok(VERIFY_SMALLEST_TEXT),
    **{(*argv, *fmt): (2, "", err) for argv, err in REFUSED.items() for fmt in ((), JSON)},
}


def argv_id(argv):
    """A pinned case's id: its argv, with the long step word by its name,
    so that adding a case renames no other."""
    return " ".join("MARKED_30001" if a == MARKED_30001 else a for a in argv)


@pytest.mark.parametrize("argv", SMALL_OUTPUTS, ids=argv_id)
def test_a_small_request_prints_its_pinned_bytes(capsys, argv):
    assert run(capsys, *argv) == SMALL_OUTPUTS[argv]


# a request of each command, in each format: main writes what the handler returns
HANDLER_REQUESTS = [argv for argv, (code, _, _) in SMALL_OUTPUTS.items() if code == 0]


@pytest.mark.parametrize("argv", HANDLER_REQUESTS, ids=argv_id)
def test_a_handler_returns_its_output_and_prints_nothing(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    code, text, record = getattr(cli, f"cmd_{argv[0]}")(args)
    assert capsys.readouterr() == ("", "")
    form = "".join([*cli._json(record), "\n"] if args.format == "json" else text)
    assert capsys.readouterr() == ("", "")
    assert (code, form, "") == SMALL_OUTPUTS[argv]


def test_every_command_has_a_handler():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == [name for name, _help, _arguments in cli.COMMANDS]
    assert {argv[0] for argv in HANDLER_REQUESTS} == set(commands)
    for name in commands:
        assert callable(getattr(cli, f"cmd_{name}", None)), name


def test_text_output_builds_no_json(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("built the JSON form for text output")

    # the one JSON writer, and every value it writes through json.dumps
    monkeypatch.setattr(cli, "_json", refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    for argv in HANDLER_REQUESTS:
        if "--format" not in argv:
            assert run(capsys, *argv) == SMALL_OUTPUTS[argv]


@pytest.mark.parametrize("argv", [
    argv for argv, (_, _, err) in SMALL_OUTPUTS.items()
    if err.startswith("error: CoefficientOverflow: ")
], ids=argv_id)
def test_enumerate_refuses_a_lattice_of_more_than_the_cap_paths(argv):
    # in a child with a timeout, so that a request that streams paths
    # without end, or a count that never ends, fails the test
    done = subprocess.run(
        [sys.executable, "-m", "qtcatalan", *argv],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == SMALL_OUTPUTS[argv]


def test_step_chunks_write_one_piece_per_column_and_cut_long_north_runs(monkeypatch):
    # with four-character pieces every lattice has north runs to cut, of
    # lengths that are and are not multiples of a piece
    # the CLI owns the stream: paths writes only whole words
    assert not hasattr(paths, "_step_chunks") and not hasattr(paths, "CHARS")
    monkeypatch.setattr(chunks, "CHARS", 4)
    for m, n in [(1, 8), (1, 9), (2, 7), (3, 5), (3, 8), (4, 7), (9, 1)]:
        for p in paths.enumerate_paths(m, n):
            pieces = list(cli._step_chunks(p))
            assert all(len(c) <= 4 for c in pieces)
            assert "".join(pieces) == paths.render_path(p)
            assert sum(c.endswith("E") for c in pieces) == m
            assert all(c == "NNNN" for c in pieces if not c.endswith("E"))


def test_a_long_north_run_is_cut_into_pieces_of_chars():
    chars = chunks.CHARS
    p = paths.make_path(1, 2 * chars + 5, [2 * chars + 5])
    assert [len(c) for c in cli._step_chunks(p)] == [chars, chars, 6]
    assert paths.render_path(p) == "N" * (2 * chars + 5) + "E"


def test_poly_brute_prints_one_polynomial_in_either_orientation(capsys):
    # poly walks only the side with fewer columns, so both outputs come from
    # one walk; test_mn_symmetry_of_bruteforce compares the walks of both sides
    for m, n in (("10", "11"), ("8", "23")):
        assert run(capsys, "poly", m, n, "--method", "brute") == run(
            capsys, "poly", n, m, "--method", "brute")


def test_poly_methods_agree(capsys):
    # rows whose end terms are literal segments, such as 1, q + t and q t,
    # and at n = 1001 exponents up to 1000, where the decimal table of
    # chunks.rows ends
    for n in ("1", "2", "4", "5", "7", "8", "1001"):
        for fmt in ("text", "json"):
            _, brute, _ = run(capsys, "poly", "3", n, "--format", fmt)
            _, closed, _ = run(capsys, "poly", "3", n, "--method", "closed", "--format", fmt)
            assert brute == closed


@pytest.mark.parametrize("exc", [
    MemoryError(), RecursionError("maximum recursion depth exceeded"),
    KeyError("planted"), AssertionError("planted"),
], ids=lambda exc: type(exc).__name__)
def test_an_internal_error_exits_3_with_one_line(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_stats", broken)
    code, out, err = run(capsys, *STATS_PI2)
    assert (code, out) == (3, "")
    assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_enumerate_writes_nothing_when_its_first_path_cannot_be_built(capsys, monkeypatch):
    # as enumerate 1 9223372036854775807 runs out of memory on its one path
    def no_memory(p):
        raise MemoryError

    monkeypatch.setattr(paths, "render_path", no_memory)
    for fmt in ("text", "json"):
        assert run(capsys, "enumerate", "3", "4", "--format", fmt) == (
            3, "", "error: internal: MemoryError: \n")


def test_an_internal_error_frees_the_failed_frames_before_its_line(capsys, monkeypatch):
    # a MemoryError leaves no room to format the line while the frames that
    # ran out, and the work they hold, are still alive
    class Work:
        pass

    held = []

    def out_of_memory(args):
        work = Work()
        held.append(weakref.ref(work))
        raise MemoryError

    alive_at_write = []

    class Spy(io.StringIO):
        def write(self, text):
            alive_at_write.append(held[0]() is not None)
            return super().write(text)

    monkeypatch.setattr(cli, "cmd_stats", out_of_memory)
    monkeypatch.setattr(sys, "stderr", Spy())
    code = main(list(STATS_PI2))
    assert (code, sys.stderr.getvalue()) == (3, "error: internal: MemoryError: \n")
    assert alive_at_write and not any(alive_at_write)
    assert capsys.readouterr().out == ""


def test_an_interrupted_run_exits_130_quietly(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_stats", interrupted)
    assert run(capsys, *STATS_PI2) == (130, "", "")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poly", "3", "5", "--method", "nonsense"])
    capsys.readouterr()
    assert info.value.code == 2


# `verify --max-n 5 --max-mn 5` with dinv one too high, in text and JSON
VERIFY_5_TEXT_DINV_PLUS_ONE = """\
PASS  path-count                     9 checked
PASS  serialization-roundtrip       11 checked
PASS  shape-monotone                11 checked
PASS  transpose-involution          11 checked
PASS  poly-mn-symmetry               5 checked
PASS  rank-positivity               24 checked
FAIL  cell-classification            1 checked  counterexample: n=1 (1, 1, 1): 0 contributing \
cells, dinv 1
FAIL  stat-identity                  1 checked  counterexample: n=1 (1, 1, 1): 0+0+1 != 0
FAIL  stat-inequalities              1 checked  counterexample: n=1 (1, 1, 1): triple (0,0,1)
PASS  triple-uniqueness             15 checked
PASS  word-roundtrip                15 checked
FAIL  triple-reconstruction          1 checked  counterexample: n=1 (1, 1, 1): omega(0,0,1) \
differs
FAIL  triple-realizability           1 checked  counterexample: n=1: mismatch at (0, 0, 0)
PASS  closed-form                    4 checked
PASS  qt-symmetry                    4 checked
FAIL  involution                     1 checked  counterexample: n=1 (1, 1, 1): triple not swapped
10 passed, 6 failed
"""
VERIFY_5_JSON_DINV_PLUS_ONE = (
    '{"checks": ['
    '{"checked": 9, "counterexample": null, "name": "path-count", "ok": true}, '
    '{"checked": 11, "counterexample": null, '
    '"name": "serialization-roundtrip", "ok": true}, '
    '{"checked": 11, "counterexample": null, "name": "shape-monotone", "ok": true}, '
    '{"checked": 11, "counterexample": null, '
    '"name": "transpose-involution", "ok": true}, '
    '{"checked": 5, "counterexample": null, "name": "poly-mn-symmetry", "ok": true}, '
    '{"checked": 24, "counterexample": null, "name": "rank-positivity", "ok": true}, '
    '{"checked": 1, "counterexample": "n=1 (1, 1, 1): 0 contributing cells, dinv 1", '
    '"name": "cell-classification", "ok": false}, '
    '{"checked": 1, "counterexample": "n=1 (1, 1, 1): 0+0+1 != 0", '
    '"name": "stat-identity", "ok": false}, '
    '{"checked": 1, "counterexample": "n=1 (1, 1, 1): triple (0,0,1)", '
    '"name": "stat-inequalities", "ok": false}, '
    '{"checked": 15, "counterexample": null, '
    '"name": "triple-uniqueness", "ok": true}, '
    '{"checked": 15, "counterexample": null, "name": "word-roundtrip", "ok": true}, '
    '{"checked": 1, "counterexample": "n=1 (1, 1, 1): omega(0,0,1) differs", '
    '"name": "triple-reconstruction", "ok": false}, '
    '{"checked": 1, "counterexample": "n=1: mismatch at (0, 0, 0)", '
    '"name": "triple-realizability", "ok": false}, '
    '{"checked": 4, "counterexample": null, "name": "closed-form", "ok": true}, '
    '{"checked": 4, "counterexample": null, "name": "qt-symmetry", "ok": true}, '
    '{"checked": 1, "counterexample": "n=1 (1, 1, 1): triple not swapped", '
    '"name": "involution", "ok": false}], '
    '"failed": 6, "passed": 10}\n'
)


@pytest.mark.parametrize("argv, out", [
    (VERIFY_5_TEXT, VERIFY_5_TEXT_DINV_PLUS_ONE), (VERIFY_5, VERIFY_5_JSON_DINV_PLUS_ONE)
], ids=["text", "json"])
def test_verify_output_of_failed_checks_is_pinned(capsys, monkeypatch, argv, out):
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + 1)
    assert run(capsys, *argv) == (1, out, "")


# sha256 of the text and JSON output of large requests; the words and
# closed forms up to (60000, 5000, 20000) as printed when they were listed
# through RankEntry tuples and a sorted QtPolynomial
# heights (25001, 28001, 30001): it boxes k = 5000 < n/3 color-1 ranks, so
# its color-1 threshold 2n - 3k lies above n
MARKED_30001 = "N" * 25001 + "E" + "N" * 3000 + "E" + "N" * 2000 + "E"
LATTICE_100001 = ("rankword", "100001")  # also read through a closed pipe
LARGE_OUTPUT_SHA256 = {
    # the lattice word of n = 1 (mod 3) rows; 100001 below is n = 2 (mod 3)
    ("rankword", "100000"): (
        "47508efe5a353ca1699cf79df36ceea8de9fccccabfc64e3faed529c85de77bb",
        "c2bce77c3577bc7609990b04bccf0440cd0971b7b2b95cbafcfca9206b44abc9",
    ),
    LATTICE_100001: (
        "0c8dbb36466db9881035508251b67a5d4b85670a57d9a24d7c5ef7878271c24b",
        "91d1562e858334a7c910313cd57023d777f456bff258190090860396b5343bf9",
    ),
    ("omega", "40000", "20000", "40000"): (
        "15ddd45d68f309335e1d7060bd0b6eaf1277220796034b692a3d392b39c0bebf",
        "056c4107c04cd3481d3e3c9cc5ce7a778e5c995bfe0d63667b1c0a7e55b7660f",
    ),
    ("poly", "3", "1001", "--method", "closed"): (
        "9836cad93694f90ef4a1c17b0bb7659c90c53699177822472026f7ef2e794d8e",
        "7a8a0b2656e1fb85ade542db8278dbe3cab442feaf9735c850952754e424c21f",
    ),
    ("rankword", MARKED_30001): (
        "afd2c4719196958dc8a651f127f5233bc56c1ae258ddbb2c55f2de2a4c4d672e",
        "2986bccd99fc1a2724c61d3db16e0646a99dc525fd2bfd999e852845932f7024",
    ),
    ("stats", MARKED_30001): (
        "a9e0dbfcaafe48f51a760bed98f74722fa0de98f6486c32398ec68b2a7da756c",
        "6d26a3485f5bcbb06cd0c976abc49914bd1ab51383e7c5dc9cd1bf3bd3580cbb",
    ),
    # d = 20000 < n/3 on n = 85001 rows: omega boxes k = 20000 color-1 ranks,
    # so its color-1 threshold lies above n and its color-2 threshold below
    ("omega", "60000", "5000", "20000"): (
        "ca53fadfa31031b51f828c0c5feb05c25f43ef79f6b136e0b1eb64c6f7959264",
        "e0f79b804349b06189490743e2b844e16ebb6fae93dc8e0ceb02a1ac17bbe8c8",
    ),
    # n = 1 (mod 3) rows, pinned from the output of commit 2a524b7
    ("omega", "40000", "20000", "39999"): (
        "2af203393e817cc826d5fb128bd01f12c401943f4bf73640c0409c7d05f15638",
        "4b1db7b0ecd77980da227bc020935934913f07e35ae7f147a5f879785e1b1853",
    ),
    # pinned before chunks.rows read cached tables: poly 3 3001 has long
    # stretches of rows whose q and t differ in high part, rankword 3000001
    # thousands of blocks in one high part (its JSON pinned later, from the
    # output of commit 2a524b7), and the omega word all four kinds of run
    ("poly", "3", "3001", "--method", "closed"): (
        "7c8092572e50bc067bc4ba16e8ec831927055297427339461574b8b7246c8e46",
        "9f344de096f0cd9f2d7a2d0b1ac26c4cb2909f6026bae3d75d1083d50a6fc5c1",
    ),
    ("rankword", "3000001"): (
        "6b3732e2f3aaa9bdf83912b670ad5e87105c4b8e38f8f5ce60eb32c1329cb204",
        "14507a87e43c427ec4e6eafa72772fcf63c002c49e844d565fa7e1d80d27032c",
    ),
    ("omega", "300000", "100000", "300000"): (
        "e3e81646621e1dac9ecf53eefd281f445a3216eb1120af416c6cde66808b450e",
        "961090f5cf71cfaae24267561db45096c7d2780cf33ef45c9a844e6c1d6b30db",
    ),
    # the per-path sum over enumerate_paths
    ("poly", "7", "11", "--method", "brute"): (
        "7ef97bdb36ada91a118695c6d85c1ec61397053ad8167d5010fa1bb6bd6f0865",
        "97fce9dcffb8d592f74f12ef6b910da920dd2ca93fa3a1f3d7997bc17e06648c",
    ),
    ("poly", "11", "7", "--method", "brute"): (
        "7ef97bdb36ada91a118695c6d85c1ec61397053ad8167d5010fa1bb6bd6f0865",
        "97fce9dcffb8d592f74f12ef6b910da920dd2ca93fa3a1f3d7997bc17e06648c",
    ),
    # pinned before enumerate_paths built its paths from a suffix table:
    # (6,23) has more paths than one table holds, (7,30) walks a prefix of
    # several columns in front of the table, and (1099,2) a wide prefix
    # whose odometer steps by bisection
    ("enumerate", "6", "23"): (
        "c932ab3044c4b22a90fb2c73ee8764b69e61903ca9508f0608dc4923cda6fd87",
        "f8cd0557f8456837ec2e01bd82b6c68f7a9c52f17e1957ec5e283ea98afb64ff",
    ),
    ("enumerate", "7", "30"): (
        "697b5d9aa346ba638150d4e2ca565acfb3262ea7affa808d966e63d2e7e74ebc",
        "acd02da776db2eef2e3910634856178b408fb9aefa56243d4dc055576c8c0a41",
    ),
    ("enumerate", "1099", "2"): (
        "a40fea5d0b2a351de46570c3c70024547f7b78937f0da99805c0a14f071146a5",
        "30197ededfcad20d60f96bf031d32a5dd19617c7c6ac7dc7f004000bad2a966a",
    ),
}


class LongestWrite:
    """A stdout that keeps only the sha256 of what it is given and the
    length of its longest write."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.longest = 0

    def write(self, s):
        self.sha256.update(s.encode())
        self.longest = max(self.longest, len(s))
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", sorted(LARGE_OUTPUT_SHA256), ids=argv_id)
def test_large_output_is_pinned(capsys, monkeypatch, argv):
    # the output streams into its hash and is never held; a progression is
    # written a block of rows at a time, never whole: the run above n of the
    # word of omega 300000 100000 300000 alone is about 1.3 MB of text
    digests = []
    for fmt in ("text", "json"):
        spy = LongestWrite()
        monkeypatch.setattr(sys, "stdout", spy)
        code = main([*argv, "--format", fmt])
        assert (code, capsys.readouterr().err) == (0, "")
        assert spy.longest <= 2 * chunks.CHARS
        digests.append(spy.sha256.hexdigest())
    assert tuple(digests) == LARGE_OUTPUT_SHA256[argv]


def run_captured(*argv):
    """main(argv) with stdout and stderr captured, for use under hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def word_record(word):
    entries = [e._asdict() for e in word.entries]
    return {"n": word.n, "word": rankwords.render_word(word), "entries": entries}


def three_column_paths(max_n=40):
    return st.integers(1, max_n).filter(lambda n: n % 3).flatmap(
        lambda n: st.sampled_from(list(paths.enumerate_paths(3, n))))


def any_paths(max_mn=11):
    return st.sampled_from(oracles.coprime_pairs(max_mn)).flatmap(
        lambda mn: st.sampled_from(list(paths.enumerate_paths(*mn))))


@st.composite
def json_requests(draw):
    """(argv, the record built from library data) of a small request."""
    kind = draw(st.sampled_from(
        ["enumerate", "stats", "rankword", "omega", "brute", "closed", "bijection",
         "transpose"]))
    if kind == "enumerate":
        p = draw(any_paths())
        words = [paths.render_path(q) for q in paths.enumerate_paths(p.m, p.n)]
        return [kind, str(p.m), str(p.n)], {
            "m": p.m, "n": p.n, "count": len(words), "paths": words}
    if kind == "stats":
        p = draw(st.one_of(any_paths(), three_column_paths()))
        word = paths.render_path(p)
        record = {"path": word, "m": p.m, "n": p.n,
                  "area": stats.area(p), "dinv": stats.dinv(p)}
        if p.m == 3:
            marked = rankwords.mark_from_path(p)
            record.update(skips=stats.skips(p), boxed=sorted(marked.boxed),
                          rank_word=rankwords.render_word(marked))
        return [kind, word], record
    if kind == "rankword":
        if draw(st.booleans()):
            n = draw(st.integers(1, 200).filter(lambda n: n % 3))
            return [kind, str(n)], word_record(rankwords.lattice_rank_word(n))
        p = draw(three_column_paths())
        return [kind, paths.render_path(p)], word_record(rankwords.mark_from_path(p))
    if kind == "omega":
        t = stats.stat_triple(draw(three_column_paths()))
        word = rankwords.omega(*t)
        path = paths.render_path(rankwords.path_from_word(word))
        return [kind, *map(str, t)], {**word_record(word), **t._asdict(), "path": path}
    if kind in ("brute", "closed"):
        if kind == "closed":
            m, n = 3, draw(st.integers(1, 60).filter(lambda n: n % 3))
            poly = qtpoly.catalan3_closed_form(n)
        else:
            p = draw(any_paths())
            m, n = p.m, p.n
            poly = qtpoly.catalan_bruteforce(m, n)
        terms = [{"q": dq, "t": dt, "c": c} for dq, dt, c in poly.terms()]
        return ["poly", str(m), str(n), "--method", kind], terms
    p = draw(three_column_paths() if kind == "bijection" else any_paths())
    word = paths.render_path(p)
    if kind == "transpose":
        return [kind, word], {"path": word,
                              "transpose": paths.render_path(paths.transpose(p))}
    image = bijection.involution(p)
    return [kind, word], {
        "path": word, "image": paths.render_path(image),
        "triple": stats.stat_triple(p)._asdict(),
        "image_triple": stats.stat_triple(image)._asdict()}


@settings(max_examples=200, deadline=None)
@given(json_requests(), st.integers(1, 40))
def test_json_output_is_canonical_and_holds_the_library_data(request, chars):
    argv, expected = request
    # chunks of a few rows, so that small outputs span many of them
    with mock.patch.object(chunks, "CHARS", chars):
        code, out, err = run_captured(*argv, "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True) + "\n"
    assert obj == expected


def test_a_long_step_word_passes_through_argv(capsys):
    _, out, _ = run(capsys, "omega", "20000", "10000", "19999")
    path = out.splitlines()[1].removeprefix("path: ")
    assert len(path) == 50003

    def stats_in_a_child(word):
        return subprocess.run([sys.executable, "-m", "qtcatalan", "stats", word],
                              capture_output=True, text=True, env=child_env(), timeout=120)

    done = stats_in_a_child(path)
    assert done.returncode == 0
    assert {"area: 20000", "dinv: 19999", "skips: 10000"} <= set(done.stdout.splitlines())
    # character 25,001 replaced by X
    done = stats_in_a_child(path[:25000] + "X" + path[25001:])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: BadCharacter: ")
    assert done.stderr.endswith("found 'X'\n")


def test_the_largest_row_count_is_admitted_and_the_next_valid_one_refused(capsys):
    # 2**63 - 1 rows: only the first chunks are formatted, never the output
    n = qtpoly.COEFFICIENT_LIMIT
    for argv, text_head, json_head in [
        (["rankword", str(n)], "1_2 2_1 4_2 ", '{"entries": [{"boxed": false, "color": 2, '),
        (["omega", "0", "0", str(n - 1)], "word: [1_2] [2_1] ",
         f'{{"area": 0, "dinv": {n - 1}, "entries": [{{"boxed": true, "color": 2, '),
        (["poly", "3", str(n), "--method", "closed"], f"q^{n - 1} + q^{n - 2} t + ",
         f'[{{"c": 1, "q": {n - 1}, "t": 0}}, {{"c": 1, "q": {n - 2}, "t": 1}}, '),
    ]:
        args = cli.build_parser().parse_args(argv)
        handler = getattr(cli, f"cmd_{args.command}")
        for head, chunks_of in ((text_head, lambda out: out[1]),
                                (json_head, lambda out: cli._json(out[2]))):
            out = handler(args)  # anew: poly's two forms share one pass
            assert out[0] == 0
            assert "".join(islice(chunks_of(out), 10)).startswith(head)
    # 2**63 is not a multiple of 3, but it is one row too many
    code, out, err = run(capsys, "rankword", str(2**63))
    assert (code, out) == (2, "")
    assert err == f"error: CoefficientOverflow: n must be at most {n}, got {2**63}\n"
    # and one column too many
    for command in ("enumerate", "poly"):
        code, out, err = run(capsys, command, str(2**63), "1")
        assert (code, out) == (2, "")
        assert err == f"error: CoefficientOverflow: m must be at most {n}, got {2**63}\n"


def test_verify_passes_at_the_acceptance_bound_and_visits_every_object(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "31", "--max-mn", "14", "--format", "json")
    record = json.loads(out)
    assert (code, record["failed"]) == (0, 0)
    mn = ["serialization-roundtrip", "shape-monotone", "transpose-involution"]
    three = ["stat-identity", "stat-inequalities", "triple-uniqueness", "word-roundtrip",
             "triple-reconstruction", "triple-realizability", "involution"]
    assert {c["name"]: c["checked"] for c in record["checks"]} == {
        "path-count": 63, "poly-mn-symmetry": 32, "rank-positivity": 16335,
        "cell-classification": 16335, "closed-form": 21, "qt-symmetry": 21,
        **dict.fromkeys(mn, 1401), **dict.fromkeys(three, 1331)}
    assert run(capsys, "verify", "--max-n", "61", "--max-mn", "16")[0] == 0


def child_env():
    """The environment of a child process that runs this checkout's CLI."""
    # stdout block-buffered, as it is for a pipe by default, so a short
    # output reaches the pipe only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return env


def run_until_the_reader_leaves(argv, keep):
    """Run the CLI in a child process, read keep(stdout), then close the pipe."""
    child = subprocess.Popen(
        [sys.executable, "-m", "qtcatalan", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    head = keep(child.stdout)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=120), head, err


def loaded_modules(code):
    """The modules a fresh interpreter has loaded once it has run code."""
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=child_env(), timeout=120, check=True,
    )
    return set(done.stdout.split())


def test_importing_the_cli_loads_neither_verify_nor_dataclasses():
    bare, started = loaded_modules("pass"), loaded_modules("import qtcatalan.cli")
    assert "qtcatalan.cli" in started
    assert "qtcatalan.verify" not in started  # cmd_verify imports it
    # an interpreter's site may load dataclasses; the package adds no import of it
    assert "dataclasses" not in started - bare


def test_verify_imports_its_checks_in_a_fresh_process():
    done = subprocess.run([sys.executable, "-m", "qtcatalan", *VERIFY_5], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == SMALL_OUTPUTS[VERIFY_5]


# argparse's help of qtcatalan and of a command, and the head of each
HELP_REQUESTS = {("--help",): b"usage: qtcatalan ", ("poly", "-h"): b"usage: qtcatalan poly "}


@pytest.mark.parametrize("argv, keep, head", [
    # the reader leaves in the middle of a long output
    (["enumerate", "3", "200"], lambda out: out.readline(), b"N" * 67 + b"E"),
    (list(LATTICE_100001), lambda out: out.read(10), b"1_1 2_2 4_"),
    # the reader leaves before anything is written: the flush at the end hits it
    (list(LATTICE_5), lambda out: b"", b""),
    (["poly", "3", "5", "--method", "closed", "--format", "json"], lambda out: b"", b""),
    # argparse prints the help and exits before any command runs
    *((list(argv), lambda out: b"", b"") for argv in HELP_REQUESTS),
    # the reader leaves in the middle of a streamed JSON record
    ([*LATTICE_100001, *JSON], lambda out: out.read(10),
     b'{"entries"'),
    (["enumerate", "3", "200", "--format", "json"], lambda out: out.read1(),
     b'{"count": 6767, "m": 3, "n": 200, "paths": ["' + b"N" * 67 + b"E"),
])
def test_a_closed_pipe_exits_141_quietly(argv, keep, head):
    code, got, err = run_until_the_reader_leaves(argv, keep)
    assert code == 141
    assert got.startswith(head)
    assert err == b""


# Starts the command given in its argv and reports on stderr the command's
# exit code and peak RSS (ru_maxrss, KiB on Linux).  A child started
# straight from the test process would report the test process's peak too:
# Linux carries the peak RSS of the memory an exec replaces into the
# child's ru_maxrss, and subprocess starts children by vfork.
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


# enumerate 3 1000: 167,167 paths of 1,003 steps, about 168 MB in either form
LARGE_OUTPUT_SIZE = {
    "text": 167167 * 1004,  # a newline after each path
    "json": len('{"count": 167167, "m": 3, "n": 1000, "paths": []}\n')
    + 167167 * 1005 + 167166 * 2,  # quoted, and ", " between them
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("fmt", sorted(LARGE_OUTPUT_SIZE))
def test_a_large_output_streams_in_bounded_memory(fmt):
    child = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "qtcatalan",
         "enumerate", "3", "1000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    size = 0
    while chunk := child.stdout.read(1 << 20):
        size += len(chunk)
    child.stdout.close()
    report = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    code, peak_kib = map(int, report.split())
    assert (code, size) == (0, LARGE_OUTPUT_SIZE[fmt])
    assert peak_kib < 64 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_a_rebuilt_word_holds_no_set_of_its_ranks():
    # the word of (300000, 100000, 300000) boxes 500,000 of its 700,000
    # ranks; held as a set of ints, they peaked at about 103 MB
    child = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "qtcatalan",
         "omega", "300000", "100000", "300000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    head = child.stdout.read(12)
    while child.stdout.read(1 << 20):
        pass
    child.stdout.close()
    report = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    code, peak_kib = map(int, report.split())
    assert (code, head) == (0, b'{"area": 300')
    assert peak_kib < 50 * 1024


@pytest.mark.parametrize("argv, code, head", [
    *((list(argv), 0, head) for argv, head in HELP_REQUESTS.items()),
    (["poly", "3"], 2, b"usage: qtcatalan poly "),
])
def test_help_and_usage_errors_to_an_open_pipe(argv, code, head):
    got, stdout, stderr = run_until_the_reader_leaves(argv, lambda out: out.read())
    assert got == code
    # the help goes to stdout, a usage error to stderr, and nothing to the other
    assert (stdout if code == 0 else stderr).startswith(head)
    assert (stderr if code == 0 else stdout) == b""


# --help of qtcatalan and of each command at 80 columns, as Python 3.11
# prints it; 3.10 heads the options "optional arguments:"
HELP = {
    "": """\
usage: qtcatalan [-h]
                 {enumerate,stats,rankword,omega,poly,bijection,transpose,verify}
                 ...

Rational Dyck path statistics, rank words, and q,t-Catalan polynomials.

positional arguments:
  {enumerate,stats,rankword,omega,poly,bijection,transpose,verify}
    enumerate           list all (m,n)-Dyck paths as step words
    stats               statistics of one path given as a step word
    rankword            rank word of a lattice (give n) or of a path (give its
                        step word)
    omega               rebuild the marked rank word and path from (area,
                        skips, dinv)
    poly                the polynomial C_{m,n}(q,t)
    bijection           image of a (3,n)-path under the area/dinv exchange
    transpose           the complementary (n,m)-path
    verify              run the exhaustive property checks

options:
  -h, --help            show this help message and exit
""",
    "enumerate": """\
usage: qtcatalan enumerate [-h] [--format {text,json}] m n

positional arguments:
  m
  n

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "stats": """\
usage: qtcatalan stats [-h] [--format {text,json}] path

positional arguments:
  path                  step word over {N,E}, e.g. NNENNEE

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "rankword": """\
usage: qtcatalan rankword [-h] [--format {text,json}] target

positional arguments:
  target                row count n, or a step word

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "omega": """\
usage: qtcatalan omega [-h] [--format {text,json}] area skips dinv

positional arguments:
  area
  skips
  dinv

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "poly": """\
usage: qtcatalan poly [-h] [--format {text,json}] [--method {brute,closed}]
                      m n

positional arguments:
  m
  n

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --method {brute,closed}
                        sum over paths, or use the three-column closed form
""",
    "bijection": """\
usage: qtcatalan bijection [-h] [--format {text,json}] path

positional arguments:
  path                  step word over {N,E}

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "transpose": """\
usage: qtcatalan transpose [-h] [--format {text,json}] path

positional arguments:
  path                  step word over {N,E}

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
""",
    "verify": """\
usage: qtcatalan verify [-h] [--format {text,json}] [--max-n MAX_N]
                        [--max-mn MAX_MN]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --max-n MAX_N         bound on n for (3,n) checks
  --max-mn MAX_MN       bound on m+n for general checks
""",
}


@pytest.mark.parametrize("command", HELP)
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*command.split(), "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.replace("optional arguments:", "options:") == HELP[command]


def test_main_runs_the_handler_bound_at_the_call(capsys, monkeypatch):
    # the benchmark tracer rebinds cli.cmd_* after import: the parser must
    # dispatch to what the name holds when main runs
    seen = []

    def fake(args):
        seen.append(args.path)
        return 0, [], {}

    monkeypatch.setattr(cli, "cmd_transpose", fake)
    assert run(capsys, "transpose", "NE") == (0, "", "")
    assert seen == ["NE"]


def test_the_parser_is_built_once(capsys, monkeypatch):
    run(capsys, *STATS_PI2)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, *STATS_PI2) == SMALL_OUTPUTS[STATS_PI2]
    assert built == []
