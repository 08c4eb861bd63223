import argparse
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import bijection, chunks, cli, paths, qtpoly, rankwords, stats, verify
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

# verify's pinned bounds (max_n, max_mn): the defaults, the smallest that
# select a lattice (the cell checks find no cell), 5/5, the acceptance bound
# and 61/16, where the whole run visits 537,183 objects
VERIFY_BOUNDS = ((16, 12), (1, 2), (5, 5), (31, 14), (61, 16))
# each check of verify.CHECKS, in order: the objects it visits at each of
# VERIFY_BOUNDS, and its result at 5/5 with dinv one too high, None when it
# passes, else (checked, counterexample); a new check is one row
VERIFY = {
    "path-count": ((45, 1, 9, 63, 79), None),
    "serialization-roundtrip": ((431, 1, 11, 1401, 4505), None),
    "shape-monotone": ((431, 1, 11, 1401, 4505), None),
    "transpose-involution": ((431, 1, 11, 1401, 4505), None),
    "poly-mn-symmetry": ((23, 1, 5, 32, 40), None),
    "rank-positivity": ((1305, 0, 24, 16335, 229320), None),
    "cell-classification": (
        (1305, 0, 24, 16335, 229320), (1, "n=1 (1, 1, 1): 0 contributing cells, dinv 1")),
    "stat-identity": ((216, 1, 15, 1331, 9261), (1, "n=1 (1, 1, 1): 0+0+1 != 0")),
    "stat-inequalities": ((216, 1, 15, 1331, 9261), (1, "n=1 (1, 1, 1): triple (0,0,1)")),
    "triple-uniqueness": ((216, 1, 15, 1331, 9261), None),
    "word-roundtrip": ((216, 1, 15, 1331, 9261), None),
    "triple-reconstruction": ((216, 1, 15, 1331, 9261), (1, "n=1 (1, 1, 1): omega(0,0,1) differs")),
    "triple-realizability": ((216, 1, 15, 1331, 9261), (1, "n=1: mismatch at (0, 0, 0)")),
    "closed-form": ((11, 1, 4, 21, 41), None),
    "qt-symmetry": ((11, 1, 4, 21, 41), None),
    "involution": ((216, 1, 15, 1331, 9261), (1, "n=1 (1, 1, 1): triple not swapped")),
}


def verify_results(bounds, dinv_plus_one=False):
    """Each check's (name, checked, counterexample) at bounds, one of
    VERIFY_BOUNDS; with dinv_plus_one, at 5/5 with dinv one too high."""
    column = VERIFY_BOUNDS.index(bounds)
    return [(name, *(failed if dinv_plus_one and failed else (counts[column], None)))
            for name, (counts, failed) in VERIFY.items()]


def verify_text(results):
    """verify's text: a PASS or FAIL line per check, then the summary."""
    lines = []
    for name, checked, c in results:
        line = f"{'PASS' if c is None else 'FAIL'}  {name:<24} {checked:>7} checked"
        lines.append(line if c is None else f"{line}  counterexample: {c}")
    failed = sum(c is not None for *_, c in results)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    return "".join(f"{line}\n" for line in lines)


def verify_json(results):
    """verify's JSON: each check's record holds its fields and ok."""
    checks = [{"name": name, "checked": checked, "counterexample": c, "ok": c is None}
              for name, checked, c in results]
    failed = sum(not check["ok"] for check in checks)
    record = {"passed": len(checks) - failed, "failed": failed, "checks": checks}
    return json.dumps(record, sort_keys=True) + "\n"


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
    ("verify",): ok(verify_text(verify_results((16, 12)))),
    VERIFY_5: ok(verify_json(verify_results((5, 5)))),
    ("verify", "--max-n", "1", "--max-mn", "2"): ok(verify_text(verify_results((1, 2)))),
    **{(*argv, *fmt): (2, "", err) for argv, err in REFUSED.items() for fmt in ((), JSON)},
}


def argv_id(argv):
    """A pinned case's id: its argv, with the long step word by its name,
    so that adding a case renames no other."""
    return " ".join("MARKED_30001" if a == MARKED_30001 else a for a in argv)


@pytest.mark.parametrize("argv", SMALL_OUTPUTS, ids=argv_id)
def test_a_small_request_prints_its_pinned_bytes(capsys, argv):
    assert run(capsys, *argv) == SMALL_OUTPUTS[argv]


def readme_examples():
    """argv -> the lines README shows under it, of each `$ qtcatalan` example
    under "Command line"; a last line "..." stands for the rest of the output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    examples = {}
    for example in block.split("\n\n"):
        command, *lines = example.splitlines()
        assert command.startswith("$ qtcatalan ") and "..." not in lines[:-1], example
        examples[tuple(shlex.split(command.removeprefix("$ qtcatalan ")))] = lines
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_shows_what_each_example_prints(capsys, argv):
    code, out, err = run(capsys, *argv)
    shown, lines = README_EXAMPLES[argv], out.splitlines()
    if shown[-1] == "...":
        shown, lines = shown[:-1], lines[:len(shown) - 1]
    assert (code, lines, err) == (0, shown, "")


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


# the failure contract's open gap: one object too large to build, which CPython
# refuses before it allocates (a few ms, under 0.3 MB), ends in the internal exit 3
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exits 3 with 'error: internal: MemoryError: '")
@pytest.mark.parametrize("argv", [("poly", "2", str(LIMIT)), ("enumerate", "1", str(LIMIT))],
                         ids=argv_id)
def test_a_request_for_one_object_too_large_to_build_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: [A-Z]\w*: .+\n", err)


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


def test_verify_pins_are_built_as_the_cli_writes_them(capsys, monkeypatch):
    assert list(VERIFY) == [name for name, _, _ in verify.CHECKS]
    results = [("path-count", 9, None), ("involution", 1, "n=1 (1, 1, 1): triple not swapped")]
    monkeypatch.setattr(verify, "run_all", lambda **_: [verify.CheckResult(*r) for r in results])
    text = ("PASS  path-count                     9 checked\n"
            "FAIL  involution                     1 checked  counterexample: n=1 (1, 1, 1): "
            "triple not swapped\n"
            "1 passed, 1 failed\n")
    assert run(capsys, *VERIFY_5_TEXT) == (1, text, "")
    assert verify_text(results) == text


@pytest.mark.parametrize("argv, build", [(VERIFY_5_TEXT, verify_text), (VERIFY_5, verify_json)],
                         ids=["text", "json"])
def test_verify_output_of_failed_checks_is_pinned(capsys, monkeypatch, argv, build):
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + 1)
    assert run(capsys, *argv) == (1, build(verify_results((5, 5), dinv_plus_one=True)), "")


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
    assert run(capsys, "verify", "--max-n", "31", "--max-mn", "14", *JSON) == ok(
        verify_json(verify_results((31, 14))))
    assert run(capsys, "verify", "--max-n", "61", "--max-mn", "16") == ok(
        verify_text(verify_results((61, 16))))


def child_env():
    """The environment of a child process that runs this checkout's CLI."""
    # stdout block-buffered, as it is for a pipe by default, so a short
    # output reaches the pipe only when it is flushed; argparse at 80 columns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    env["COLUMNS"] = "80"
    return env


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
    out = capsys.readouterr().out.replace("optional arguments:", "options:")  # 3.10
    if not command:  # 3.13 keeps the top-level usage's "..." on the line of its choices
        out = out.replace("verify} ...\n", "verify}\n                 ...\n", 1)
    assert out == HELP[command]


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


# Starts the command after its first argument, kills it after that many
# seconds, and reports on stderr its exit code and peak RSS (ru_maxrss, KiB
# on Linux).  A child started straight from the test process would report
# the test process's peak too: Linux carries the peak RSS of the memory an
# exec replaces into the child's ru_maxrss, and subprocess starts by vfork.
LAUNCHER = """\
import os, signal, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
signal.signal(signal.SIGALRM, lambda *_: child.kill())
signal.alarm(int(sys.argv[1]))
_, status, usage = os.wait4(child.pid, 0)
signal.alarm(0)
child.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen does not warn
print(child.returncode, usage.ru_maxrss, file=sys.stderr)
"""


def launch(argv, keep, timeout):
    """The CLI run on argv in a child started through LAUNCHER: its exit code,
    keep(its stdout) read before the pipe closes, its stderr and ru_maxrss."""
    with subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(timeout), sys.executable, "-m", "qtcatalan", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), start_new_session=True,
    ) as child:
        try:
            kept = keep(child.stdout)
            child.stdout.close()
            *err, report = child.stderr.read().decode().splitlines(keepends=True)
            code, peak = map(int, report.split())
            return code, kept, "".join(err), peak
        except BaseException:
            # the launcher and the CLI share a process group: kill both, and
            # leaving the with block waits for the launcher
            with suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            raise


# what a reader keeps of stdout before it closes the pipe: all of it, the
# first k bytes before it leaves, the number of bytes read to the end a MiB
# at a time, or the first k bytes with the rest read to the end
def everything(out):
    return out.read()


def leave_after(k):
    return lambda out: out.read(k)


def size(out):
    return sum(map(len, iter(partial(out.read, 1 << 20), b"")))


def head(k):
    def keep(out):
        kept = out.read(k)
        size(out)
        return kept
    return keep


class Run(NamedTuple):
    """A CLI run in a child process: its argv, what its reader keeps of
    stdout, the exit code, kept stdout and whole stderr it must show, its
    bound on peak RSS in MiB if any, and the seconds after which it is killed."""

    argv: tuple
    keep: Callable
    code: int
    out: bytes | int
    err: str = ""
    mib: int | None = None
    timeout: int = 120


# the floors of (3,200), its first path
FLOORS_3_200 = b"N" * 67 + b"E" + b"N" * 67 + b"E" + b"N" * 66 + b"E"
JSON_3_200 = b'{"count": 6767, "m": 3, "n": 200, "paths": ["' + FLOORS_3_200
# a 50,003-step word passed through argv, also with its character 25,001 an X
LONG_WORD = paths.render_path(rankwords.path_from_word(rankwords.omega(20000, 10000, 19999)))
LONG_STATS = b"m: 3\nn: 50000\narea: 20000\ndinv: 19999\nskips: 10000\nrank word: "
# argparse's help of qtcatalan and of a command, and the head of each
HELP_HEADS = {("--help",): b"usage: qtcatalan ", ("poly", "-h"): b"usage: qtcatalan poly "}

RUNS = {
    # the reader leaves in the middle of a long output, or of a streamed
    # JSON record: the run exits 141 quietly
    "enumerate 3 200, one line": Run(
        ("enumerate", "3", "200"), lambda out: out.readline(), 141, FLOORS_3_200 + b"\n"),
    "rankword 100001, 10 bytes": Run(LATTICE_100001, leave_after(10), 141, b"1_1 2_2 4_"),
    "rankword 100001 json, 10 bytes": Run(
        (*LATTICE_100001, *JSON), leave_after(10), 141, b'{"entries"'),
    "enumerate 3 200 json, its first path": Run(
        ("enumerate", "3", "200", *JSON), leave_after(len(JSON_3_200)), 141, JSON_3_200),
    # the reader leaves before anything is written: the flush at the end hits
    # it, or argparse's, which prints the help and exits before any command
    # runs; to an open pipe the help goes to stdout and a usage error to stderr
    **{f"{' '.join(argv)}, nothing": Run(argv, leave_after(0), 141, b"")
       for argv in (LATTICE_5, ("poly", "3", "5", "--method", "closed", *JSON), *HELP_HEADS)},
    **{f"{' '.join(argv)}, its head": Run(argv, head(len(h)), 0, h)
       for argv, h in HELP_HEADS.items()},
    "poly 3": Run(("poly", "3"), everything, 2, b"", HELP["poly"].partition("\n\n")[0]
                  + "\nqtcatalan poly: error: the following arguments are required: n\n"),
    # the CLI imports verify's checks only when it runs them
    "verify 5/5 json": Run(VERIFY_5, everything, 0, SMALL_OUTPUTS[VERIFY_5][1].encode()),
    "stats of a 50,003-step word": Run(("stats", LONG_WORD), head(len(LONG_STATS)), 0, LONG_STATS),
    "stats of that word with an X": Run(
        ("stats", LONG_WORD[:25000] + "X" + LONG_WORD[25001:]), everything, 2, b"",
        "error: BadCharacter: step words use only N and E, found 'X'\n"),
    # large outputs stream in bounded memory: 167,167 paths of 1,003 steps,
    # about 168 MB in either form, a newline after each path, or each quoted,
    # with ", " between them
    "enumerate 3 1000 text": Run(
        ("enumerate", "3", "1000", "--format", "text"), size, 0, 167167 * 1004, mib=64),
    "enumerate 3 1000 json": Run(
        ("enumerate", "3", "1000", *JSON), size, 0,
        len('{"count": 167167, "m": 3, "n": 1000, "paths": []}\n') + 167167 * 1005 + 167166 * 2,
        mib=64),
    # the word of (300000, 100000, 300000) boxes 500,000 of its 700,000
    # ranks: the run peaked at 16 MiB, and at 48 MiB with them held as a set
    # of ints (CPython 3.11)
    "omega 300000 100000 300000 json": Run(
        ("omega", "300000", "100000", "300000", *JSON), head(12), 0, b'{"area": 300', mib=32),
    # the requests above the 2^63 - 1 cap, killed after 10 s, so that one that
    # streams paths without end, or a count that never ends, fails
    **{" ".join(argv): Run(argv, everything, code, out.encode(), err, timeout=10)
       for argv, (code, out, err) in SMALL_OUTPUTS.items()
       if err.startswith("error: CoefficientOverflow: ")},
}


@pytest.mark.parametrize("name", RUNS)
def test_a_run_in_a_child_process_shows_its_pinned_exit_output_and_memory(name):
    row = RUNS[name]
    code, kept, err, peak = launch(row.argv, row.keep, row.timeout)
    assert (code, kept, err) == (row.code, row.out, row.err)
    if row.mib is not None and sys.platform.startswith("linux"):  # ru_maxrss in KiB
        assert peak < row.mib * 1024
