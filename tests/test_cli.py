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
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import bijection, chunks, cli, paths, qtpoly, rankwords, stats
from qtcatalan.cli import main

PI1_WORD = "NNNNNNEENNE"  # heights (6,6,8)
PI2_WORD = "NNNNNNNEENE"  # heights (7,7,8)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_on_worked_example(capsys):
    code, out, _ = run(capsys, "stats", PI2_WORD)
    assert code == 0
    assert out.splitlines() == [
        "m: 3",
        "n: 8",
        "area: 5",
        "dinv: 1",
        "skips: 1",
        "rank word: 1_1 2_2 4_1 [5_2] 7_1 10_1 [13_1]",
    ]


def test_stats_on_single_column_path(capsys):
    code, out, _ = run(capsys, "stats", "NNNNE")
    assert code == 0
    lines = out.splitlines()
    assert "area: 0" in lines
    assert "dinv: 0" in lines
    assert all(not line.startswith("skips") for line in lines)


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", PI2_WORD, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["area"] == 5
    assert obj["skips"] == 1
    assert obj["dinv"] == 1
    assert obj["boxed"] == [5, 13]


def test_stats_rejects_bad_characters(capsys):
    code, _, err = run(capsys, "stats", "NEX")
    assert code == 2
    assert "BadCharacter" in err
    assert len(err.strip().splitlines()) == 1


def test_enumerate_lists_paths_in_order(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "4")
    assert code == 0
    assert out.splitlines() == [
        "NNENENE",
        "NNENNEE",
        "NNNEENE",
        "NNNENEE",
        "NNNNEEE",
    ]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "4", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["count"] == 5
    assert len(obj["paths"]) == 5


def test_enumerate_a_single_path_of_many_columns(capsys):
    code, out, _ = run(capsys, "enumerate", "1100", "1")
    assert code == 0
    assert out == "N" + "E" * 1100 + "\n"


def test_enumerate_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "enumerate", "3", "6")
    assert code == 2
    assert "NotCoprime" in err


def test_rankword_of_a_lattice(capsys):
    code, out, _ = run(capsys, "rankword", "5")
    assert code == 0
    assert out.strip() == "1_1 2_2 4_1 7_1"


def test_rankword_of_a_path(capsys):
    code, out, _ = run(capsys, "rankword", PI1_WORD)
    assert code == 0
    assert out.strip() == "1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]"


def test_rankword_takes_a_decimal_row_count(capsys):
    # '\u0664' (ARABIC-INDIC DIGIT FOUR) is a decimal, and int() reads it as 4
    for fmt in ("text", "json"):
        assert run(capsys, "rankword", "\u0664", "--format", fmt) == run(
            capsys, "rankword", "4", "--format", fmt)
    # '\u00b2' (SUPERSCRIPT TWO) is a digit but no decimal, so it is read as a
    # step word
    assert run(capsys, "rankword", "\u00b2") == (
        2, "", "error: BadCharacter: step words use only N and E, found '\u00b2'\n")


def test_rankword_json_entries(capsys):
    code, out, _ = run(capsys, "rankword", "4", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["entries"] == [
        {"rank": 1, "color": 2, "boxed": False},
        {"rank": 2, "color": 1, "boxed": False},
        {"rank": 5, "color": 1, "boxed": False},
    ]


def test_omega_prints_word_and_path(capsys):
    code, out, _ = run(capsys, "omega", "3", "2", "2")
    assert code == 0
    assert out.splitlines() == [
        "word: 1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]",
        f"path: {PI1_WORD}",
    ]


def test_omega_rejects_invalid_triples(capsys):
    code, _, err = run(capsys, "omega", "1", "2", "3")
    assert code == 2
    assert "InvalidTriple" in err


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


def test_poly_closed_form(capsys):
    code, out, _ = run(capsys, "poly", "3", "5", "--method", "closed")
    assert code == 0
    assert out.strip() == "q^4 + q^3 t + q^2 t^2 + q t^3 + t^4 + q^2 t + q t^2"


def test_poly_brute_on_a_single_column_or_row_of_many_steps(capsys):
    # one path of 1100 columns: the walk sets each column without recursing
    for m, n in (("1100", "1"), ("1", "1100")):
        code, out, _ = run(capsys, "poly", m, n, "--method", "brute")
        assert (code, out) == (0, "1\n")


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
# sha256 of the text and JSON output of the per-path sum over enumerate_paths
C_7_11_SHA256 = (
    "7ef97bdb36ada91a118695c6d85c1ec61397053ad8167d5010fa1bb6bd6f0865",
    "97fce9dcffb8d592f74f12ef6b910da920dd2ca93fa3a1f3d7997bc17e06648c",
)
POLY_BRUTE_OUTPUT = {
    (1, 1): ONE, (1, 5): ONE, (5, 1): ONE,
    (2, 9): C_2_9, (9, 2): C_2_9, (3, 4): C_3_4, (4, 3): C_3_4,
}


@pytest.mark.parametrize("m, n", sorted(POLY_BRUTE_OUTPUT) + [(7, 11), (11, 7)])
def test_poly_brute_output_is_pinned(capsys, m, n):
    outputs = []
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "poly", str(m), str(n), "--method", "brute",
                             "--format", fmt)
        assert (code, err) == (0, "")
        outputs.append(out)
    if (m, n) in POLY_BRUTE_OUTPUT:
        assert tuple(outputs) == POLY_BRUTE_OUTPUT[m, n]
    else:
        digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs)
        assert digests == C_7_11_SHA256


def test_poly_brute_prints_one_polynomial_in_either_orientation(capsys):
    # poly walks only the side with fewer columns, so both outputs come from
    # one walk; test_mn_symmetry_of_bruteforce compares the walks of both sides
    for m, n in (("10", "11"), ("8", "23")):
        assert run(capsys, "poly", m, n, "--method", "brute") == run(
            capsys, "poly", n, m, "--method", "brute")


def test_poly_closed_rejects_bad_input(capsys):
    code, _, err = run(capsys, "poly", "3", "6", "--method", "closed")
    assert (code, err) == (2, "error: BadResidue: n must not be a multiple of 3, got 6\n")
    code, _, err = run(capsys, "poly", "4", "7", "--method", "closed")
    # the library's named error for a three-column operation on m != 3
    assert (code, err) == (2, "error: UnsupportedM: the closed form needs m = 3, got m = 4\n")


def test_poly_methods_agree(capsys):
    # rows whose end terms are literal segments, such as 1, q + t and q t,
    # and at n = 1001 exponents up to 1000, where the decimal table of
    # chunks.rows ends
    for n in ("1", "2", "4", "5", "7", "8", "1001"):
        for fmt in ("text", "json"):
            _, brute, _ = run(capsys, "poly", "3", n, "--format", fmt)
            _, closed, _ = run(capsys, "poly", "3", n, "--method", "closed", "--format", fmt)
            assert brute == closed


def test_bijection_output(capsys):
    code, out, _ = run(capsys, "bijection", PI1_WORD)
    assert code == 0
    assert out.splitlines() == [
        "image: NNNENNNNNEE",
        "triple: area=3 skips=2 dinv=2",
        "image triple: area=2 skips=2 dinv=3",
    ]


def test_bijection_rejects_wide_paths(capsys):
    code, _, err = run(capsys, "bijection", "NNNEE")  # a valid (2,3)-path
    assert code == 2
    assert "UnsupportedM" in err


def test_transpose_command(capsys):
    code, out, _ = run(capsys, "transpose", "NNNNE")
    assert code == 0
    assert out.strip() == "NEEEE"


@pytest.mark.parametrize("exc", [
    MemoryError(), RecursionError("maximum recursion depth exceeded"),
    KeyError("planted"), AssertionError("planted"),
], ids=lambda exc: type(exc).__name__)
def test_an_internal_error_exits_3_with_one_line(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_stats", broken)
    code, out, err = run(capsys, "stats", PI2_WORD)
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
    code = main(["stats", PI2_WORD])
    assert (code, sys.stderr.getvalue()) == (3, "error: internal: MemoryError: \n")
    assert alive_at_write and not any(alive_at_write)
    assert capsys.readouterr().out == ""


def test_an_interrupted_run_exits_130_quietly(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_stats", interrupted)
    assert run(capsys, "stats", PI2_WORD) == (130, "", "")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poly", "3", "5", "--method", "nonsense"])
    capsys.readouterr()
    assert info.value.code == 2


# `qtcatalan verify` at its default bounds: check names, order and counts
VERIFY_DEFAULT_TEXT = [
    "PASS  path-count                    45 checked",
    "PASS  serialization-roundtrip      431 checked",
    "PASS  shape-monotone               431 checked",
    "PASS  transpose-involution         431 checked",
    "PASS  poly-mn-symmetry              23 checked",
    "PASS  rank-positivity             1305 checked",
    "PASS  cell-classification         1305 checked",
    "PASS  stat-identity                216 checked",
    "PASS  stat-inequalities            216 checked",
    "PASS  triple-uniqueness            216 checked",
    "PASS  word-roundtrip               216 checked",
    "PASS  triple-reconstruction        216 checked",
    "PASS  triple-realizability         216 checked",
    "PASS  closed-form                   11 checked",
    "PASS  qt-symmetry                   11 checked",
    "PASS  involution                   216 checked",
    "16 passed, 0 failed",
]


def test_verify_text_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == VERIFY_DEFAULT_TEXT


def test_verify_reports_a_perturbed_statistic(capsys, monkeypatch):
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + 1)
    code, out, _ = run(capsys, "verify", "--max-n", "8", "--max-mn", "6")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


# `qtcatalan verify --max-n 5 --max-mn 5 --format json`, byte for byte: each
# check's record holds its fields and ok, a failed one its counterexample
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


def test_verify_json_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-mn", "5", "--format", "json")
    assert (code, out) == (0, VERIFY_5_JSON)


def test_verify_json_of_failed_checks_is_pinned(capsys, monkeypatch):
    real_dinv = stats.dinv
    monkeypatch.setattr(stats, "dinv", lambda p: real_dinv(p) + 1)
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-mn", "5", "--format", "json")
    assert (code, out) == (1, VERIFY_5_JSON_DINV_PLUS_ONE)


def test_text_output_builds_no_json(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("built the JSON form for text output")

    # the one JSON writer, and every value it writes through json.dumps
    monkeypatch.setattr(cli, "_json", refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    for argv in (["poly", "3", "5"], ["poly", "3", "5", "--method", "closed"],
                 ["rankword", "8"], ["rankword", PI1_WORD], ["omega", "3", "2", "2"],
                 ["enumerate", "3", "4"], ["stats", PI2_WORD], ["bijection", PI1_WORD],
                 ["transpose", "NNNNE"], ["verify", "--max-n", "7", "--max-mn", "7"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


# sha256 of the text and JSON output of large requests; the words and
# closed forms up to (60000, 5000, 20000) as printed when they were listed
# through RankEntry tuples and a sorted QtPolynomial
# heights (25001, 28001, 30001): it boxes k = 5000 < n/3 color-1 ranks, so
# its color-1 threshold 2n - 3k lies above n
MARKED_30001 = "N" * 25001 + "E" + "N" * 3000 + "E" + "N" * 2000 + "E"
LARGE_OUTPUT_SHA256 = {
    # the lattice word of n = 1 (mod 3) rows; 100001 below is n = 2 (mod 3)
    ("rankword", "100000"): (
        "47508efe5a353ca1699cf79df36ceea8de9fccccabfc64e3faed529c85de77bb",
        "c2bce77c3577bc7609990b04bccf0440cd0971b7b2b95cbafcfca9206b44abc9",
    ),
    ("rankword", "100001"): (
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


def argv_id(argv):
    """A pinned case's id: its argv, with the long step word by its name,
    so that adding a case renames no other."""
    return " ".join("MARKED_30001" if a == MARKED_30001 else a for a in argv)


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
    pairs = [(m, n) for m in range(1, max_mn) for n in range(1, max_mn - m + 1)
             if gcd(m, n) == 1]
    return st.sampled_from(pairs).flatmap(
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


@pytest.mark.parametrize("argv", [
    ["enumerate", "4", "6"], ["enumerate", "0", "5"], ["omega", "3", "6", "8"],
    ["rankword", "30"], ["poly", "4", "7", "--method", "closed"],
    # row counts whose progressions have no len: refused before any output
    ["omega", "0", "0", "99999999999999999999"], ["rankword", "99999999999999999998"],
    ["poly", "3", "99999999999999999998", "--method", "closed"],
    # lattice sides that index no tuple: refused before a count is written or a walk starts
    ["enumerate", "1", "99999999999999999999"], ["enumerate", "2", "99999999999999999999"],
    ["enumerate", "3", "99999999999999999998"], ["enumerate", "99999999999999999999", "2"],
    ["enumerate", "99999999999999999999", "99999999999999999998"],
    ["poly", "2", "99999999999999999999"], ["poly", "99999999999999999999", "2"],
    ["poly", "3", "99999999999999999998"],
], ids=" ".join)
def test_a_failing_request_writes_nothing_to_stdout(capsys, argv):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "40", "41"], ["enumerate", "3037000499", "3037000498"],
    # a row count, lattice side or path count above 2^63 - 1, as
    # test_a_failing_request_writes_nothing_to_stdout runs them in process
    ["omega", "0", "0", "99999999999999999999"], ["rankword", "99999999999999999998"],
    ["poly", "3", "99999999999999999998", "--method", "closed"],
    ["enumerate", "1", "99999999999999999999"], ["enumerate", "2", "99999999999999999999"],
    ["enumerate", "3", "99999999999999999998"], ["enumerate", "99999999999999999999", "2"],
    ["enumerate", "99999999999999999999", "99999999999999999998"],
    ["poly", "2", "99999999999999999999"], ["poly", "99999999999999999999", "2"],
    ["poly", "3", "99999999999999999998"],
], ids=" ".join)
def test_enumerate_refuses_a_lattice_of_more_than_the_cap_paths(argv, fmt):
    # in a child with a timeout, so that a request that streams paths
    # without end, or a count that never ends, fails the test
    done = subprocess.run(
        [sys.executable, "-m", "qtcatalan", *argv, "--format", fmt],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: CoefficientOverflow: ")
    assert len(done.stderr.splitlines()) == 1


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


@pytest.mark.parametrize("bounds", [
    ["--max-n", "-5", "--max-mn", "-1"], ["--max-n", "0"], ["--max-mn", "1"],
])
def test_verify_rejects_bounds_that_select_nothing(capsys, bounds):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", *bounds, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: EmptyBound: ")
        assert len(err.splitlines()) == 1


def test_verify_accepts_the_smallest_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-mn", "2")
    assert code == 0
    assert out.splitlines()[-1] == "16 passed, 0 failed"


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
    argv = ["verify", "--max-n", "5", "--max-mn", "5", "--format", "json"]
    done = subprocess.run([sys.executable, "-m", "qtcatalan", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY_5_JSON, "")


@pytest.mark.parametrize("argv, keep, head", [
    # the reader leaves in the middle of a long output
    (["enumerate", "3", "200"], lambda out: out.readline(), b"N" * 67 + b"E"),
    (["rankword", "100001"], lambda out: out.read(10), b"1_1 2_2 4_"),
    # the reader leaves before anything is written: the flush at the end hits it
    (["rankword", "5"], lambda out: b"", b""),
    (["poly", "3", "5", "--method", "closed", "--format", "json"], lambda out: b"", b""),
    # argparse prints the help and exits before any command runs
    (["--help"], lambda out: b"", b""),
    (["poly", "-h"], lambda out: b"", b""),
    # the reader leaves in the middle of a streamed JSON record
    (["rankword", "100001", "--format", "json"], lambda out: out.read(10),
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
    (["--help"], 0, b"usage: qtcatalan "),
    (["poly", "-h"], 0, b"usage: qtcatalan poly "),
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
        main([command, "--help"] if command else ["--help"])
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


# a request of each command: main writes what the handler returns
HANDLER_REQUESTS = [
    ["enumerate", "3", "4"], ["stats", PI2_WORD], ["stats", "NNNNE"],
    ["rankword", "8"], ["rankword", PI1_WORD], ["omega", "3", "2", "2"],
    ["poly", "3", "5"], ["poly", "3", "5", "--method", "closed"],
    ["bijection", PI1_WORD], ["transpose", "NNNNE"],
    ["verify", "--max-n", "7", "--max-mn", "7"],
]


@pytest.mark.parametrize("argv", HANDLER_REQUESTS, ids=" ".join)
def test_a_handler_returns_its_output_and_prints_nothing(capsys, argv):
    for fmt in ("text", "json"):
        args = cli.build_parser().parse_args([*argv, "--format", fmt])
        code, text, record = getattr(cli, f"cmd_{argv[0]}")(args)
        assert capsys.readouterr() == ("", "")
        form = "".join([*cli._json(record), "\n"] if fmt == "json" else text)
        assert capsys.readouterr() == ("", "")
        assert run(capsys, *argv, "--format", fmt) == (code, form, "")


def test_every_command_has_a_handler():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == [name for name, _help, _arguments in cli.COMMANDS]
    assert {argv[0] for argv in HANDLER_REQUESTS} == set(commands)
    for name in commands:
        assert callable(getattr(cli, f"cmd_{name}", None)), name


def test_the_parser_is_built_once(capsys, monkeypatch):
    run(capsys, "transpose", "NNNNE")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "transpose", "NNNNE") == (0, "NEEEE\n", "")
    assert built == []
