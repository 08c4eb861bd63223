"""Command-line interface.

The subcommands are the rows of COMMANDS.  Every command takes --format
{text,json} and writes deterministic output.  Exit codes: 0 success, 1 a
verify property failed, 2 bad usage or invalid input, 3 an internal
error (MemoryError, RecursionError or any other unexpected exception,
named in one "error: internal: " line on stderr, with no traceback),
130 interrupted (128 + SIGINT), 141 the reader closed stdout early
(128 + SIGPIPE).

A command NAME is a row (NAME, help, arguments) of COMMANDS and a
handler cmd_NAME(args), which main looks up by name at each call.  A
handler prints nothing: it returns (exit_code, text, record).  text is
the text output as a lazy iterable of str chunks; record is the JSON
output as plain data, which _json writes.  A handler runs every check
and every computation that can raise before it returns, so what is left
only formats and a failing request writes nothing to stdout.

Outputs that grow with n (a word's entries, rendering and boxed ranks, a
term list, a path list, omega's step word) are written a piece at a
time: a word's runs and the closed form's rows by chunks.rows, omega's
step word a column at a time by _step_chunks, and the rest by
chunks.joined, so no layer holds the whole output.  stats, bijection
and transpose write the step word they echo or transpose from argv in
one piece: argv holds it whole already.  In a record such a value is an
iterator of its own JSON text, rows written from one fixed template per
row kind.  _json is the one JSON writer: every record it writes is
json.dumps(record, sort_keys=True) byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, starmap

from . import bijection, chunks, paths, qtpoly, rankwords, stats
from .chunks import joined, rows
from .errors import UnsupportedM

Output = tuple[int, Iterable[str], object]


def _template(row: dict) -> str:
    """json.dumps(row, sort_keys=True), each "%d" value a %d slot."""
    return json.dumps(row, sort_keys=True).replace('"%d"', "%d")


# a word entry's JSON row, one template per (color, boxed)
_ENTRY = {
    (c, b): _template({"boxed": b, "color": c, "rank": "%d"})
    for c in (1, 2) for b in (False, True)
}
# a boxed rank of a word's sorted boxed list; unboxed entries are left out
_BOXED = {(1, True): "%d", (2, True): "%d"}
_TERM = _template({"c": "%d", "q": "%d", "t": "%d"})
# every closed-form coefficient is 1
_UNIT_TERM = _template({"c": 1, "q": "%d", "t": "%d"})


def _json(record: object) -> Iterator[str]:
    """json.dumps(record, sort_keys=True) as chunks.

    An iterator value is taken as its own JSON text and written as it comes.
    """
    if isinstance(record, dict):
        yield "{"
        for i, key in enumerate(sorted(record)):
            yield f'{", " if i else ""}{json.dumps(key)}: '
            yield from _json(record[key])
        yield "}"
    elif isinstance(record, Iterator):
        yield from record
    else:
        yield json.dumps(record, sort_keys=True)


def _array(rows: Iterable[str]) -> Iterator[str]:
    """The JSON array of rows, each the JSON text of one item."""
    return chain("[", joined(rows, ", "), "]")


def cmd_enumerate(args) -> Output:
    m, n = args.m, args.n
    count = paths._bounded_count(m, n)  # checks lattice and count: enumerate_paths is lazy
    words = map(paths.render_path, paths.enumerate_paths(m, n))  # main reads one form
    # rendered here, so that a first path too large to build fails before any output
    words = chain([next(words)], words)
    record = {"count": count, "m": m, "n": n, "paths": _array(f'"{w}"' for w in words)}
    return 0, chain(joined(words, "\n"), "\n"), record


def cmd_stats(args) -> Output:
    p = paths.parse_path(args.path)
    area, dinv = stats.area(p), stats.dinv(p)
    obj = {"path": args.path, "m": p.m, "n": p.n, "area": area, "dinv": dinv}
    text = [f"m: {p.m}\nn: {p.n}\narea: {area}\ndinv: {dinv}\n"]
    if p.m == 3:
        word = rankwords.mark_from_path(p)
        obj["skips"] = skips = stats.skips(p)
        obj["rank_word"] = chain('"', rankwords._word_chunks(word), '"')
        obj["boxed"] = chain("[", rankwords._formatted(word, _BOXED, ", "), "]")
        rendered = rankwords._word_chunks(word)
        text = chain(text, [f"skips: {skips}\nrank word: "], rendered, "\n")
    return 0, text, obj


def _word_record(word: rankwords.MarkedRankWord) -> dict[str, object]:
    """The JSON record of a word: its entries, n and rendering."""
    return {
        "entries": chain("[", rankwords._formatted(word, _ENTRY, ", "), "]"),
        "n": word.n,
        "word": chain('"', rankwords._word_chunks(word), '"'),
    }


def cmd_rankword(args) -> Output:
    # isdecimal, not isdigit: int() rejects digits such as '²'
    if args.target.isdecimal():
        word = rankwords.lattice_rank_word(int(args.target))
    else:
        word = rankwords.mark_from_path(paths.parse_path(args.target))
    return 0, chain(rankwords._word_chunks(word), "\n"), _word_record(word)


def _step_chunks(p: paths.DyckPath) -> Iterator[str]:
    """render_path(p) as one piece per column, "N" * north + "E".

    A run of at least chunks.CHARS north steps (read at the call) first
    yields pieces of exactly CHARS, so no piece is longer.
    """
    chars, prev = chunks.CHARS, 0
    for y in p.east_heights:
        north, prev = y - prev, y
        while north >= chars:
            yield "N" * chars
            north -= chars
        yield "N" * north + "E"


def cmd_omega(args) -> Output:
    a, s, d = args.area, args.skips, args.dinv
    word = rankwords.omega(a, s, d)
    p = rankwords.path_from_word(word)
    steps = _step_chunks(p)  # main reads one form; a step word needs no escape
    text = chain(["word: "], rankwords._word_chunks(word), ["\npath: "], steps, ["\n"])
    path = chain('"', _step_chunks(p), '"')
    record = {**_word_record(word), "area": a, "dinv": d, "path": path, "skips": s}
    return 0, text, record


def cmd_poly(args) -> Output:
    if args.method == "closed":
        if args.m != 3:
            raise UnsupportedM(f"the closed form needs m = 3, got m = {args.m}")
        closed_rows = qtpoly._closed_form_rows(args.n)  # one pass: main reads one form
        text = rows(chain.from_iterable(starmap(qtpoly._row_text, closed_rows)), " + ")
        json_rows = rows(((_UNIT_TERM, row) for row in closed_rows), ", ")
        return 0, chain(text, "\n"), chain("[", json_rows, "]")
    terms = qtpoly.catalan_bruteforce(args.m, args.n).terms()
    text = joined(starmap(qtpoly._render_term, terms), " + ")  # never empty: a lattice has paths
    json_rows = (_TERM % (c, dq, dt) for dq, dt, c in terms)
    return 0, chain(text, "\n"), _array(json_rows)


def cmd_bijection(args) -> Output:
    p = paths.parse_path(args.path)
    t = stats.stat_triple(p)
    image = bijection.involution(p)
    u = stats.stat_triple(image)
    obj = {
        "path": args.path,
        "triple": t._asdict(),
        "image": paths.render_path(image),
        "image_triple": u._asdict(),
    }
    text = (
        f"image: {obj['image']}\n"
        f"triple: area={t.area} skips={t.skips} dinv={t.dinv}\n"
        f"image triple: area={u.area} skips={u.skips} dinv={u.dinv}\n"
    )
    return 0, [text], obj


def cmd_transpose(args) -> Output:
    p = paths.parse_path(args.path)
    word = paths.render_path(paths.transpose(p))
    return 0, [f"{word}\n"], {"path": args.path, "transpose": word}


def cmd_verify(args) -> Output:
    from . import verify  # only this command runs the checks: other requests skip the import

    results = verify.run_all(max_n=args.max_n, max_mn=args.max_mn)
    failed = sum(not r.ok for r in results)
    passed = len(results) - failed
    lines = []
    for r in results:
        line = f"{'PASS' if r.ok else 'FAIL'}  {r.name:<24} {r.checked:>7} checked"
        if not r.ok:
            line += f"  counterexample: {r.counterexample}"
        lines.append(line)
    lines.append(f"{passed} passed, {failed} failed")
    checks = [{"name": r.name, "checked": r.checked, "counterexample": r.counterexample,
               "ok": r.ok} for r in results]
    obj = {"passed": passed, "failed": failed, "checks": checks}
    return 1 if failed else 0, ["".join(f"{line}\n" for line in lines)], obj


_M, _N = ("m", {"type": int}), ("n", {"type": int})
_STEP_WORD = ("path", {"help": "step word over {N,E}"})
COMMANDS = (
    ("enumerate", "list all (m,n)-Dyck paths as step words", [_M, _N]),
    ("stats", "statistics of one path given as a step word",
     [("path", {"help": "step word over {N,E}, e.g. NNENNEE"})]),
    ("rankword", "rank word of a lattice (give n) or of a path (give its step word)",
     [("target", {"help": "row count n, or a step word"})]),
    ("omega", "rebuild the marked rank word and path from (area, skips, dinv)",
     [(name, {"type": int}) for name in ("area", "skips", "dinv")]),
    ("poly", "the polynomial C_{m,n}(q,t)", [_M, _N, ("--method", {
        "choices": ("brute", "closed"), "default": "brute",
        "help": "sum over paths, or use the three-column closed form"})]),
    ("bijection", "image of a (3,n)-path under the area/dinv exchange", [_STEP_WORD]),
    ("transpose", "the complementary (n,m)-path", [_STEP_WORD]),
    ("verify", "run the exhaustive property checks",
     [("--max-n", {"type": int, "default": 16,
                   "help": "bound on n for (3,n) checks"}),
      ("--max-mn", {"type": int, "default": 12,
                    "help": "bound on m+n for general checks"})]),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtcatalan",
        description=(
            "Rational Dyck path statistics, rank words, and q,t-Catalan "
            "polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help has printed: a closed pipe raises here
            raise
        # found by name at each call: bench/tracing.py rebinds cli.cmd_* after import
        code, text, record = globals()[f"cmd_{args.command}"](args)
        write = sys.stdout.write
        for chunk in chain(_json(record), "\n") if args.format == "json" else text:
            write(chunk)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to /dev/null, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a process a closed pipe ends
    except (ValueError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT
    except Exception as exc:  # a fault of the program, not of the request
        # past the handler nothing holds the failed frames or the work in them
        fault = exc.with_traceback(None)
    print(f"error: internal: {type(fault).__name__}: {fault}", file=sys.stderr)
    return 3

