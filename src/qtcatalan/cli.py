"""Command-line interface.

Subcommands: enumerate, stats, rankword, omega, poly, bijection,
transpose, verify.  Every command takes --format {text,json} and writes
deterministic output.  Exit codes: 0 success, 1 a verify property
failed, 2 bad usage or invalid input, 141 the reader closed stdout early.

A command NAME is a row (NAME, help, arguments) of COMMANDS and a
handler cmd_NAME(args), which main looks up by name at each call.  A
handler prints nothing: it returns (exit_code, text, record), two
zero-argument builders of the output's lines and of its JSON object,
and main builds and writes only the form --format chose.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable

from . import bijection, paths, qtpoly, rankwords, stats, verify
from .errors import UnsupportedM

Output = tuple[int, Callable[[], Iterable[str]], Callable[[], object]]


def cmd_enumerate(args) -> Output:
    words = [paths.render_path(p) for p in paths.enumerate_paths(args.m, args.n)]
    return (
        0,
        lambda: words,
        lambda: {"m": args.m, "n": args.n, "count": len(words), "paths": words},
    )


def cmd_stats(args) -> Output:
    p = paths.parse_path(args.path)
    obj = {
        "path": args.path,
        "m": p.m,
        "n": p.n,
        "area": stats.area(p),
        "dinv": stats.dinv(p),
    }
    lines = [
        f"m: {p.m}",
        f"n: {p.n}",
        f"area: {obj['area']}",
        f"dinv: {obj['dinv']}",
    ]
    if p.m == 3:
        word = rankwords.mark_from_path(p)
        obj["skips"] = stats.skips(p)
        obj["rank_word"] = rankwords.render_word(word)
        obj["boxed"] = sorted(word.boxed)
        lines.append(f"skips: {obj['skips']}")
        lines.append(f"rank word: {obj['rank_word']}")
    return 0, lambda: lines, lambda: obj


def _word_obj(word: rankwords.MarkedRankWord) -> dict:
    return {
        "n": word.n,
        "word": rankwords.render_word(word),
        "entries": [
            {"rank": r, "color": color, "boxed": boxed}
            for r, color, boxed in rankwords._listing(word)
        ],
    }


def cmd_rankword(args) -> Output:
    # isdecimal, not isdigit: int() rejects digits such as '²'
    if args.target.isdecimal():
        word = rankwords.lattice_rank_word(int(args.target))
    else:
        word = rankwords.mark_from_path(paths.parse_path(args.target))
    return 0, lambda: [rankwords.render_word(word)], lambda: _word_obj(word)


def cmd_omega(args) -> Output:
    word = rankwords.omega(args.area, args.skips, args.dinv)
    path = paths.render_path(rankwords.path_from_word(word))
    triple = {"area": args.area, "skips": args.skips, "dinv": args.dinv}
    return (
        0,
        lambda: [f"word: {rankwords.render_word(word)}", f"path: {path}"],
        lambda: {**_word_obj(word), **triple, "path": path},
    )


def cmd_poly(args) -> Output:
    if args.method == "closed":
        if args.m != 3:
            raise UnsupportedM(f"the closed form needs m = 3, got m = {args.m}")
        terms = qtpoly._closed_form_terms(args.n)
    else:
        terms = qtpoly.catalan_bruteforce(args.m, args.n).terms()
    return 0, lambda: [qtpoly.render_terms(terms)], lambda: qtpoly.json_terms(terms)


def cmd_bijection(args) -> Output:
    p = paths.parse_path(args.path)
    t = stats.stat_triple(p)
    image = bijection.involution(p)
    u = stats.stat_triple(image)
    lines = [
        f"image: {paths.render_path(image)}",
        f"triple: area={t.area} skips={t.skips} dinv={t.dinv}",
        f"image triple: area={u.area} skips={u.skips} dinv={u.dinv}",
    ]
    obj = {
        "path": args.path,
        "triple": t._asdict(),
        "image": paths.render_path(image),
        "image_triple": u._asdict(),
    }
    return 0, lambda: lines, lambda: obj


def cmd_transpose(args) -> Output:
    p = paths.parse_path(args.path)
    word = paths.render_path(paths.transpose(p))
    return 0, lambda: [word], lambda: {"path": args.path, "transpose": word}


def cmd_verify(args) -> Output:
    results = verify.run_all(max_n=args.max_n, max_mn=args.max_mn)
    failed = sum(not r.ok for r in results)
    passed = len(results) - failed

    def lines():
        for r in results:
            line = f"{'PASS' if r.ok else 'FAIL'}  {r.name:<24} {r.checked:>7} checked"
            if not r.ok:
                line += f"  counterexample: {r.counterexample}"
            yield line
        yield f"{passed} passed, {failed} failed"

    def obj():
        checks = [{**dataclasses.asdict(r), "ok": r.ok} for r in results]
        return {"passed": passed, "failed": failed, "checks": checks}

    return 1 if failed else 0, lines, obj


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
        if args.format == "json":
            print(json.dumps(record(), sort_keys=True))
        else:
            for line in text():
                print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to /dev/null, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a process a closed pipe ends
    except (ValueError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
