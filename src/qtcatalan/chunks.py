"""Long outputs as a stream of text chunks.

A rank word has n - 1 entries, C_{3,n}(q,t) about n^2/6 terms and the
(m,n)-lattice count_paths(m, n) paths of m + n steps, so the CLI writes
these outputs a chunk at a time and no layer holds the whole output.
rows writes a whole output given as segments, progressions and literal
rows: a word's runs, or the closed form's rows with their end terms.  It
takes its numbers from a table of decimal strings, and where a block of
rows shares one high part, each number with the literal after it from a
cached table of such strings, keyed by the literal; joined writes the
rest (enumerate's paths, brute-force terms).
"""

from __future__ import annotations

import functools
from itertools import islice
from typing import Iterable, Iterator, Sequence

CHARS = 1 << 17  # the length a chunk aims at
_BASE = 1000  # the decimal table holds str(0.._BASE - 1)


def joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """sep.join(items) as chunks of about CHARS characters; none for no items.

    Each chunk takes as many items as would have made the one before it
    CHARS long, so a polynomial's terms, a few characters each, and a
    lattice's paths, m + n steps each, both come in chunks of about that
    length.  A chunk holds at least one item.
    """
    items = iter(items)
    count, lead = 1, ""
    while block := list(islice(items, count)):
        chunk = lead + sep.join(block)
        yield chunk
        count = max(1, count * CHARS // max(len(chunk), 1))
        lead = sep


@functools.cache
def _digits() -> tuple[list[str], list[str]]:
    """str(i), and i zero-padded to three digits, for i < _BASE; built on first use."""
    return [str(i) for i in range(_BASE)], [f"{i:03d}" for i in range(_BASE)]


@functools.lru_cache(maxsize=32)
def _numbered(literal: str, padded: bool) -> tuple[str, ...]:
    """Each entry of the decimal table (padded or plain) with literal after it."""
    return tuple([digits + literal for digits in _digits()[padded]])


def rows(segments: Iterable[tuple[str, Sequence[range]]], sep: str) -> Iterator[str]:
    """sep.join of every row of every segment, in turn, as chunks; none for no rows.

    A segment is (template, columns): template holds one "%d" per column,
    and its rows are template % row for row in zip(*columns), the columns
    ranges of one length with nonnegative members, of either sign of step.
    A segment with no columns is one literal row, template itself, and a
    segment of empty columns has no rows and adds no sep.  A chunk is a
    block of one segment's rows, joined once.  A number is its high part
    x // _BASE, when nonzero, and an entry of a table of str(0.._BASE - 1),
    zero-padded after a high part.  When every column of a block is in one
    high part H, its rows are H.join of one string per number, that
    number's table entry with the literal after it, so each column's share
    is one slice of a cached table of such strings; otherwise the block is
    one list that holds the literals and the numbers' slices apart, filled
    by extended-slice assignment.  A block ends where a high part changes
    or at about CHARS characters (read at the call), and holds at least
    one row.
    """
    plain, padded = _digits()
    lead = ""  # sep once a row is written
    for template, columns in segments:
        if not columns:
            yield lead + template
            lead = sep
            continue
        pieces = template.split("%d")
        width = len(columns)
        after = pieces[1:]  # the literal after each column; the last one runs on
        after[-1] += sep + pieces[0]  # to the next row's start
        done, count = 0, len(columns[0])
        while done < count:
            # a row at most: the template with 3 digits per "%d", sep and the high parts
            take, size, parts, highs = count - done, len(template) + len(sep) + width, [], []
            for column in columns:
                high, low = divmod(column[done], _BASE)
                step = column.step
                # the rows before the column leaves its high part
                left = (_BASE - 1 - low) // step if step > 0 else low // -step
                take = min(take, left + 1)
                high = str(high) if high else ""
                size += len(high)
                parts.append((low, step))
                highs.append(high)
            take = min(take, max(1, CHARS // size))
            first = highs[0]
            if highs.count(first) == width:
                # one string per number, the literal after it included; the
                # last number takes the template's end in place of its run-on
                block = [None] * (width * take)
                for j, (low, step) in enumerate(parts):
                    stop = low + step * take
                    block[j::width] = _numbered(after[j], first != "")[
                        low:stop if stop >= 0 else None:step]
                block[-1] = (padded if first else plain)[low + step * (take - 1)] + pieces[-1]
                yield lead + pieces[0] + first + first.join(block)
            else:
                # a number and the literal after it, with the next column's high part
                block = [None] * (2 * width * take + 1)
                block[0] = lead + pieces[0] + first
                for j, (low, step) in enumerate(parts):
                    stop = low + step * take
                    block[2 * j + 1::2 * width] = (padded if highs[j] else plain)[
                        low:stop if stop >= 0 else None:step]
                    block[2 * j + 2::2 * width] = [after[j] + highs[(j + 1) % width]] * take
                block[-1] = pieces[-1]
                yield "".join(block)
            done += take
            lead = sep
