"""Long outputs as a stream of text chunks.

A rank word has n - 1 entries, C_{3,n}(q,t) about n^2/6 terms and the
(m,n)-lattice count_paths(m, n) paths of m + n steps, so the CLI writes
these outputs a chunk at a time and no layer holds the whole output.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

CHARS = 1 << 17  # the length a chunk aims at


def joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """sep.join(items) as chunks of about CHARS characters; none for no items.

    Each chunk takes as many items as would have made the one before it
    CHARS long, so a word's entries or a polynomial's terms, a few
    characters each, and a lattice's paths, m + n steps each, all come in
    chunks of about that length.  A chunk holds at least one item.
    """
    items = iter(items)
    rows, lead = 1, ""
    while block := list(islice(items, rows)):
        chunk = lead + sep.join(block)
        yield chunk
        rows = max(1, rows * CHARS // max(len(chunk), 1))
        lead = sep
