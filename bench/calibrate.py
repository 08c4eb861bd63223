"""A fixed piece of interpreter work, timed next to every measured segment.

The speed of a shared virtual CPU drifts by up to 1.5x over seconds, and
both wall and CPU time follow it.  kernel() does the same pure-Python work
every time (calls, tuples, lists, dicts, strings, sorting) and uses no
qtcatalan code, so its time measures the machine, not the program.  A
segment's seconds times REFERENCE_S over the kernel's seconds around it
gives the segment's time at the reference speed: a change to the program
moves that figure, a change of machine speed mostly does not.
"""

from __future__ import annotations

import time

# Seconds kernel() takes on a 2-vCPU x86-64 VM in its fast state with
# CPython 3.11.  It only fixes the scale; changing it rescales every figure.
REFERENCE_S = 0.004


def _area(heights, n: int) -> int:
    return sum(y - (-(-a * n // 3)) for a, y in enumerate(heights, start=1))


def kernel(reps: int = 80) -> int:
    seen: dict[str, int] = {}
    acc = 0
    for r in range(reps):
        n = 40 + r % 7
        for x in range(0, n, 2):
            y = (x + r) % n
            heights = tuple(sorted((x, y if y >= x else x, n)))
            acc += _area(heights, n)
            key = "N" * (heights[0] % 5) + "E" + str(heights[1])
            seen[key] = seen.get(key, 0) + 1
        words = sorted(seen, key=len)
        acc += len("".join(words[:20]))
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
