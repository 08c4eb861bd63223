"""Independent brute-force reference implementations used only by tests.

Each oracle takes a different route than the library: paths are generated
as raw step words and filtered point by point, area is counted cell by
cell from corner positions, arm, leg and dinv over an explicit cell set
(dinv with Fraction arithmetic), skips works by string surgery on the
boxed flags, the rank word is sorted from the cell ranks instead of read
off residues, a path's marking is the set of its cell ranks, omega walks
that sorted word entry by entry, transpose goes through the step word,
the sweep map reorders the step word, so its area is a third route to
dinv, a step word is read one character at a time, and
heights_by_odometer lists a lattice's paths in lexicographic order.  Only
dinv_cells_by_column reads the library: per column, the cells its one-cell
test accepts.

The inputs that tests sweep are generated here rather than by verify, so
that a fault in verify's generators cannot also shrink them: coprime
lattices, row counts, triples, markings and twenty seeded 100,000-row
paths.  So are the worked examples: PI1 and PI2, the paper's (3,8)-paths
of east-step heights (6,6,8) and (7,7,8); CLASSICAL_C3, the classical
C_{3,4}(q,t); and SWAP_NE, which swaps N and E in a step word.  No test
framework is imported: the benchmark loads this file by its path.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd

from qtcatalan.errors import BadCharacter
from qtcatalan.paths import make_path, parse_path, render_path, shape_cells
from qtcatalan.qtpoly import QtPolynomial
from qtcatalan.stats import contributes_to_dinv

PI1 = make_path(3, 8, [6, 6, 8])
PI2 = make_path(3, 8, [7, 7, 8])
CLASSICAL_C3 = QtPolynomial({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1})
SWAP_NE = str.maketrans("NE", "EN")


def coprime_pairs(max_mn):
    """Every (m, n) with gcd 1 and m + n <= max_mn, by m + n, then by m."""
    return [(m, total - m) for total in range(2, max_mn + 1) for m in range(1, total)
            if gcd(m, total - m) == 1]


def row_counts(max_n):
    """Every three-column row count n <= max_n, that is, every n not a multiple of 3."""
    return [n for n in range(1, max_n + 1) if n % 3]


def triples(max_total):
    """Every (a, s, d) of naturals with a + s + d <= max_total, by sum, then a, then s."""
    return ((a, s, total - a - s) for total in range(max_total + 1)
            for a in range(total + 1) for s in range(total + 1 - a))


def large_three_column_paths():
    """Twenty seeded (3,n)-paths, n = 100000 and 100001: for each n the lowest and
    highest, two with q +- 1 cells above the first column (q = n // 3), six random."""
    rng = random.Random(20141)
    found = []
    for n in (100000, 100001):
        low1, low2, q = -(-n // 3), -(-2 * n // 3), n // 3
        found += [make_path(3, n, [low1, low2, n]), make_path(3, n, [n, n, n])]
        for y1 in [n - q - 1, n - q + 1] + [rng.randint(low1, n) for _ in range(6)]:
            found.append(make_path(3, n, [y1, rng.randint(max(y1, low2), n), n]))
    return found


def paths_by_filter(m, n):
    """All (m,n) step words, built from scratch and filtered pointwise."""
    words = []
    total = m + n
    for east_positions in combinations(range(total), m):
        word = ["N"] * total
        for i in east_positions:
            word[i] = "E"
        x = y = 0
        ok = True
        for ch in word:
            if ch == "E":
                x += 1
            else:
                y += 1
            if m * y < n * x:  # strayed below the diagonal
                ok = False
                break
        if ok:
            words.append("".join(word))
    return words


def heights_by_odometer(m, n):
    """Every (m,n)-path's heights, in lexicographic order, one at a time.

    From the lowest path, raise the last height below n (the final height
    is always n) and drop every height after it to its lowest value.
    """
    floors = [-(-a * n // m) for a in range(1, m + 1)]
    heights = list(floors)  # the lowest path; floors weakly increase
    while True:
        yield tuple(heights)
        a = m - 2
        while a >= 0 and heights[a] == n:
            a -= 1
        if a < 0:
            return
        heights[a] += 1
        for b in range(a + 1, m):
            heights[b] = max(heights[b - 1], floors[b])


def heights_by_scan(word):
    """(m, n, east heights) of a step word, read one character at a time.

    Raises BadCharacter on the first character other than N and E.
    """
    heights = []
    north = 0
    for ch in word:
        if ch == "N":
            north += 1
        elif ch == "E":
            heights.append(north)
        else:
            raise BadCharacter(f"step words use only N and E, found {ch!r}")
    return len(heights), north, tuple(heights)


def area_by_cells(m, n, east_heights):
    """Cells below the path whose interior lies strictly above the diagonal."""
    total = 0
    for a in range(1, m + 1):
        for b in range(1, east_heights[a - 1] + 1):
            # lower-right corner (a, b-1) on or above the line m*y = n*x
            if m * (b - 1) >= n * a:
                total += 1
    return total


def arms_and_legs(m, n, east_heights):
    """Each cell (column, row) above the path by its (arm, leg): the cells of
    the explicit cell set east of it in its row, and south of it in its column."""
    cells = {(a, b) for a in range(1, m + 1) for b in range(east_heights[a - 1] + 1, n + 1)}
    return {(a, b): (sum(1 for c, r in cells if r == b and c > a),
                     sum(1 for c, r in cells if c == a and r < b)) for a, b in cells}


def dinv_by_cells(m, n, east_heights):
    """Straddle count over an explicit cell set with Fraction arithmetic."""
    slope = Fraction(m, n)
    return sum(1 for arm, leg in arms_and_legs(m, n, east_heights).values()
               if Fraction(arm, leg + 1) < slope and (leg == 0 or slope < Fraction(arm + 1, leg)))


def dinv_cells_by_column(p):
    """The cells above p that contributes_to_dinv accepts, counted per column."""
    counts = Counter(x.column for x in shape_cells(p) if contributes_to_dinv(p, x))
    return [counts[a] for a in range(1, p.m + 1)]


def skips_by_runs(flags):
    """Skips of a boxed/unboxed flag sequence via strip-and-group."""
    core = "".join("B" if f else "U" for f in flags).strip("U")
    return sum(1 for ch, _ in groupby(core) if ch == "U")


def rank_word_by_sorting(n):
    """(rank, color) pairs of the positive cell ranks -a*n + 3*(b-1), sorted."""
    return sorted(
        (-a * n + 3 * (b - 1), a)
        for a in (1, 2, 3)
        for b in range(1, n + 1)
        if -a * n + 3 * (b - 1) > 0
    )


def marking_by_cells(n, east_heights):
    """Ranks -a*n + 3*(b-1) of the cells above a (3,n)-path."""
    return {
        -a * n + 3 * (b - 1)
        for a in (1, 2, 3)
        for b in range(east_heights[a - 1] + 1, n + 1)
    }


def every_marking(n):
    """Every set of ranks of the n-row rank word, by size, then in word order."""
    ranks = [r for r, _ in rank_word_by_sorting(n)]
    return (frozenset(c) for size in range(len(ranks) + 1) for c in combinations(ranks, size))


def omega_by_walk(a, s, d):
    """Boxed ranks of the word with area a, skips s, dinv d, by the paper's walk.

    Box the rightmost d entries outright.  Then, s times, pass the maximal
    run of same-colored entries next to the processed region (one skip)
    and box the entry just past it.  Takes a valid triple.
    """
    n = a + s + d + 1
    boxed = []
    run = None  # color of the unboxed run being skipped
    for r, color in reversed(rank_word_by_sorting(n)):
        if len(boxed) == d + s:
            break
        if len(boxed) < d or run not in (None, color):
            boxed.append(r)
            run = None
        else:
            run = color  # opens or extends the skipped run
    # valid triples always leave an entry beyond each skipped run
    assert len(boxed) == d + s
    return frozenset(boxed)


def transpose_by_word(p):
    """The (n,m)-path read from p's step word reversed with N and E swapped.

    parse_path validates the image, so a wrong word raises.
    """
    return parse_path(render_path(p)[::-1].translate(SWAP_NE))


def sweep(p):
    """The sweep map: p's steps read in increasing level m*y - n*x of their start.

    x counts the E steps before a step and y the N steps.  For coprime m
    and n the m + n start levels are distinct, and the image of an
    (m,n)-Dyck path is one with area equal to the path's dinv
    (Armstrong, Loehr and Warrington 2016; Gorsky and Mazin 2013).
    parse_path validates the image.
    """
    x = y = 0
    leveled = []
    for ch in render_path(p):
        leveled.append((p.m * y - p.n * x, ch))
        if ch == "E":
            x += 1
        else:
            y += 1
    return parse_path("".join(ch for _, ch in sorted(leveled)))
