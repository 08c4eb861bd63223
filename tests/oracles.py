"""Independent brute-force reference implementations used only by tests.

Each oracle takes a different route than the library: paths are generated
as raw step words and filtered point by point, area is counted cell by
cell from corner positions, dinv uses Fraction arithmetic over an
explicit cell set, skips works by string surgery on the boxed flags, the
rank word is sorted from the cell ranks instead of read off residues, a
path's marking is the set of its cell ranks, omega walks that sorted
word entry by entry, transpose goes through the step word, the sweep
map reorders the step word, so its area is a third route to dinv, and a
step word is read one character at a time.  heights_by_odometer lists a
lattice's paths one height tuple at a time, in lexicographic order, and
coprime_pairs lists the lattices that tests sweep: every coprime (m, n)
with m + n at most a bound, generated here rather than by verify, so that
a fault in verify's generator cannot also shrink the tests' inputs.

It also defines, once, the worked examples the tests share: PI1 and PI2,
the paper's (3,8)-paths of east-step heights (6,6,8) and (7,7,8);
CLASSICAL_C3, the classical C_{3,4}(q,t); and SWAP_NE, the translation
table that swaps N and E in a step word.
"""

from fractions import Fraction
from itertools import combinations, groupby
from math import gcd

from qtcatalan.errors import BadCharacter
from qtcatalan.paths import make_path, parse_path, render_path
from qtcatalan.qtpoly import QtPolynomial

PI1 = make_path(3, 8, [6, 6, 8])
PI2 = make_path(3, 8, [7, 7, 8])
CLASSICAL_C3 = QtPolynomial({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1})
SWAP_NE = str.maketrans("NE", "EN")


def coprime_pairs(max_mn):
    """Every (m, n) with gcd 1 and m + n <= max_mn, by m + n, then by m."""
    return [(m, total - m) for total in range(2, max_mn + 1) for m in range(1, total)
            if gcd(m, total - m) == 1]


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


def dinv_by_cells(m, n, east_heights):
    """Straddle count over an explicit cell set with Fraction arithmetic."""
    cells = {
        (a, b)
        for a in range(1, m + 1)
        for b in range(east_heights[a - 1] + 1, n + 1)
    }
    slope = Fraction(m, n)
    count = 0
    for a, b in cells:
        arm = sum(1 for (c, r) in cells if r == b and c > a)
        leg = sum(1 for (c, r) in cells if c == a and r < b)
        if Fraction(arm, leg + 1) < slope and (
            leg == 0 or slope < Fraction(arm + 1, leg)
        ):
            count += 1
    return count


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
