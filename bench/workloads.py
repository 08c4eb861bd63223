"""Seeded inputs, CLI requests and the output checks of the four workloads.

Inputs come only from the seed.  The seed picks n values, (m,n) pairs,
paths and triples from sets whose members cost about the same, so the
amount of work per pass stays fixed while the inputs change.  Checks use
formulas computed here and the oracles in tests/oracles.py, not the code
under test, wherever that is cheap.
"""

from __future__ import annotations

import importlib.util
import json
import random
from itertools import combinations
from math import comb, gcd
from statistics import median

TRACEBACK = "Traceback (most recent call last)"


class Tally:
    """Requests attempted and failed; 'wrong' counts failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        self.wrong += kind == "wrong"
        if len(self.reasons) < 10:
            self.reasons.append(f"{kind}: {reason}")


def load_oracles(root):
    """tests/oracles.py of the checkout at root, the independent references."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Passes a run makes at the default --seconds 20, in proportion otherwise.
# A pass count, not a clock, ends a run, so its work and its attempted and
# failed counts depend on the seed alone.  On a 2-vCPU x86-64 VM a run takes
# 15-50 s; cli_single, whose large-object requests vary most from one run
# to the next, gets the most passes.
PASSES = {"sweep3": 4, "general_mn": 4, "verify": 5, "cli_single": 5}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / 20))


def run_passes(count: int, passes: int, run_segment) -> list[list[float]]:
    """Run segments 0..count-1 in order, passes times over.  run_segment(i)
    returns the seconds segment i took.  Returns every segment's samples.
    """
    samples: list[list[float]] = [[] for _ in range(count)]
    for _ in range(passes):
        for i in range(count):
            samples[i].append(run_segment(i))
    return samples


def pass_seconds(samples: list[list[float]]) -> float:
    """One pass, summed from the median run of each segment.

    Other tenants of a shared machine slow it in bursts; a burst hits some
    segments of some passes, and each segment's median drops it out.
    """
    return sum(median(s) for s in samples)


def count_paths(m: int, n: int) -> int:
    return comb(m + n, m) // (m + n)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def word_of(heights) -> str:
    parts, prev = [], 0
    for y in heights:
        parts.append("N" * (y - prev) + "E")
        prev = y
    return "".join(parts)


def heights_of(word: str) -> list[int]:
    heights, north = [], 0
    for ch in word:
        if ch == "N":
            north += 1
        elif ch == "E":
            heights.append(north)
        else:
            raise ValueError(f"not a step word: {ch!r}")
    return heights


def area_of(m: int, n: int, heights) -> int:
    """Full cells between a path and the diagonal, from its heights."""
    return sum(y - ceil_div(a * n, m) for a, y in enumerate(heights, start=1))


def boxed_ranks(n: int, heights) -> set[int]:
    """Ranks -a*n + 3*(b-1) of the cells above a (3,n)-path."""
    return {
        -a * n + 3 * (b - 1)
        for a, y in enumerate(heights[:2], start=1)
        for b in range(y + 1, n + 1)
    }


# sweep3: one seeded n from the band.  All its paths are enumerated and
# catalan_bruteforce(3,n) is checked against the closed form; the per-path
# pipeline runs on a seeded sample whose size balances the cost of the pass
# across the band.  Cost model, fitted on a 2-vCPU x86-64 VM with CPython
# 3.11: the pipeline takes 2.64 ms per path at n = 100 and 3.58 ms at
# n = 130, brute force plus closed form 0.32 s and 0.65 s.
SWEEP3_BAND = [n for n in range(100, 131) if n % 3]
SWEEP3_PASS_MS = 3000


def sweep3_sample_size(n: int) -> int:
    x = n / 100
    return round((SWEEP3_PASS_MS - 321 * x ** 2.7) / (2.64 * x ** 1.15))


# general_mn: subsets of the pairs m < n, both >= 4, m+n in {18, 19},
# whose cost, paths times m*n, is within 2% of (7,12)+(8,11)+(9,10).
GENERAL_PAIRS = [
    (m, s - m) for s in (18, 19) for m in range(4, s) if m < s - m and gcd(m, s - m) == 1
]


def general_cost(pair) -> int:
    m, n = pair
    return count_paths(m, n) * m * n


_GENERAL_TARGET = sum(map(general_cost, [(7, 12), (8, 11), (9, 10)]))
GENERAL_CHOICES = [
    subset
    for k in range(1, len(GENERAL_PAIRS) + 1)
    for subset in combinations(GENERAL_PAIRS, k)
    if abs(sum(map(general_cost, subset)) - _GENERAL_TARGET) <= 0.02 * _GENERAL_TARGET
]

# The bounds of `qtcatalan verify --max-n 31 --max-mn 14`, by check scope.
VERIFY_BOUNDS = {"n": 31, "mn": 14}


def random_path(rng: random.Random, m: int, n: int) -> list[int]:
    heights, prev = [], 0
    for a in range(1, m + 1):
        prev = rng.randint(max(prev, ceil_div(a * n, m)), n)
        heights.append(prev)
    return heights


def random_n3(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([n for n in range(lo, hi + 1) if n % 3])


def shaped_path(rng: random.Random, n: int) -> list[int]:
    """A (3,n)-path with about 0.55n and 0.25n cells above its first two columns."""
    c1 = round(n * rng.uniform(0.545, 0.555))
    c2 = round(n * rng.uniform(0.245, 0.255))
    return [n - c1, n - c2, n]


def small_triple(rng: random.Random) -> tuple[int, int, int]:
    n = random_n3(rng, 8, 20)
    s = rng.randint(0, (n - 1) // 3)
    a = rng.randint(s, n - 1 - 2 * s)
    return a, s, n - 1 - s - a


def cli_requests(rng: random.Random) -> list[dict]:
    """One pass of cli_single: small commands, large objects, failure cases."""
    requests = []

    def add(group, argv, kind, exit_code=0, **expect):
        requests.append(
            {"group": group, "argv": argv, "exit": exit_code, "expect": dict(kind=kind, **expect)}
        )

    for _ in range(3):
        n = random_n3(rng, 8, 20)
        h = random_path(rng, 3, n)
        add("small", ["stats", word_of(h)], "stats", heights=h, format="text")
        a, s, d = small_triple(rng)
        add("small", ["omega", str(a), str(s), str(d)], "omega", triple=[a, s, d], format="text")
        n = random_n3(rng, 8, 20)
        h = random_path(rng, 3, n)
        add("small", ["bijection", word_of(h)], "bijection", heights=h, format="text")
        m, n = rng.choice([(m, n) for m in range(2, 7) for n in range(3, 13) if gcd(m, n) == 1])
        w = word_of(random_path(rng, m, n))
        add("small", ["transpose", w], "transpose", word=w, format="text")

    n30k = random_n3(rng, 30000, 30030)
    h30k = shaped_path(rng, n30k)
    w30k = word_of(h30k)
    n100k = random_n3(rng, 100000, 100030)
    s = round(n100k * rng.uniform(0.195, 0.205))
    a = round(n100k * rng.uniform(0.395, 0.405))
    triple = [a, s, n100k - 1 - s - a]
    n1000 = random_n3(rng, 1000, 1005)
    for fmt in ("text", "json"):
        opt = ["--format", fmt]
        add("large", ["stats", *opt, w30k], "stats", heights=h30k, format=fmt)
        add("large", ["bijection", *opt, w30k], "bijection", heights=h30k, format=fmt)
        add("large", ["rankword", *opt, w30k], "rankword", n=n30k, heights=h30k, format=fmt)
        add("large", ["rankword", *opt, str(n100k)], "rankword", n=n100k, heights=None, format=fmt)
        add("large", ["omega", *opt, *map(str, triple)], "omega", triple=triple, format=fmt)
        add("large", ["poly", *opt, "3", str(n1000), "--method", "closed"], "poly", n=n1000, format=fmt)

    a = rng.randint(0, 5)
    s = a + rng.randint(1, 3)
    d = rng.randint(s, s + 5)
    add("failure", ["omega", str(a), str(s), str(d)], "error", 2, name="InvalidTriple")
    add("failure", ["rankword", str(3 * rng.randint(10, 1000))], "error", 2, name="BadResidue")
    bad = list(word_of(random_path(rng, 3, random_n3(rng, 8, 20))))
    bad[rng.randrange(len(bad))] = rng.choice("XYZnex")
    add("failure", ["stats", "".join(bad)], "error", 2, name="BadCharacter")
    # enumerate recursing once per column is a known defect: today this
    # ends in RecursionError with exit 1 and counts as a failed request.
    add("failure", ["enumerate", "1100", "1"], "stdout", text="N" + "E" * 1100 + "\n")
    return requests


def generate(workload: str, seed: int) -> dict:
    """The inputs of one pass, and their sizes, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep3":
        n = rng.choice(SWEEP3_BAND)
        total = count_paths(3, n)
        sample = sorted(rng.sample(range(total), sweep3_sample_size(n)))
        return {"n": n, "sample": sample, "sizes": {
            "n": n, "paths_visited_per_pass": 2 * total + len(sample),
            "path_requests_per_pass": len(sample), "poly_requests_per_pass": 1,
            "word_entries_per_path": n - 1,
        }}
    if workload == "general_mn":
        pairs = [list(p) for p in rng.choice(GENERAL_CHOICES)]
        rng.shuffle(pairs)
        paths = sum(count_paths(m, n) for m, n in pairs)
        return {"pairs": pairs, "sizes": {
            "pairs": pairs, "paths_visited_per_pass": 3 * paths,
            "transpose_requests_per_pass": paths,
            "poly_requests_per_pass": 2 * len(pairs),
        }}
    if workload == "verify":
        return {"bounds": VERIFY_BOUNDS, "sizes": {
            "checks_per_pass": 16, "bounds": VERIFY_BOUNDS,
            "three_column_paths": sum(count_paths(3, n) for n in range(1, 32) if n % 3),
        }}
    if workload == "cli_single":
        requests = cli_requests(rng)
        groups = {}
        for r in requests:
            groups[r["group"]] = groups.get(r["group"], 0) + 1
        return {"requests": requests, "sizes": {
            "requests_per_pass": len(requests), "requests_per_group": groups,
            "large_n": sorted({r["expect"]["n"] for r in requests
                               if r["expect"]["kind"] in ("rankword", "poly")}),
        }}
    raise ValueError(f"unknown workload {workload!r}")


# ---- output checks ---------------------------------------------------------


def judge(request: dict, returncode: int, stdout: str, stderr: str, oracles):
    """None for a good request, else (kind, reason).

    kind "error": a traceback or an exit code other than the expected one.
    kind "wrong": the expected exit, but the output failed its check.
    """
    if TRACEBACK in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return "error", f"traceback: {last}"
    if returncode != request["exit"]:
        return "error", f"exit {returncode}, expected {request['exit']}"
    expect = request["expect"]
    try:
        reason = _CHECKS[expect["kind"]](expect, stdout, stderr, oracles)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if reason is None else ("wrong", reason)


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines())


def _word_reason(word: str, n: int, boxed: set[int]) -> str | None:
    """Check a rendered rank word against n and the expected boxed ranks."""
    tokens = word.split()
    if len(tokens) != n - 1:
        return f"rank word has {len(tokens)} entries, expected {n - 1}"
    seen, prev = set(), 0
    for tok in tokens:
        rank, color = map(int, tok.strip("[]").split("_"))
        if rank <= prev or rank >= 2 * n:
            return f"rank {rank} out of order or range"
        if color not in (1, 2) or (rank + color * n) % 3:
            return f"entry {tok} has the wrong color"
        if tok.startswith("["):
            seen.add(rank)
        prev = rank
    if seen != boxed:
        return "boxed entries differ from the cells above the path"
    return None


def _flags(word: str) -> list[bool]:
    return [tok.startswith("[") for tok in word.split()]


def _check_stats(expect, stdout, _stderr, oracles):
    h = expect["heights"]
    n = h[-1]
    if expect["format"] == "json":
        obj = json.loads(stdout)
        a, s, d, word = obj["area"], obj["skips"], obj["dinv"], obj["rank_word"]
        if sorted(obj["boxed"]) != sorted(boxed_ranks(n, h)):
            return "boxed list differs from the cells above the path"
        m, nn = obj["m"], obj["n"]
    else:
        f = _fields(stdout)
        a, s, d, word = int(f["area"]), int(f["skips"]), int(f["dinv"]), f["rank word"]
        m, nn = int(f["m"]), int(f["n"])
    if (m, nn) != (3, n):
        return f"reported (m,n) = ({m},{nn}), expected (3,{n})"
    if a + s + d != n - 1:
        return f"area+skips+dinv = {a + s + d}, expected {n - 1}"
    if a != oracles.area_by_cells(3, n, h):
        return "area differs from the cell-count oracle"
    if s != oracles.skips_by_runs(_flags(word)):
        return "skips differs from the run-count oracle"
    return _word_reason(word, n, boxed_ranks(n, h))


def _triple(text: str) -> tuple[int, int, int]:
    f = dict(part.split("=") for part in text.split())
    return int(f["area"]), int(f["skips"]), int(f["dinv"])


def _check_bijection(expect, stdout, _stderr, oracles):
    h = expect["heights"]
    n = h[-1]
    if expect["format"] == "json":
        obj = json.loads(stdout)
        image = obj["image"]
        t = tuple(obj["triple"][k] for k in ("area", "skips", "dinv"))
        u = tuple(obj["image_triple"][k] for k in ("area", "skips", "dinv"))
    else:
        f = _fields(stdout)
        image, t, u = f["image"], _triple(f["triple"]), _triple(f["image triple"])
    ih = heights_of(image)
    if len(ih) != 3 or ih[-1] != n:
        return "image is not a (3,n)-path"
    if sum(t) != n - 1 or t[0] != oracles.area_by_cells(3, n, h):
        return f"triple {t} fails the identity or the area oracle"
    if u != (t[2], t[1], t[0]):
        return f"image triple {u} is not the swap of {t}"
    if oracles.area_by_cells(3, n, ih) != t[2]:
        return "image area differs from the path's dinv"
    return None


def _check_rankword(expect, stdout, _stderr, _oracles):
    n, h = expect["n"], expect["heights"]
    boxed = boxed_ranks(n, h) if h else set()
    if expect["format"] == "json":
        obj = json.loads(stdout)
        word = obj["word"]
        if obj["n"] != n:
            return f"n = {obj['n']}, expected {n}"
        entries = [
            f"[{e['rank']}_{e['color']}]" if e["boxed"] else f"{e['rank']}_{e['color']}"
            for e in obj["entries"]
        ]
        if entries != word.split():
            return "entries disagree with the rendered word"
    else:
        word = stdout.strip()
    return _word_reason(word, n, boxed)


def _check_omega(expect, stdout, _stderr, oracles):
    a, s, d = expect["triple"]
    n = a + s + d + 1
    if expect["format"] == "json":
        obj = json.loads(stdout)
        word, path = obj["word"], obj["path"]
        if (obj["n"], obj["area"], obj["skips"], obj["dinv"]) != (n, a, s, d):
            return "echoed n or statistics differ from the request"
    else:
        f = _fields(stdout)
        word, path = f["word"], f["path"]
    h = heights_of(path)
    if len(h) != 3 or h[-1] != n:
        return "path is not a (3,n)-path"
    if oracles.area_by_cells(3, n, h) != a:
        return "path area differs from the requested area"
    flags = _flags(word)
    if flags.count(False) != a or oracles.skips_by_runs(flags) != s:
        return "word statistics differ from the request"
    return _word_reason(word, n, boxed_ranks(n, h))


def _check_poly(expect, stdout, _stderr, _oracles):
    n = expect["n"]
    want = count_paths(3, n)
    if expect["format"] == "json":
        terms = json.loads(stdout)
        keys = {(t["q"], t["t"]) for t in terms}
        if len(terms) != want or len(keys) != want:
            return f"{len(terms)} terms, expected {want}"
        if any(t["c"] != 1 or t["q"] + t["t"] > n - 1 for t in terms):
            return "a term has a coefficient other than 1 or degree above n-1"
        if keys != {(dt, dq) for dq, dt in keys}:
            return "not symmetric in q and t"
    else:
        terms = stdout.strip().split(" + ")
        if len(terms) != want or terms[0] != f"q^{n - 1}":
            return f"{len(terms)} terms led by {terms[0]!r}, expected {want} led by q^{n - 1}"
    return None


def _check_transpose(expect, stdout, _stderr, _oracles):
    want = expect["word"][::-1].translate(str.maketrans("NE", "EN"))
    return None if stdout.strip() == want else "transpose differs"


def _check_error(expect, stdout, stderr, _oracles):
    if stdout:
        return "printed to stdout on a failure"
    if not stderr.startswith(f"error: {expect['name']}:"):
        return f"stderr does not name {expect['name']}"
    return None


def _check_stdout(expect, stdout, _stderr, _oracles):
    return None if stdout == expect["text"] else "stdout differs from the expected text"


def verify_counts(max_n: int, max_mn: int) -> dict[str, int]:
    """Objects each verify check visits, for the checks with a closed count."""
    pairs = [
        (m, t - m) for t in range(2, max_mn + 1) for m in range(1, t) if gcd(m, t - m) == 1
    ]
    mn_paths = sum(count_paths(m, n) for m, n in pairs)
    ns = [n for n in range(1, max_n + 1) if n % 3]
    paths3 = sum(count_paths(3, n) for n in ns)
    counts = {"path-count": len(pairs), "poly-mn-symmetry": sum(m <= n for m, n in pairs)}
    counts.update(dict.fromkeys(
        ["serialization-roundtrip", "shape-monotone", "transpose-involution"], mn_paths))
    counts.update(dict.fromkeys(
        ["stat-identity", "stat-inequalities", "triple-uniqueness", "word-roundtrip",
         "triple-reconstruction", "triple-realizability", "involution"], paths3))
    counts.update(dict.fromkeys(["closed-form", "qt-symmetry"], len(ns)))
    return counts


_CHECKS = {
    "stats": _check_stats,
    "bijection": _check_bijection,
    "rankword": _check_rankword,
    "omega": _check_omega,
    "poly": _check_poly,
    "transpose": _check_transpose,
    "error": _check_error,
    "stdout": _check_stdout,
}
