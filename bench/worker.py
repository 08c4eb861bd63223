"""The in-process side of the benchmark: one worker runs one workload.

Started by run.py with src/ on PYTHONPATH.  It prints "ready", reads one
JSON spec from stdin and prints one JSON result.  A pass over the request
list is cut into segments (a request, a verify check, or a chunk of
paths); requests run one after another, a closed loop.  Every segment is
timed between two runs of the calibration kernel (calibrate.py), which
rescale it to the reference speed.  Untraced, the worker makes a fixed
number of passes.  Traced, it runs one pass with spans around every
public function between two untraced passes.  Each segment's output is
checked right after it, outside the timed section.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
from qtcatalan import bijection, cli, paths, qtpoly, rankwords, stats, verify
from tracing import Tracer, layer_table
from workloads import (
    TRACEBACK, Tally, area_of, count_paths, judge, load_oracles, run_passes, verify_counts,
)

clock = time.perf_counter
CHUNK = 100  # paths per sweep3 segment
SWAP_SAMPLE = 5  # paths per chunk whose image's whole triple is recomputed
ORACLE_EVERY = 3  # one path in every third chunk is checked against tests/oracles.py


def fingerprint(items) -> str:
    """A hash of a segment's outputs, so later passes compare without keeping them."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(item.encode() if isinstance(item, str) else repr(item).encode())
    return digest.hexdigest()


def attempt(func, *args):
    try:
        return func(*args)
    except Exception as exc:
        return exc


class Sweep3:
    """The (3,n)-paths of one n: enumeration, brute force against the closed
    form, and stat_triple, involution twice and render/parse of a sample."""

    def __init__(self, inputs, oracles, rng) -> None:
        self.oracles, self.rng = oracles, rng
        self.found: dict[int, list] = {}
        n, sample = inputs["n"], inputs["sample"]
        self.sample = sample
        self.segments = [("enum", n)]
        self.segments += [("paths", n, k) for k in range(-(-len(sample) // CHUNK))]
        self.segments.append(("poly", n))

    def run(self, key, tracer, latencies):
        kind, n = key[:2]
        if kind == "enum":
            found = attempt(lambda: list(paths.enumerate_paths(3, n)))
            self.found[n] = found if isinstance(found, list) else []
            return found
        if kind == "poly":
            return attempt(lambda: (qtpoly.catalan_bruteforce(3, n), qtpoly.catalan3_closed_form(n)))
        results = []
        found = self.found[n]
        if len(found) <= self.sample[-1]:
            return RuntimeError(f"no enumeration of the (3,{n})-paths to sample from")
        for i in self.sample[key[2] * CHUNK:(key[2] + 1) * CHUNK]:
            p = found[i]
            if tracer:
                tracer.request = f"{n}:{i}"
            start = clock()
            try:
                t = stats.stat_triple(p)
                q = bijection.involution(p)
                results.append((p, (t, q, bijection.involution(q),
                                    paths.parse_path(paths.render_path(p)))))
            except Exception as exc:
                results.append((p, exc))
            latencies.append(clock() - start)
        return results

    def check(self, key, output, first: bool, tally: Tally) -> str:
        kind, n = key[:2]
        if isinstance(output, Exception):
            tally.attempted += 1
            tally.fail("error", f"{kind} for n={n} raised {output!r}")
            return repr(output)
        tally.attempted += len(output) if kind == "paths" else 1
        if kind == "enum":
            if len(output) != count_paths(3, n):
                tally.fail("wrong", f"{len(output)} (3,{n})-paths, expected {count_paths(3, n)}")
            return fingerprint(p.east_heights for p in output)
        if kind == "poly":
            brute, closed = output
            if brute != closed or sum(c for _, _, c in closed.terms()) != count_paths(3, n):
                tally.fail("wrong", f"n={n}: brute force differs from the closed form")
            return fingerprint(closed.terms())
        for p, res in output:
            if isinstance(res, Exception):
                tally.fail("error", f"(3,{n}) {p.east_heights} raised {res!r}")
                continue
            t, q, r, back = res
            if sum(t) != n - 1 or r != p or back != p or (q.m, q.n) != (3, n):
                tally.fail("wrong", f"(3,{n}) {p.east_heights}: identity, square or round trip")
            elif (area_of(3, n, p.east_heights), area_of(3, n, q.east_heights)) != (t.area, t.dinv):
                tally.fail("wrong", f"(3,{n}) {p.east_heights}: area, or image area != dinv")
        good = [(p, res) for p, res in output if not isinstance(res, Exception)]
        if first and good:
            for p, (t, q, _r, _b) in self.rng.sample(good, min(SWAP_SAMPLE, len(good))):
                if tuple(stats.stat_triple(q)) != (t.dinv, t.skips, t.area):
                    tally.fail("wrong", f"(3,{n}) {p.east_heights}: involution does not swap")
            if key[2] % ORACLE_EVERY == 0:
                p, (t, *_rest) = self.rng.choice(good)
                h = p.east_heights
                flags = [e.boxed for e in rankwords.mark_from_path(p).entries]
                if tuple(t) != (self.oracles.area_by_cells(3, n, h),
                                self.oracles.skips_by_runs(flags),
                                self.oracles.dinv_by_cells(3, n, h)):
                    tally.fail("wrong", f"(3,{n}) {h}: triple differs from the oracles")
        return fingerprint(
            (res[0], res[1].east_heights) if isinstance(res, tuple) else repr(res)
            for _p, res in output
        )


class GeneralMN:
    """catalan_bruteforce(m,n) and (n,m), then transpose of every (m,n)-path."""

    def __init__(self, inputs, oracles, rng) -> None:
        self.oracles, self.rng = oracles, rng
        self.found: dict[tuple, list] = {}
        self.polys: dict[tuple, object] = {}
        self.segments = [
            (kind, *pair)
            for m, n in inputs["pairs"]
            for kind, pair in (("poly", (m, n)), ("poly", (n, m)), ("enum", (m, n)),
                               ("transpose", (m, n)))
        ]

    def run(self, key, tracer, latencies):
        kind, m, n = key
        if kind == "poly":
            return attempt(qtpoly.catalan_bruteforce, m, n)
        if kind == "enum":
            found = attempt(lambda: list(paths.enumerate_paths(m, n)))
            self.found[m, n] = found if isinstance(found, list) else []
            return found
        images = []
        for i, p in enumerate(self.found[m, n]):
            if tracer:
                tracer.request = f"{m},{n}:{i}"
            images.append((p, attempt(paths.transpose, p)))
        return images

    def check(self, key, output, first: bool, tally: Tally) -> str:
        kind, m, n = key
        tally.attempted += len(output) if kind == "transpose" else 1
        if isinstance(output, Exception):
            tally.fail("error", f"{kind} for ({m},{n}) raised {output!r}")
            return repr(output)
        if kind == "poly":
            if sum(c for _, _, c in output.terms()) != count_paths(m, n):
                tally.fail("wrong", f"({m},{n}): coefficient sum is not {count_paths(m, n)}")
            self.polys[m, n] = output
            other = self.polys.get((n, m))
            if m > n and other is not None and other != output:
                tally.fail("wrong", f"C_({m},{n}) != C_({n},{m})")
            return fingerprint(output.terms())
        if kind == "enum":
            if len(output) != count_paths(m, n):
                tally.fail("wrong", f"{len(output)} ({m},{n})-paths, expected {count_paths(m, n)}")
            return fingerprint(p.east_heights for p in output)
        for p, q in output:
            if isinstance(q, Exception):
                tally.fail("error", f"transpose {p.east_heights} raised {q!r}")
            elif (q.m, q.n) != (n, m) or (first and paths.transpose(q) != p):
                tally.fail("wrong", f"({m},{n}) {p.east_heights}: transpose round trip")
        if first:
            for p, _q in self.rng.sample(output, min(4, len(output))):
                h = p.east_heights
                if (stats.area(p), stats.dinv(p)) != (self.oracles.area_by_cells(m, n, h),
                                                      self.oracles.dinv_by_cells(m, n, h)):
                    tally.fail("wrong", f"({m},{n}) {h}: area or dinv differs from the oracles")
        return fingerprint(repr(q) if isinstance(q, Exception) else q.east_heights
                           for _p, q in output)


class Verify:
    """The 16 checks of `qtcatalan verify` at its bounds, one segment each,
    called as verify.run_all calls them."""

    def __init__(self, inputs, _oracles, _rng) -> None:
        self.bounds = inputs["bounds"]
        self.expected = verify_counts(self.bounds["n"], self.bounds["mn"])
        self.segments = list(range(len(verify.CHECKS)))
        self.checked: dict[str, int] = {}

    def run(self, i, tracer, _latencies):
        # looked up on every call, so a traced pass runs the traced checks
        name, func, scope = verify.CHECKS[i]
        if tracer:
            tracer.request = name
        return name, attempt(func, self.bounds[scope])

    def check(self, _i, output, _first: bool, tally: Tally) -> str:
        name, result = output
        tally.attempted += 1
        if isinstance(result, Exception):
            tally.fail("error", f"check {name} raised {result!r}")
            return repr(result)
        self.checked[name] = result.checked
        want = self.expected.get(name)
        if not result.ok:
            tally.fail("wrong", f"check {name} failed: {result.counterexample}")
        elif want is not None and result.checked != want:
            tally.fail("wrong", f"check {name} visited {result.checked}, expected {want}")
        return fingerprint((result.name, result.checked, result.counterexample))


class CliInProcess:
    """Each request through cli.main(argv), stdout and stderr captured."""

    def __init__(self, inputs, oracles, _rng) -> None:
        self.requests, self.oracles = inputs["requests"], oracles
        self.segments = list(range(len(self.requests)))
        self.verdicts: dict[int, tuple] = {}

    def run(self, i, tracer, latencies):
        if tracer:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(self.requests[i]["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        latencies.append(clock() - start)
        return code, out.getvalue(), err.getvalue()

    def check(self, i, output, _first: bool, tally: Tally) -> str:
        request, (code, out, err) = self.requests[i], output
        tally.attempted += 1
        # where a traceback is cut short depends on the stack, which tracing deepens
        digest = fingerprint((code, TRACEBACK if TRACEBACK in err else err, out))
        seen = self.verdicts.get(i)
        # output identical to an earlier pass gets that pass's verdict
        verdict = seen[1] if seen and seen[0] == digest else judge(
            request, code, out, err, self.oracles)
        self.verdicts.setdefault(i, (digest, verdict))
        if verdict:
            tally.fail(verdict[0], f"{' '.join(request['argv'])[:60]}: {verdict[1]}")
        return digest


WORKLOADS = {"sweep3": Sweep3, "general_mn": GeneralMN, "verify": Verify,
             "cli_single": CliInProcess}


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]](
        spec["inputs"], load_oracles(Path(spec["root"])), random.Random(f"oracle:{spec['seed']}")
    )
    tally = Tally()
    latencies = array("d")
    prints: dict[int, str] = {}
    raw = [0.0]

    def segment(i: int, tracer=None) -> float:
        """Seconds segment i takes at the reference speed."""
        key = workload.segments[i]
        mark = len(latencies)
        # the collector starts each segment and each kernel run from the same
        # state, so a collection provoked by earlier garbage lands in neither
        gc.collect()
        before = calibrate.kernel_seconds()
        start = clock()
        output = workload.run(key, tracer, latencies)
        elapsed = clock() - start
        gc.collect()
        factor = calibrate.scale(before, calibrate.kernel_seconds())
        for k in range(mark, len(latencies)):
            latencies[k] *= factor
        raw[0] += elapsed
        digest = workload.check(key, output, i not in prints, tally)
        if prints.setdefault(i, digest) != digest:
            tally.fail("wrong", f"{key}: output differs from the first pass")
        return elapsed * factor

    result = {}
    count = len(workload.segments)
    if spec["trace"]:
        # the traced pass is compared with the mean of an untraced pass
        # before and after it
        tracer = Tracer()
        walls = [sum(segment(i) for i in range(count))]
        tracer.install()
        try:
            walls.append(sum(segment(i, tracer) for i in range(count)))
        finally:
            tracer.uninstall()
        walls.append(sum(segment(i) for i in range(count)))
        result.update(walls=walls, layers=layer_table(tracer.spans), spans=len(tracer.spans))
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    else:
        result["samples"] = run_passes(count, spec["passes"], segment)
    if isinstance(workload, Verify):
        result["verify_checked"] = workload.checked
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        latencies=latencies.tolist(), raw_s=raw[0], **vars(tally),
    )
    return result


if __name__ == "__main__":
    print("ready", flush=True)
    print(json.dumps(run(json.loads(sys.stdin.readline()))), flush=True)
