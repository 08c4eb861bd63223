"""Benchmark of the qtcatalan package, measured from outside through its
public functions and its command-line entry point.

    python3 bench/run.py --workload sweep3 --seed 1 --seconds 20 --trace 0

Workloads: sweep3, general_mn, verify, cli_single (see registry.py), or
"all" to run the four in turn.  Every workload is a closed loop in one
worker process: each request starts after the previous one ends.  Inputs
come from --seed alone.  The run is pinned to one CPU, which its children
inherit, so a segment and the calibration kernel timed around it share a
CPU.

--trace 0 measures the end-to-end metrics with tracing off: a pass over
the request list is cut into segments (a request, a verify check, or a
chunk of paths), and a run makes a fixed number of whole passes, in
proportion to --seconds (workloads.PASSES).  Each segment's time is rescaled to
the reference speed by the calibration kernel timed before and after it
(calibrate.py), and ref_wall_s sums each segment's median.  --trace 1 runs
a traced pass between two untraced ones and reports per-layer calls and
self time of the traced pass and the tracing overhead; spans go to
.bench_out/.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  "correct" is false when an output fails its check;
"failed" also counts crashes and wrong exit codes.  A results file with
the environment, inputs and every figure is written to .bench_out/ (or
--out).  Tests of the harness: python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from registry import END_TO_END, LATENCY_WORKLOADS, REPORTED, WORKLOADS, per_layer
import calibrate
from workloads import generate, pass_count, pass_seconds

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = (6, 5)  # before and after the timed part, so the median spans the run
PROBE = "import qtcatalan.cli; print('ready', flush=True)"
clock = time.perf_counter
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one CPU


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def tail_latency(samples):
    """The highest percentile with at least 10 samples beyond it, or None.

    That is the sample of rank N-10 (1-based) in ascending order, the
    100*(N-10)/N-th percentile by nearest rank.
    """
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100 * (n - 10) / n, "samples": n}


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
    }


def setup_times(env, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until qtcatalan.cli is
    imported, at the reference speed."""
    times = []
    for _ in range(count):
        before = calibrate.kernel_seconds()
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        try:
            line = proc.stdout.readline()
            elapsed = clock() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        times.append(elapsed * calibrate.scale(before, calibrate.kernel_seconds()))
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"a fresh interpreter could not import qtcatalan.cli (exit {code})")
    return times


def run_worker(spec, env) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        if proc.stdout.readline().strip() != b"ready":
            raise BenchError("the worker could not import qtcatalan")
        out, _ = proc.communicate(json.dumps(spec).encode() + b"\n", timeout=170)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the worker ran out of time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"the worker failed with exit {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the results record."""
    env = child_env()
    generated = generate(workload, seed)
    sizes = generated.pop("sizes")
    record = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace), "environment": environment(),
        "inputs": sizes,
    }
    setup = setup_times(env, SETUP_SPAWNS[0])
    passes = pass_count(workload, seconds)
    spec = {"workload": workload, "inputs": generated, "passes": passes, "seed": seed,
            "trace": trace, "root": str(ROOT)}
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        spec["spans_path"] = str(spans)
        result = run_worker(spec, env)
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        result = run_worker(spec, env)
    setup += setup_times(env, SETUP_SPAWNS[1])

    record.update(
        correct=result["wrong"] == 0, attempted=result["attempted"], failed=result["failed"],
        failure_reasons=result["reasons"],
    )
    reported = {"error_rate": {"value": error_rate(result["attempted"], result["failed"]),
                               "unit": REPORTED["error_rate"][0]}}
    if trace:
        record["pass_walls_s"] = result["walls"]
        before, traced, after = result["walls"]
        untraced = (before + after) / 2
        record["trace_overhead"] = {"untraced_wall_s": untraced, "traced_wall_s": traced,
                                    "overhead_s": traced - untraced, "spans": result["spans"],
                                    "worker_peak_rss_mb": result["peak_rss_mb"]}
        record["layers"] = result["layers"]
        record["moves"] = {name: row[2] for name, row in per_layer().items()}
        metrics = layer_metrics(result, median(setup), traced - untraced)
        record["inputs"]["rank_words_built_per_pass"] = (
            metrics["rankwords.MarkedRankWord.calls"]["value"])
    else:
        samples = result["samples"]
        record["passes"] = passes
        record["segment_samples_s"] = samples
        record["wall_s"] = result["raw_s"] / passes
        values = {"ref_wall_s": pass_seconds(samples), "setup_s": median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
        if workload in LATENCY_WORKLOADS:
            reported["latency_p50_s"] = {"value": median(result["latencies"]), "unit": "s",
                                         "samples": len(result["latencies"])}
            tail = tail_latency(result["latencies"])
            reported["latency_tail_s"] = tail and dict(tail, unit="s")
        record["setup_samples_s"] = setup
    record["metrics"] = metrics
    record["reported"] = reported
    return record


def layer_metrics(result, startup_s: float, overhead_s: float) -> dict:
    layers, registry = result["layers"], per_layer()
    values = {}
    for name in registry:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = layers.get(layer, {}).get(field, 0)
        elif field == "checked":
            values[name] = result.get("verify_checked", {}).get(layer.partition(".")[2], 0)
        elif field == "errors":
            values[name] = sum(row["errors"] for key, row in layers.items()
                               if key.startswith(layer + "."))
    values["cli.startup_s"] = startup_s
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": registry[name][0]} for name in registry}


def describe(record) -> list[str]:
    passes = len(record["pass_walls_s"]) if record["trace"] else record["passes"]
    lines = [f"{record['workload']} (seed {record['seed']}, trace {record['trace']}): "
             f"{passes} passes, {record['attempted']} requests, "
             f"{record['failed']} failed, correct={record['correct']}"]
    if record["trace"]:
        o = record["trace_overhead"]
        lines.append(f"  tracing overhead {o['overhead_s']:.4f} s at the reference speed "
                     f"({o['untraced_wall_s']:.4f} s untraced, {o['traced_wall_s']:.4f} s traced, "
                     f"{o['spans']} spans)")
        for name, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<36} calls {row['calls']:>8}  self {row['self_s']:.4f} s"
                         f"  errors {row['errors']}")
        return lines
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<15} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"  {'wall_s':<15} {record['wall_s']:.6g} s (mean pass, as measured)")
    for name in ("latency_p50_s", "latency_tail_s"):
        metric = record["reported"].get(name)
        if name not in record["reported"]:
            lines.append(f"  {name:<15} absent (requests are not homogeneous)")
        elif metric is None:
            lines.append(f"  {name:<15} absent (fewer than 11 samples)")
        else:
            at = f"p{metric['percentile']:.3f}, " if "percentile" in metric else ""
            lines.append(f"  {name:<15} {metric['value']:.6g} s ({at}{metric['samples']} samples)")
    rate = record["reported"]["error_rate"]["value"]
    lines.append(f"  {'error_rate':<15} {rate:.6g} ({record['failed']}/{record['attempted']})")
    lines += [f"  failure: {reason}" for reason in record["failure_reasons"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="results file (default: under .bench_out/)")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qtcatalan/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a qtcatalan checkout", file=sys.stderr)
        return 2
    # one CPU for the run and its children (see the module docstring)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.workload == "all":
            records = []
            for workload in WORKLOADS:
                for trace in (False, True) if args.trace else (False,):
                    records.append(measure(workload, args.seed, args.seconds, trace))
                    print("\n".join(describe(records[-1])), flush=True)
            results = {"runs": records}
            line = {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {f"{r['workload']}.{name}": m for r in records if not r["trace"]
                            for name, m in r["metrics"].items()},
            }
        else:
            results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(results)), flush=True)
            line = {key: results[key] for key in ("correct", "attempted", "failed", "metrics")}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
