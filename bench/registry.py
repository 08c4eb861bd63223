"""Every metric the benchmark reports: name, unit, direction, and what it moves.

BENCHMARK.json carries the gated subset (name, unit, better, bound); this
module is the full registry.  Each per-layer metric names the end-to-end
metric and workload it is expected to move, written "metric@workload", so
a change to one layer states its prediction before it is measured.
"""

WORKLOADS = {
    "sweep3": (
        "Every (3,n)-path of one seeded n in 100-130 enumerated and brute-forced; "
        "stat_triple, involution and its square, render/parse on a seeded sample. "
        "dinv and rank-word rebuilding dominate."
    ),
    "general_mn": (
        "catalan_bruteforce(m,n) and (n,m) plus transpose of every path for "
        "seeded coprime m+n in 18-19, m,n>=4: deep enumeration and dinv arm "
        "scans, no rank words."
    ),
    "verify": (
        "The 16 checks of `qtcatalan verify --max-n 31 --max-mn 14`, the "
        "documented acceptance bound, in process; the only workload that "
        "weighs the verify checks."
    ),
    "cli_single": (
        "CLI commands through cli.main: small commands, n~30000 and n~100000 "
        "objects in text and JSON, failure-contract cases; cost per object as "
        "n grows."
    ),
}

# name: (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# ref_wall_s and setup_s are seconds at the reference speed of the
# calibration kernel (calibrate.py), which this shared machine drifts from
# by up to 1.5x; the raw wall_s goes to the results file.
END_TO_END = {
    "ref_wall_s": ("s", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Reported where defined, but not gated: latency needs many homogeneous
# requests (sweep3, cli_single only) and error_rate is 0 wherever the
# program has no known defect, so neither is defined and non-zero on every
# workload.  error_rate is failed / attempted of the result line.
REPORTED = {
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
}

LATENCY_WORKLOADS = ("sweep3", "cli_single")

# (module, function) -> where a change to it should show.
FUNCTIONS = {
    ("paths", "enumerate_paths"): ["ref_wall_s@general_mn"],
    ("paths", "parse_path"): ["latency_tail_s@cli_single"],
    ("paths", "render_path"): ["latency_tail_s@cli_single"],
    ("paths", "transpose"): ["ref_wall_s@general_mn", "ref_wall_s@verify"],
    ("paths", "DyckPath"): ["ref_wall_s@sweep3", "ref_wall_s@general_mn"],
    ("stats", "area"): [],
    ("stats", "dinv"): [
        "ref_wall_s@sweep3",
        "latency_p50_s@sweep3",
        "ref_wall_s@general_mn",
        "latency_tail_s@cli_single",
    ],
    ("stats", "skips"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("stats", "stat_triple"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("rankwords", "mark_from_path"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("rankwords", "count_skips"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("rankwords", "MarkedRankWord"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("rankwords", "omega"): [
        "ref_wall_s@sweep3",
        "latency_tail_s@cli_single",
        "peak_rss_mb@cli_single",
    ],
    ("rankwords", "path_from_word"): [
        "ref_wall_s@sweep3",
        "latency_tail_s@cli_single",
        "peak_rss_mb@cli_single",
    ],
    ("rankwords", "render_word"): [
        "latency_tail_s@cli_single",
        "peak_rss_mb@cli_single",
    ],
    ("rankwords", "lattice_rank_word"): [
        "latency_tail_s@cli_single",
        "peak_rss_mb@cli_single",
    ],
    ("bijection", "involution"): ["ref_wall_s@sweep3", "ref_wall_s@verify"],
    ("qtpoly", "catalan_bruteforce"): ["ref_wall_s@general_mn", "ref_wall_s@sweep3"],
    ("qtpoly", "catalan3_closed_form"): ["latency_tail_s@cli_single"],
    ("qtpoly", "QtPolynomial.render"): ["latency_tail_s@cli_single"],
    ("qtpoly", "QtPolynomial.json_terms"): ["latency_tail_s@cli_single"],
    ("cli", "main"): ["latency_p50_s@cli_single"],
}

# verify runs its checks directly (see worker.Verify), so cli.verify is not traced
CLI_COMMANDS = (
    "enumerate", "stats", "rankword", "omega", "poly", "bijection", "transpose",
)
for _command in CLI_COMMANDS:
    FUNCTIONS[("cli", _command)] = ["latency_tail_s@cli_single"]

VERIFY_CHECKS = (
    "path-count", "serialization-roundtrip", "shape-monotone",
    "transpose-involution", "poly-mn-symmetry", "rank-positivity",
    "cell-classification", "stat-identity", "stat-inequalities",
    "triple-uniqueness", "word-roundtrip", "triple-reconstruction",
    "triple-realizability", "closed-form", "qt-symmetry", "involution",
)

MODULES = ("paths", "stats", "rankwords", "qtpoly", "bijection", "verify", "cli")


def per_layer() -> dict[str, tuple[str, str, list[str]]]:
    """name -> (unit, better, moves) for every per-layer metric."""
    table = {}
    for (module, function), moves in FUNCTIONS.items():
        table[f"{module}.{function}.calls"] = ("count", "lower", moves)
        table[f"{module}.{function}.self_s"] = ("s", "lower", moves)
    for check in VERIFY_CHECKS:
        table[f"verify.{check}.self_s"] = ("s", "lower", ["ref_wall_s@verify"])
        table[f"verify.{check}.checked"] = ("count", "higher", ["ref_wall_s@verify"])
    for module in MODULES:
        table[f"{module}.errors"] = ("count", "lower", [])
    table["cli.startup_s"] = (
        "s", "lower", ["setup_s@cli_single", "latency_p50_s@cli_single"]
    )
    table["trace.overhead_s"] = ("s", "lower", [])
    return table
