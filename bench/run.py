"""Benchmark of the layerscope command line.

    python3 bench/run.py --workload {symbolic,verify,walk} --seed N --seconds S --trace {0,1}

Run from the repository root. Every pass of a workload runs in a fresh
interpreter (bench/child.py), one at a time, so the program's per-process
caches are cold as they are for a user. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it are a report with the samples, growth drivers and
environment. README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
SPANS = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 165  # the whole run must end within 180 s
SETUP_CHILDREN = 7  # extra set-up-only interpreters per run, for setup_s
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
MIN_TRACED = 2  # traced passes per traced run, so counts can be compared

END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "polynomials.gcd_calls": "count",
    "polynomials.gcd_s": "s",
    "polynomials.gcd_max_degree": "degree",
    "polynomials.rf_built": "count",
    "polynomials.self_s": "s",
    "vertex_classes.enumerate_calls": "count",
    "vertex_classes.classes_built": "count",
    "vertex_classes.enumerate_s": "s",
    "vertex_classes.realizable_ratio": "ratio",
    "vertex_classes.self_s": "s",
    "layers.layer_poly_calls": "count",
    "layers.report_calls": "count",
    "layers.self_s": "s",
    "probabilities.p_in_s": "s",
    "probabilities.p_t_symbolic_s": "s",
    "probabilities.p_t_value_s": "s",
    "probabilities.chain_s": "s",
    "probabilities.cache_hit_ratio": "ratio",
    "probabilities.self_s": "s",
    "graphs.build_s": "s",
    "graphs.vertices": "count",
    "graphs.bfs_calls": "count",
    "graphs.bfs_s": "s",
    "graphs.distance_calls": "count",
    "graphs.distance_s": "s",
    "graphs.self_s": "s",
    "oracle.apsp_s": "s",
    "oracle.apsp_bytes": "bytes_computed",
    "oracle.pt_table_s": "s",
    "oracle.walk_s": "s",
    "oracle.verify_self_s": "s",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# exact counts: a deterministic program repeats them in every traced pass
COUNT_UNITS = ("count", "degree", "bytes_computed")


def spawn(workload: str, seed: int, deadline: float, *extra: str, compare: bool = True):
    """Run one child interpreter; its JSON result, or None if it failed or ran out of time.

    With compare, the child also checks its facts against bench/expected.json.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += [*(("--expected", EXPECTED) if compare else ()), *extra, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} pass with seed {seed} ran past the deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: {workload} child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def describe(values) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values), "quartiles": quartiles(values), "samples": values}
    k = len(values) - 10
    out["tail"] = (
        {"percentile": 100 * k / len(values), "value": sorted(values)[k - 1]}
        if k >= 1
        else f"none: {len(values)} samples, a percentile needs ten beyond it"
    )
    return out


def environment(seeds) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seeds": seeds,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "layerscope", "cli.py")):
        print(f"bench: no layerscope sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    # The first interpreter compiles bytecode and warms the file cache; it is not measured.
    if spawn(args.workload, 0, deadline, "--setup-only") is None:
        print("bench: the program does not import", file=sys.stderr)
        return 1
    setups = []
    for _ in range(SETUP_CHILDREN):
        r = spawn(args.workload, 0, deadline, "--setup-only")
        if r is not None:
            setups.append(r["setup_s"])

    # Passes: untraced only, or untraced and traced in turn with the same seed,
    # until --seconds have gone by and the minimum counts are met.
    os.makedirs(SPANS, exist_ok=True)
    spans_path = os.path.join(SPANS, f"{args.workload}.spans.json")
    kinds = ("U", "T") if args.trace else ("U",)
    passes = []  # (kind, seed, result or None)
    seeds = []
    durations = []  # seconds each child lived, checks included
    start = time.monotonic()
    while True:
        untraced = sum(k == "U" for k, _, _ in passes)
        traced = len(passes) - untraced
        next_pass = statistics.median(durations) if durations else 0.0
        short = untraced < MIN_PASSES or (args.trace and traced < MIN_TRACED)
        now = time.monotonic()
        if (not short and now - start + next_pass > args.seconds) or now + next_pass > deadline:
            break
        kind = kinds[len(passes) % len(kinds)]
        if kind == "U":
            seeds.append(rng.randrange(2**31))
        extra = ("--spans", spans_path) if kind == "T" else ()
        passes.append((kind, seeds[-1], spawn(args.workload, seeds[-1], deadline, *extra)))
        durations.append(time.monotonic() - now)

    errors = []
    for kind, seed, r in passes:
        if r is None:
            errors.append(f"{kind} pass with seed {seed} did not finish")
        else:
            errors += [f"{kind} pass with seed {seed}: {e}" for e in r["errors"]]
    failed = sum(r is None or bool(r["errors"]) for _, _, r in passes)
    done = [(k, s, r) for k, s, r in passes if r is not None]
    setups += [r["setup_s"] for _, _, r in done]
    plain = [r for k, _, r in done if k == "U"]
    if not plain or not setups:
        print("bench: no pass finished", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for r in plain]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "load": "closed loop: one client, one pass at a time, one process per pass, no threads",
        "passes": len(passes),
        "fail_rate": failed / len(passes),
        "work_per_pass": {work.ops_unit: work.ops},
        "graphs": {g: {"n": n, "n_squared": n * n} for g, n in work.vertices.items()},
        "wall_s": describe(walls),
        "setup_s": describe(setups),
        "environment": environment(seeds),
        "layerscope": plain[0]["layerscope"],
    }
    if args.trace:
        metrics = traced_metrics(done, statistics.median(walls), spans_path, report, errors)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(work.ops / w for w in walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    report["errors"] = errors
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def traced_metrics(done, untraced_wall: float, spans_path: str, report: dict, errors: list) -> dict:
    """Medians of the per-layer metrics over the traced passes, plus the tracing overhead."""
    traced = [r for k, _, r in done if k == "T"]
    if not traced:
        errors.append("no traced pass finished")
        return {name: 0 for name in PER_LAYER}
    by_seed = {s: r["output_sha256"] for k, s, r in done if k == "U"}
    for k, s, r in done:
        if k == "T" and s in by_seed and by_seed[s] != r["output_sha256"]:
            errors.append(f"traced pass with seed {s} printed other output than the untraced pass")
    per_pass = [r["trace"]["metrics"] for r in traced]
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("trace.") and name != "trace.spans":
            continue
        values = [m[name] for m in per_pass]
        if PER_LAYER[name] not in COUNT_UNITS:
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            errors.append(f"{name} differs between traced passes: {values}")
        metrics[name] = values[0]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    layer_self = {name.split(".")[0]: v for name, v in metrics.items() if name.endswith(".self_s")}
    report["trace"] = {
        "passes": len(traced),
        "layer_self_s_total": sum(layer_self.values()),
        "self_share_of_traced_wall": {layer: v / traced_wall for layer, v in layer_self.items()},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "functions_last_pass": {n: e for n, e in traced[-1]["trace"]["functions"].items() if e["calls"]},
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
