"""Per-stage numbers for start-up, `verify`, P_in and P_t: the CLI's import, the oracle's
all-pairs DistanceTable, verify_graph, the default grid, and the input and transition
probabilities.

Each row is measured at a base revision and at the working tree, each in a fresh
interpreter: the best of 3 DistanceTable builds per graph (growth drivers n and n^2),
the best of 3 verify_graph runs per graph with the class-sum caches cleared before
each (growth drivers arcs = n d and D), one `layerscope verify` over the default
grid by the CLI, and the best of 3 full P_in rows with the caches cleared before
each, symbolic (`p_in`) or at one degree (`p_in_value`; growth driver D), the best
of 3 symbolic P_t tables (`transition_table`, the best of 1 for B(d,9)) with the
caches cleared before each (growth driver the class count), and the best of 3
`layerscope pt -d` tables, in process through `cli.main` with the caches cleared
before each (growth driver the classes within the degree's class bound), in
seconds; a revision that refuses a graph (TooLarge) reads "refused". The two
revisions take turns at running first, row by row, so that a burst of load on a
shared host does not land on the same side of every row. The import rows are the
best of 20 fresh interpreters, each timed from spawn to the end of `import
layerscope.cli` on a fresh copy of `src`: with PYTHONDONTWRITEBYTECODE=1, so the
package compiles from source every time, and without it, after one spawn that
writes the bytecode. The maxrss columns are ru_maxrss of that interpreter, in MB.
Standard library only.

    python tools/bench_apsp.py BASE_REV BENCH_32.json
"""

import io, json, os, platform, shutil, subprocess, sys, tarfile, tempfile, time

GRAPHS = [("B", 2, 8), ("K", 3, 5), ("K", 4, 5), ("B", 2, 10), ("B", 4, 6), ("B", 2, 12)]
P_IN = [("B", None, 8), ("B", None, 11), ("K", None, 12), ("B", 2, 16)]  # (family, d or symbolic, D)
P_T = [("B", 6, 3), ("K", 7, 3), ("B", 8, 3), ("K", 9, 3), ("B", 9, 1)]  # (family, D, runs)
PT_CLI = [("B", 8, 9), ("K", 9, 9)]  # (family, D, d): alphabets of D + 1 symbols or more
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = """import contextlib, io, json, resource, sys, time
from layerscope import cli, errors, graphs, oracle, probabilities, vertex_classes
stage, runs, args, best = sys.argv[1], int(sys.argv[2]), sys.argv[3:], float("inf")
family, numbers = (None, []) if stage == "cli" else (graphs.Family.parse(args[0]), [*map(int, args[1:])])
params = stage in ("DistanceTable", "verify_graph") and graphs.GraphParams(family, *numbers)
for _ in range(runs):
    for f in [*vars(probabilities).values(), *vars(vertex_classes).values()]:
        getattr(f, "cache_clear", lambda: None)()
    g, summary = stage == "DistanceTable" and graphs.build_explicit(params), oracle.GridSummary()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if stage == "DistanceTable":
                oracle.DistanceTable(g)
            elif stage == "verify_graph":
                oracle.verify_graph(params, summary)
            elif stage == "p_in":
                [probabilities.p_in(family, numbers[0], i) for i in range(1, numbers[0] + 1)]
            elif stage == "p_in_value":
                [probabilities.p_in_value(family, *numbers, i) for i in range(1, numbers[1] + 1)]
            elif stage == "transition_table":
                probabilities.transition_table(family, numbers[0])
            else:
                assert cli.main(args) == 0
    except errors.TooLarge:
        best = "refused"
        break
    best = min(best, time.perf_counter() - t)
    assert summary.ok
print(json.dumps([best, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""
IMPORT_CHILD = """import sys, time
import layerscope.cli
import json, resource
print(json.dumps([time.monotonic() - float(sys.argv[1]), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""
IMPORTS = 20


def measure(src: str, *argv: str) -> list:
    if argv[0] == "import":
        return measure_import(src, argv[1] == "cached")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def measure_import(src: str, cached: bool) -> list:
    """[seconds, maxrss] of the fastest of IMPORTS spawns that import the CLI from a copy of src."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = shutil.copytree(src, os.path.join(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        if cached:
            del env["PYTHONDONTWRITEBYTECODE"]
        runs = []
        for _ in range(IMPORTS + cached):  # a cached row's first spawn writes the bytecode
            argv = [sys.executable, "-c", IMPORT_CHILD, repr(time.monotonic())]
            out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
            runs.append(json.loads(out.stdout))
        return min(runs[cached:])


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def drivers(stage: str, n: int, d: int, D: int) -> dict:
    return {"n": n, "n2": n * n} if stage == "DistanceTable" else {"n": n, "arcs": n * d, "D": D}


def main(base: str, path: str) -> None:
    rev = git("rev-parse", base).decode().strip()
    n_of = {"B": lambda d, D: d**D, "K": lambda d, D: d**D + d ** (D - 1)}
    stages = [(f"import layerscope.cli, {mode}", ("import", mode), {}) for mode in ("no bytecode written", "cached")]
    stages += [(f"{stage} {f}({d},{D})", (stage, "3", f, str(d), str(D)), drivers(stage, n_of[f](d, D), d, D))
              for stage in ("DistanceTable", "verify_graph") for f, d, D in GRAPHS]
    stages.append(("layerscope verify, default grid", ("cli", "1", "verify"), {}))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layerscope.graphs import Family, alphabet_size
    from layerscope.vertex_classes import class_count

    for f, d, D in P_IN:
        if d is None:
            stages.append((f"p_in {f}(d,{D})", ("p_in", "3", f, str(D)), {"D": D}))
        else:
            stages.append((f"p_in_value {f}({d},{D})", ("p_in_value", "3", f, str(d), str(D)), {"D": D}))
    for f, D, runs in P_T:
        growth = {"class_count": class_count(Family.parse(f), D)}
        stages.append((f"transition_table {f}(d,{D})", ("transition_table", str(runs), f, str(D)), growth))
    for f, D, d in PT_CLI:
        family = Family.parse(f)
        growth = {"class_count": class_count(family, D, min(alphabet_size(family, d), D + 1))}
        argv = ["pt", "-f", f, "-D", str(D), "-d", str(d)]
        stages.append((f"layerscope {' '.join(argv)}", ("cli", "3", *argv), growth))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src"))).extractall(tmp)
        for k, (stage, argv, growth) in enumerate(stages):
            tops = (tmp, ROOT) if k % 2 == 0 else (ROOT, tmp)  # the base side runs first on every other row
            measured = {top: measure(os.path.join(top, "src"), *argv) for top in tops}
            (base_s, base_mb), (new_s, new_mb) = measured[tmp], measured[ROOT]
            seconds = [s if isinstance(s, str) else round(s, 4) for s in (base_s, new_s)]
            rows.append({"stage": stage, **growth, "base_s": seconds[0], "change_s": seconds[1],
                         "base_maxrss_mb": round(base_mb, 1), "change_maxrss_mb": round(new_mb, 1)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    about = __doc__.split("\n\n")[1].replace("\n", " ")
    env = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    with open(path, "w") as fh:
        json.dump({"about": about, "base": rev, "environment": env, "rows": rows}, fh, indent=1)


if __name__ == "__main__":
    main(*sys.argv[1:3])
