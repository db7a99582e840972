"""Per-stage numbers for `verify`: the oracle's all-pairs DistanceTable, verify_graph and the default grid.

Each row is measured at a base revision and at the working tree, each in a fresh
interpreter: the best of 3 DistanceTable builds per graph (growth drivers n and n^2),
the best of 3 verify_graph runs per graph with the class-sum caches cleared before
each (growth drivers arcs = n d and D), and one `layerscope verify` over the default
grid by the CLI, in seconds. The maxrss columns are ru_maxrss of that interpreter,
in MB. Standard library only.

    python tools/bench_apsp.py BASE_REV BENCH_23.json
"""

import io, json, os, platform, subprocess, sys, tarfile, tempfile

GRAPHS = [("B", 2, 8), ("K", 3, 5), ("K", 4, 5), ("B", 2, 10), ("B", 4, 6)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = """import contextlib, io, json, resource, sys, time
from layerscope import cli, graphs, oracle, probabilities, vertex_classes
stage, args, best = sys.argv[1], sys.argv[2:], float("inf")
params = args and graphs.GraphParams(graphs.Family.parse(args[0]), *map(int, args[1:]))
for _ in range(3 if args else 1):
    for f in [*vars(probabilities).values(), *vars(vertex_classes).values()]:
        getattr(f, "cache_clear", lambda: None)()
    g, summary = stage == "DistanceTable" and graphs.build_explicit(params), oracle.GridSummary()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if stage == "DistanceTable":
            oracle.DistanceTable(g)
        elif stage == "verify_graph":
            oracle.verify_graph(params, summary)
        else:
            cli.main(["verify"])
    best = min(best, time.perf_counter() - t)
    assert summary.ok
print(json.dumps([best, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


def measure(src: str, *argv: str) -> list:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def drivers(stage: str, n: int, d: int, D: int) -> dict:
    return {"n": n, "n2": n * n} if stage == "DistanceTable" else {"n": n, "arcs": n * d, "D": D}


def main(base: str, path: str) -> None:
    rev = git("rev-parse", base).decode().strip()
    n_of = {"B": lambda d, D: d**D, "K": lambda d, D: d**D + d ** (D - 1)}
    stages = [(f"{stage} {f}({d},{D})", (stage, f, str(d), str(D)), drivers(stage, n_of[f](d, D), d, D))
              for stage in ("DistanceTable", "verify_graph") for f, d, D in GRAPHS]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src"))).extractall(tmp)
        for stage, argv, growth in [*stages, ("layerscope verify, default grid", ("grid",), {})]:
            (base_s, base_mb), (new_s, new_mb) = (measure(os.path.join(top, "src"), *argv) for top in (tmp, ROOT))
            rows.append({"stage": stage, **growth, "base_s": round(base_s, 4), "change_s": round(new_s, 4),
                         "base_maxrss_mb": round(base_mb, 1), "change_maxrss_mb": round(new_mb, 1)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    about = __doc__.split("\n\n")[1].replace("\n", " ")
    env = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    with open(path, "w") as fh:
        json.dump({"about": about, "base": rev, "environment": env, "rows": rows}, fh, indent=1)


if __name__ == "__main__":
    main(*sys.argv[1:3])
