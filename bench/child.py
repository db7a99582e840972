"""One pass of a workload in a fresh interpreter; prints one JSON line.

The program's caches (`p_in`, `p_t_value`, `mean_distance`, `_p_t_symbolic`)
live for the whole process, so every timed pass needs its own interpreter to
pay what a command-line user pays. `run.py` starts this script once per pass
with `src` on PYTHONPATH; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import layerscope.cli
from layerscope.graphs import Family
from layerscope.probabilities import input_table, transition_table

from workloads import WALK_PACKETS, command_lines

# A correct program's Monte-Carlo mean misses the exact expected hops by more
# than 6 standard errors with probability about 2e-9 per pass (normal tail;
# 300,000 packets), so even thousands of passes fail this check by chance
# with probability below 1e-5.
MC_BOUND_STDERR = 6


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_symbolic(argvs, outputs, errors, seed):
    """Facts: one digest per table. Checks: exit 0 and exact row sums of one.

    The tables come from the caches the pass just filled, so this re-checks
    the printed functions without recomputing them."""
    for argv, (code, _) in zip(argvs, outputs):
        if code != 0:
            errors.append(f"{' '.join(argv)}: exit {code}")
        family, D = Family.parse(argv[2]), int(argv[4])
        table = transition_table(family, D) if argv[0] == "pt" else input_table(family, D)
        if not table.check_normalized():
            errors.append(f"{' '.join(argv)}: rows do not sum to exactly 1")
    return [_sha256(out) for _, out in outputs]


def check_verify(argvs, outputs, errors, seed):
    """Facts: one digest per grid. Checks: exit 0 and no mismatch lines."""
    for argv, (code, out) in zip(argvs, outputs):
        if code != 0 or not out.endswith("all formula quantities match the oracle exactly\n"):
            errors.append(f"{' '.join(argv)}: exit {code}, mismatches reported")
    return [_sha256(out) for _, out in outputs]


def check_walk(argvs, outputs, errors, seed):
    """Facts: the exact chain and expected hops. Checks: the Monte-Carlo mean."""
    (code, out), = outputs
    try:
        payload = json.loads(out)
        mc = payload.pop("monte_carlo")
    except (ValueError, KeyError):
        errors.append(f"markov: exit {code}, output is not the JSON payload")
        return None
    exact = float(Fraction(payload["expected_hops_from_input"]))
    if mc["packets"] != WALK_PACKETS or mc["seed"] != seed:
        errors.append(f"markov: walked {mc['packets']} packets with seed {mc['seed']}")
    if abs(mc["mean"] - exact) > MC_BOUND_STDERR * mc["stderr"]:
        errors.append(f"markov: mean {mc['mean']} is more than {MC_BOUND_STDERR} stderr from {exact}")
    if code != (0 if mc["within_3_stderr"] else 3):
        errors.append(f"markov: exit {code} disagrees with within_3_stderr={mc['within_3_stderr']}")
    return json.dumps(payload, sort_keys=True)


CHECKS = {"symbolic": check_symbolic, "verify": check_verify, "walk": check_walk}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent spawned us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace the pass and write its spans here")
    ap.add_argument("--expected", default=None, help="JSON of recorded facts to compare against")
    args = ap.parse_args()

    argvs = command_lines(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "layerscope": os.path.dirname(layerscope.cli.__file__)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from spans import Tracer, cache_hit_ratio

        tracer = Tracer()
        tracer.install()

    main_fn = layerscope.cli.main
    outputs = []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main_fn(argv)
        outputs.append((code, buf.getvalue()))
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        functions = tracer.summary()
        metrics = tracer.layer_metrics(functions)
        metrics["probabilities.cache_hit_ratio"] = cache_hit_ratio()
        result["trace"] = {"metrics": metrics, "functions": functions}
        tracer.write(args.spans)

    errors = []
    facts = CHECKS[args.workload](argvs, outputs, errors, args.seed)
    if args.expected is not None:
        with open(args.expected) as fh:
            want = json.load(fh)[args.workload]
        if facts != want:
            errors.append("outputs differ from the recorded ones")
    result.update(
        wall_s=wall_s,
        peak_rss_mb=peak_kb / 1024,
        output_sha256=_sha256(json.dumps(outputs)),
        facts=facts,
        errors=errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
