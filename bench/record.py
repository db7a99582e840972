"""Write bench/expected.json from one untraced pass of every workload.

    python3 bench/record.py

Run from the repository root at the commit whose outputs are the reference.
Every later pass must reproduce these facts: the digest of each symbolic
table and verify report, and the exact walk chain and expected hops. A pass
that reports its own check errors is not recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import EXPECTED, WORKLOADS, spawn


def main() -> int:
    facts = {}
    for workload in sorted(WORKLOADS):
        r = spawn(workload, 1, time.monotonic() + 170, compare=False)
        if r is None or r["errors"]:
            print(f"record: {workload} pass failed: {r and r['errors']}", file=sys.stderr)
            return 1
        facts[workload] = r["facts"]
    with open(EXPECTED, "w") as fh:
        json.dump(facts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(EXPECTED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
