"""The benchmark's workloads: fixed lists of `layerscope` command lines.

This module imports nothing from `layerscope`, so `run.py` can use it
without loading the program it measures. See README.md for why each workload
exists.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WALK_PACKETS = 300_000


class Workload(NamedTuple):
    ops_unit: str  # what `ops` counts
    ops: int  # work in one pass, fixed by the inputs alone
    vertices: Dict[str, int]  # n of each explicit graph the pass builds


def _kautz_n(d: int, D: int) -> int:
    return d**D + d ** (D - 1)


def _cells(D: int) -> int:
    """Number of (i, j) cells with 1 <= i <= j <= D in a transition table."""
    return D * (D + 1) // 2


WORKLOADS: Dict[str, Workload] = {
    # two transition tables plus one input table of 8 rows
    "symbolic": Workload("cells", _cells(6) + _cells(7) + 8, {}),
    "verify": Workload("ordered_pairs", (2**8) ** 2 + _kautz_n(3, 5) ** 2, {"B(2,8)": 2**8, "K(3,5)": _kautz_n(3, 5)}),
    "walk": Workload("packets", WALK_PACKETS, {"K(4,5)": _kautz_n(4, 5)}),
}


def command_lines(name: str, seed: int) -> List[List[str]]:
    """The argument vectors one pass of a workload runs, in order.

    Only `walk` has random input; `seed` is the packet-walk seed of this pass.
    """
    if name == "symbolic":
        return [
            ["pt", "-f", "B", "-D", "6"],
            ["pt", "-f", "K", "-D", "7"],
            ["pin", "-f", "B", "-D", "8"],
        ]
    if name == "verify":
        return [
            ["verify", "-f", "B", "-d", "2", "-D", "8"],
            ["verify", "-f", "K", "-d", "3", "-D", "5"],
        ]
    if name == "walk":
        return [
            ["markov", "-f", "K", "-d", "4", "-D", "5", "-p", "1/10",
             "--monte-carlo", str(WALK_PACKETS), "--seed", str(seed), "--format", "json"],
        ]
    raise KeyError(name)
