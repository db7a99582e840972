"""The package's records: immutable values, identity-equal graphs, and a light import path.

Value records are named tuples; `ExplicitDigraph` is a slotted class equal only
to itself, so an n-vertex graph is never hashed or compared by value. Every
command pays the package's import before `main` runs, so importing the CLI must
not load `dataclasses` (which pulls in `inspect`) or `csv` (only `--format csv`
needs it).
"""

import os
import subprocess
import sys

import pytest

import layerscope
from layerscope.graphs import Family, GraphParams, build_explicit
from layerscope.oracle import WalkStats
from layerscope.probabilities import input_table
from layerscope.vertex_classes import enumerate_classes

B, K = Family.DEBRUIJN, Family.KAUTZ


def test_records_refuse_assignment():
    params = GraphParams(B, 2, 3)
    records = [
        (params, "d"),
        (build_explicit(params), "params"),
        (enumerate_classes(K, 3)[0], "pattern"),
        (WalkStats(packets=2, mean=1.0, std=0.5), "mean"),
        (input_table(B, 2), "entries"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        del records[1][0].vertices


def test_graph_params_refuse_small_degree_and_diameter():
    with pytest.raises(ValueError, match=r"^degree d must be >= 2, got 1$"):
        GraphParams(B, 1, 3)
    with pytest.raises(ValueError, match=r"^diameter D must be >= 1, got 0$"):
        GraphParams(family=K, d=2, D=0)
    params = GraphParams(family=K, d=2, D=4)
    assert params == GraphParams(K, 2, 4) and str(params) == "K(2,4)"
    assert repr(params) == "GraphParams(family=<Family.KAUTZ: 'K'>, d=2, D=4)"


def test_explicit_graphs_compare_by_identity():
    params = GraphParams(B, 2, 4)
    g, h = build_explicit(params), build_explicit(params)
    assert g == g and g != h
    assert (g.vertices, g.succ, g.index) == (h.vertices, h.succ, h.index)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    # compared inside the child, so modules that site loads before the import do not count
    child = (
        "import sys; before = set(sys.modules); import layerscope.cli; "
        "print(sorted({'dataclasses', 'inspect', 'csv'} & (set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(layerscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
