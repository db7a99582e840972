"""Brute-force ground truth by explicit enumeration and BFS.

Nothing here consults the closed-form layer predicates: distances come from
breadth-first search on the materialized digraph, class sizes from grouping
actual vertices, and probabilities from counting ordered pairs. The formula
side of the package is validated against these numbers with exact rational
equality (verify_grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .graphs import (
    ExplicitDigraph,
    Family,
    GraphParams,
    Vertex,
    bfs_distances,
    build_explicit,
    format_vertex,
)


class DistanceTable:
    """All-pairs BFS distances for one explicit digraph (one bytearray row per source)."""

    def __init__(self, g: ExplicitDigraph):
        self.g = g
        self.rows: List[bytearray] = [bfs_distances(g, s) for s in range(len(g.vertices))]

    def dist(self, u: int, w: int) -> int:
        return self.rows[u][w]

    def layer_counts(self, src: int) -> List[int]:
        counts = [0] * (self.g.params.D + 1)
        for dv in self.rows[src]:
            counts[dv] += 1
        return counts


def oracle_layer_counts(g: ExplicitDigraph, v: Vertex) -> List[int]:
    """|S_i*(v)| for i = 0 .. D via BFS."""
    counts = [0] * (g.params.D + 1)
    for dv in bfs_distances(g, g.index_of(v)):
        counts[dv] += 1
    return counts


def oracle_intersection(g: ExplicitDigraph, v: Vertex, w: Vertex, i: int, j: int) -> int:
    """|S_i*(v) cap S_j*(w)| by intersecting BFS layers."""
    dv = bfs_distances(g, g.index_of(v))
    dw = bfs_distances(g, g.index_of(w))
    return sum(1 for a, b in zip(dv, dw) if a == i and b == j)


def oracle_p_in(g: ExplicitDigraph, i: int) -> Fraction:
    """Probability that a uniform ordered pair of distinct vertices is at distance i."""
    n = len(g.vertices)
    total = 0
    for src in range(n):
        row = bfs_distances(g, src)
        total += sum(1 for dv in row if dv == i)
    return Fraction(total, n * (n - 1))


def oracle_mean_distance(g: ExplicitDigraph) -> Fraction:
    n = len(g.vertices)
    total = 0
    for src in range(n):
        total += sum(bfs_distances(g, src))
    return Fraction(total, n * (n - 1))


def oracle_transition_table(g: ExplicitDigraph, table: Optional[DistanceTable] = None) -> Dict[Tuple[int, int], Fraction]:
    """Exact P_t(i, j) for every 1 <= i <= j <= D by replaying the deflection rule.

    For each ordered pair (v, z) at distance i, the deflected link is uniform
    over the d - 1 successors of v other than the one on the unique shortest
    path to z; each landing distance j is counted.
    """
    params = g.params
    D, d = params.D, params.d
    n = len(g.vertices)
    if table is None:
        table = DistanceTable(g)
    rows = table.rows
    acc: Dict[Tuple[int, int], Fraction] = {
        (i, j): Fraction(0) for i in range(1, D + 1) for j in range(i, D + 1)
    }
    for v_id in range(n):
        row_v = rows[v_id]
        succ_rows = [rows[w_id] for w_id in g.succ[v_id]]
        layer_sizes = [0] * (D + 1)
        for dv in row_v:
            layer_sizes[dv] += 1
        # per-(i, j) integer counts for this source; common denominator |S_i*(v)|
        counts = [[0] * (D + 2) for _ in range(D + 1)]
        for z_id in range(n):
            i = row_v[z_id]
            if i == 0:
                continue
            on_path = 0
            c = counts[i]
            for srow in succ_rows:
                j = srow[z_id]
                if j == i - 1 and not on_path:
                    on_path = 1  # the unique shortest-path successor is not a deflection
                    continue
                c[j] += 1
            assert on_path, "no shortest-path successor found"
        for i in range(1, D + 1):
            size = layer_sizes[i]
            if size == 0:
                continue
            for j in range(i, D + 1):
                if counts[i][j]:
                    acc[(i, j)] += Fraction(counts[i][j], size)
    scale = Fraction(1, n * (d - 1))
    return {key: val * scale for key, val in acc.items()}


def oracle_p_t(g: ExplicitDigraph, i: int, j: int) -> Fraction:
    return oracle_transition_table(g)[(i, j)]


def oracle_class_counts(g: ExplicitDigraph) -> Dict[Tuple[int, ...], int]:
    """Vertices grouped by first-occurrence symbol renaming (kept independent of vertex_classes)."""
    counts: Dict[Tuple[int, ...], int] = {}
    for v in g.vertices:
        names: Dict[int, int] = {}
        pat = []
        for s in v:
            if s not in names:
                names[s] = len(names)
            pat.append(names[s])
        key = tuple(pat)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# packet-walk simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkStats:
    """Seeded Monte-Carlo estimate of expected hops under random deflection."""

    packets: int
    mean: float
    std: float

    @property
    def stderr(self) -> float:
        return self.std / self.packets**0.5


def simulate_walk_hops(
    g: ExplicitDigraph,
    deflect_prob: float,
    packets: int,
    seed: int,
    table: Optional[DistanceTable] = None,
) -> WalkStats:
    """Walk packets between uniform ordered pairs of distinct vertices.

    At each hop the packet is deflected with probability deflect_prob to a
    uniform out-link other than the unique shortest-path successor, else it
    follows the shortest path. Deterministic for a fixed seed.
    """
    import random

    rng = random.Random(seed)
    if table is None:
        table = DistanceTable(g)
    rows = table.rows
    succ = g.succ
    n = len(g.vertices)
    p = float(deflect_prob)

    # shortest-path successor and deflection alternatives for every (u, z)
    next_hop: List[List[int]] = [[0] * n for _ in range(n)]
    alternatives: List[List[tuple]] = [[()] * n for _ in range(n)]
    for u in range(n):
        ru = rows[u]
        for z in range(n):
            if u == z:
                continue
            want = ru[z] - 1
            wp = -1
            alts = []
            for w in succ[u]:
                if rows[w][z] == want and wp < 0:
                    wp = w
                else:
                    alts.append(w)
            next_hop[u][z] = wp
            alternatives[u][z] = tuple(alts)

    total = 0.0
    total_sq = 0.0
    rand = rng.random
    choice = rng.choice
    randrange = rng.randrange
    for _ in range(packets):
        u = randrange(n)
        z = randrange(n - 1)
        if z >= u:
            z += 1
        hops = 0
        while u != z:
            if p and rand() < p:
                u = choice(alternatives[u][z])
            else:
                u = next_hop[u][z]
            hops += 1
        total += hops
        total_sq += hops * hops
    mean = total / packets
    var = max(total_sq / packets - mean * mean, 0.0) * packets / (packets - 1)
    return WalkStats(packets=packets, mean=mean, std=var**0.5)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    """One formula-vs-oracle mismatch (match reports are not retained)."""

    quantity: str
    context: dict
    formula_value: str
    oracle_value: str
    match: bool

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "context": self.context,
            "formula": self.formula_value,
            "oracle": self.oracle_value,
            "match": self.match,
        }


@dataclass
class GridSummary:
    checks: int = 0
    mismatches: List[OracleReport] = field(default_factory=list)

    def record(self, quantity: str, context: dict, formula, oracle) -> None:
        self.checks += 1
        if formula != oracle:
            self.mismatch(quantity, context, formula, oracle)

    def mismatch(self, quantity: str, context: dict, formula, oracle) -> None:
        """Keep one mismatch report without counting a check."""
        self.mismatches.append(OracleReport(quantity, context, str(formula), str(oracle), False))

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_graph(params: GraphParams, summary: GridSummary, max_vertices: Optional[int] = None) -> None:
    """Run every formula-vs-oracle check for one (family, d, D)."""
    from . import probabilities as prob
    from .layers import (
        intersection_poly_at,
        intersection_report,
        layer_star_poly,
    )
    from .vertex_classes import enumerate_classes

    g = build_explicit(params, max_vertices)
    table = DistanceTable(g)
    d, D = params.d, params.D
    n = len(g.vertices)
    ctx_base = {"family": str(params.family), "d": d, "D": D}

    summary.record("vertex_count", ctx_base, params.vertex_count, n)

    # closed-form distance vs BFS for every ordered pair
    from .graphs import distance as closed_distance

    for v_id, v in enumerate(g.vertices):
        row = table.rows[v_id]
        summary.checks += n
        for z_id, z in enumerate(g.vertices):
            formula = closed_distance(params, v, z)
            if formula != row[z_id]:
                ctx = {**ctx_base, "v": format_vertex(params, v), "z": format_vertex(params, z)}
                summary.mismatch("distance", ctx, formula, row[z_id])

    # layer counts for every (v, i)
    for v_id, v in enumerate(g.vertices):
        counts = table.layer_counts(v_id)
        summary.checks += D + 1
        for i in range(D + 1):
            formula = layer_star_poly(params, v, i).evaluate(d)
            if formula != counts[i]:
                ctx = {**ctx_base, "v": format_vertex(params, v), "i": i}
                summary.mismatch("layer_count", ctx, formula, counts[i])

    # intersection counts and j0 for every arc and every (i, j)
    for v_id, v in enumerate(g.vertices):
        for w_id in g.succ[v_id]:
            w = g.vertices[w_id]
            arc = {**ctx_base, "v": format_vertex(params, v), "w": format_vertex(params, w)}
            row_v, row_w = table.rows[v_id], table.rows[w_id]
            hist: Dict[Tuple[int, int], int] = {}
            for z in range(n):
                key = (row_v[z], row_w[z])
                hist[key] = hist.get(key, 0) + 1
            for i in range(1, D + 1):
                report = intersection_report(params, v, w, i)
                j0 = report.forward_j
                forward_js = [j for j in range(i, D + 1) if hist.get((i, j), 0) > 0]
                summary.checks += D + 3 - i  # j0 check plus one per j in [i-1, D]
                if j0 != (forward_js[0] if forward_js else None) or len(forward_js) > 1:
                    summary.mismatch("unique_j0", {**arc, "i": i}, j0, forward_js)
                for j in range(i - 1, D + 1):
                    formula = intersection_poly_at(report, j).evaluate(d)
                    oracle = hist.get((i, j), 0)
                    if formula != oracle:
                        summary.mismatch("intersection_count", {**arc, "i": i, "j": j}, formula, oracle)

    # class cardinalities
    observed = oracle_class_counts(g)
    enumerated = {c.pattern: c for c in enumerate_classes(params.family, D)}
    for pattern, c in enumerated.items():
        summary.record(
            "class_cardinality",
            {**ctx_base, "pattern": c.label()},
            c.cardinality.evaluate(d),
            observed.get(pattern, 0),
        )
    stray = set(observed) - set(enumerated)
    if stray:
        summary.mismatch("class_enumeration", ctx_base, "no stray patterns", sorted(stray))

    # input probabilities, transition probabilities, mean distance
    pair_hist = [0] * (D + 1)
    total_dist = 0
    for v_id in range(n):
        for dv in table.rows[v_id]:
            pair_hist[dv] += 1
            total_dist += dv
    pairs = n * (n - 1)
    for i in range(1, D + 1):
        summary.record(
            "p_in",
            {**ctx_base, "i": i},
            prob.p_in(params.family, D, i).evaluate(d),
            Fraction(pair_hist[i], pairs),
        )
    summary.record(
        "mean_distance",
        ctx_base,
        prob.mean_distance(params.family, D).evaluate(d),
        Fraction(total_dist, pairs),
    )

    oracle_pt = oracle_transition_table(g, table)
    for i in range(1, D + 1):
        for j in range(i, D + 1):
            summary.record(
                "p_t",
                {**ctx_base, "i": i, "j": j},
                prob.p_t_value(params.family, d, D, i, j),
                oracle_pt[(i, j)],
            )


def verify_grid(
    families: Iterable[Family] = (Family.DEBRUIJN, Family.KAUTZ),
    d_values: Iterable[int] = (2, 3, 4),
    D_values: Iterable[int] = (2, 3, 4, 5),
    max_vertices: Optional[int] = None,
) -> GridSummary:
    """Cross-check every closed-form quantity against the oracle on a grid of graphs."""
    summary = GridSummary()
    for family in families:
        for d in d_values:
            for D in D_values:
                verify_graph(GraphParams(family, d, D), summary, max_vertices)
    return summary
