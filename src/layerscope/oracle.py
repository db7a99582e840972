"""Brute-force ground truth by explicit enumeration and BFS, and the packet walk.

The verify oracle consults no closed form: distances come from breadth-first
search on the materialized digraph, all sources at once, class sizes from grouping
actual vertices, and probabilities from counting ordered pairs. The formula side of
the package is validated against them with exact rational equality (verify_grid).
The packet walk starts from `graphs.distance_row` (checked against BFS by
verify_graph) and follows a packet's distance alone, on `graphs.landing_row`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ChainDiverges
from .graphs import ExplicitDigraph, Family, GraphParams, build_explicit, format_vertex

_UNREACHED = bytes.maketrans(b"01", b"\x01\x00")  # a reach-set bit as 1 byte where not reached


class DistanceTable:
    """All-pairs BFS distances for one explicit digraph (one bytearray row per source).

    BFS runs for all sources at once on n-bit reach sets, R_0[s] = {s} and R_{t+1}[s] = R_t[s] | R_t[w] over
    the arcs s -> w, until none grows. Byte z of row s counts the rounds with z not in R_t[s] (255 if never
    reached), as `graphs.bfs_distances`; an n-byte int per source, freed as its row is made, holds the count.
    With two generations of sets that peaks at about n^2/3 bytes beyond the rows (5.5 MB at n = 4096).

    Every BFS quantity the oracle checks is read off these rows with whole-row
    operations: layer sizes by `layer_counts`, arc intersections by
    `arc_histogram`. The latter codes the pair (i, j) as the byte i*(D+1) + j,
    read as whole-row integers: row v times D + 1 plus row w, which cannot
    carry while D <= 15 (APSP_CAP admits no table beyond D = 14).
    """

    def __init__(self, g: ExplicitDigraph):
        self.g = g
        n = len(g.vertices)
        full, fmt = (1 << n) - 1, f"0{n}b"
        reach, acc, rounds = [1 << n - 1 - s for s in range(n)], [0] * n, 0
        while True:
            for s, r in enumerate(reach):
                if r != full:  # add 1 at every z not in r: z is bit n - 1 - z, so format() lists z in id order
                    acc[s] += int.from_bytes(format(r, fmt).encode().translate(_UNREACHED), "big")
            rounds += 1
            if (grown := [reduce(or_, map(reach.__getitem__, ws), r) for r, ws in zip(reach, g.succ)]) == reach:
                break
            reach = grown
        never = bytes(range(rounds)) + b"\xff" * (256 - rounds)  # a vertex never reached counted every round
        for s in range(n):
            acc[s] = bytearray(acc[s].to_bytes(n, "big").translate(never))  # each row frees its accumulator
        self.rows: List[bytearray] = acc

    def layer_counts(self, src: int) -> List[int]:
        """|S_i*(v)| for i = 0 .. D, where v has id src."""
        row = self.rows[src]
        return [row.count(i) for i in range(self.g.params.D + 1)]

    def arc_histogram(self, v_id: int, *w_ids: int) -> Counter:
        """|S_i*(v) cap S_j*(w)| keyed by (i, j), summed over the given w; absent keys count 0."""
        rows, width = self.rows, self.g.params.D + 1
        scaled = int.from_bytes(rows[v_id], "big") * width
        codes = b"".join((scaled + int.from_bytes(rows[w], "big")).to_bytes(len(rows), "big") for w in w_ids)
        return Counter({divmod(c, width): count for c, count in Counter(codes).items()})


def oracle_mean_distance(g: ExplicitDigraph) -> Fraction:
    n = len(g.vertices)
    return Fraction(sum(map(sum, DistanceTable(g).rows)), n * (n - 1))


def oracle_transition_table(g: ExplicitDigraph, table: Optional[DistanceTable] = None) -> Dict[Tuple[int, int], Fraction]:
    """Exact P_t(i, j) for every 1 <= i <= j <= D by replaying the deflection rule.

    For each ordered pair (v, z) at distance i, the deflected link is uniform
    over the d - 1 successors of v other than the one on the unique shortest
    path to z; each landing distance j is counted. Summed over the successors
    w of v, the arc histograms count those landings (see `_transition_table`).
    """
    if table is None:
        table = DistanceTable(g)
    landed = ((v, table.arc_histogram(v, *succ_v), table.layer_counts(v)) for v, succ_v in enumerate(g.succ))
    return _transition_table(g.params, len(g.vertices), landed)


def _transition_table(params: GraphParams, n: int, landed: Iterable) -> Dict[Tuple[int, int], Fraction]:
    """P_t from (v_id, arc histogram summed over v's out-arcs, |S_i*(v)| for i = 0 .. D) per vertex v. Its
    landings at i - 1 must number |S_i*(v)|: one shortest-path successor per destination, else AssertionError."""
    D = params.D
    landings: Counter = Counter()  # (i, j, |S_i*(v)|): landings summed over v
    for v_id, hist, sizes in landed:
        for i in range(1, D + 1):
            if hist[(i, i - 1)] != sizes[i]:
                raise AssertionError(f"vertex {v_id}: not one shortest-path successor per destination")
            for j in range(i, D + 1):
                if hist[(i, j)]:
                    landings[(i, j, sizes[i])] += hist[(i, j)]
    acc = dict.fromkeys(((i, j) for i in range(1, D + 1) for j in range(i, D + 1)), Fraction(0))
    for (i, j, size), count in landings.items():
        acc[(i, j)] += Fraction(count, size)
    scale = Fraction(1, n * (params.d - 1))
    return {key: val * scale for key, val in acc.items()}


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


def simulate_walk_hops(g: ExplicitDigraph, deflect_prob: float, packets: int, seed: int) -> WalkStats:
    """Walk packets between uniform ordered pairs of distinct vertices.

    At each hop the packet is deflected with probability deflect_prob to a
    uniform out-link other than the unique shortest-path successor, else it
    follows the shortest path. Deterministic for a fixed seed.

    A packet is followed by its distance r to z alone: a straight hop lowers r
    by one, a deflection reads r off z's `graphs.landing_row`. The initial r is
    read off `graphs.distance_row` (no BFS): n^2 bytes. At deflect_prob > 0 the
    rows must give each z exactly one shortest-path successor (else
    AssertionError), and the landing rows add n D (d - 1) bytes.

    Raises ChainDiverges at deflect_prob 1 (no packet would arrive) and
    ValueError for deflect_prob outside [0, 1), fewer than 2 packets or fewer
    than 2 vertices (no pair to draw).
    """
    import random

    from .graphs import distance_row, landing_row

    if deflect_prob == 1:
        raise ChainDiverges("deflection probability 1: no packet reaches its destination")
    if not 0 <= deflect_prob < 1 or packets < 2:
        raise ValueError(f"need 0 <= deflect_prob < 1 and packets >= 2, got {deflect_prob} and {packets}")
    if len(g.vertices) < 2:
        raise ValueError(f"need at least 2 vertices to draw a pair, got {len(g.vertices)}")
    rng = random.Random(seed)
    rows = [distance_row(g.params, v) for v in g.vertices]
    n = len(g.vertices)
    p = float(deflect_prob)

    # Each z but u needs exactly one successor w one hop closer: a zero byte of
    # (row w + 1) xor row u. Bytes stay below 128 (distances <= D <= 14), so + 127 sets
    # bit 7 of the nonzero ones; the masks of the zero ones must be disjoint and miss only u.
    ones = (256**n - 1) // 255
    low, high = ones * 127, ones << 7
    for u, succ_u in enumerate(g.succ if p else ()):
        row_u, seen, twice = int.from_bytes(rows[u], "big"), 0, 0
        for w in succ_u:
            x = (int.from_bytes(rows[w], "big") + ones) ^ row_u
            mask = (x + low) & high ^ high
            twice |= seen & mask
            seen |= mask
        if twice or seen != (ones ^ 1 << 8 * (n - 1 - u)) << 7:
            raise AssertionError(f"vertex {u}: not one shortest-path successor per destination")
    land = [landing_row(g.params, z) for z in g.vertices] if p else ()
    # Random.randrange(m) and Random.choice(range(m)) both draw getrandbits
    # of m's bit length until the value is below m; the walk makes the same
    # draws in the same order, k for the k-th of the d - 1 deflection links.
    getrandbits, rand = rng.getrandbits, rng.random
    m, others = n - 1, g.params.d - 1
    n_bits, m_bits, k_bits = n.bit_length(), m.bit_length(), others.bit_length()

    total = 0.0
    total_sq = 0.0
    for _ in range(packets):
        u = getrandbits(n_bits)
        while u >= n:
            u = getrandbits(n_bits)
        z = getrandbits(m_bits)
        while z >= m:
            z = getrandbits(m_bits)
        if z >= u:
            z += 1
        hops = r = rows[u][z]  # a straight hop per unit of distance, plus what deflections add
        if p:  # else no draw per hop: the packet follows the shortest path
            row = land[z]
            while r:
                if rand() < p:
                    k = getrandbits(k_bits)
                    while k >= others:
                        k = getrandbits(k_bits)
                    j = row[(r - 1) * others + k]
                    hops, r = hops + j - r + 1, j  # the deflected hop, then j - (r - 1) more
                else:
                    r -= 1
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


def verify_graph(params: GraphParams, summary: GridSummary) -> None:
    """Run every formula-vs-oracle check for one (family, d, D)."""
    from . import probabilities as prob
    from .layers import LayerPolynomial, intersection_report_eval, layer_masks, suffix_periods
    from .vertex_classes import enumerate_classes

    d, D = params.d, params.D
    g = build_explicit(params)
    enumerated = {c.pattern: c for c in enumerate_classes(params.family, D)}  # the class cap, before any BFS
    table = DistanceTable(g)
    n = len(g.vertices)
    ctx_base = {"family": str(params.family), "d": d, "D": D}

    summary.record("vertex_count", ctx_base, params.vertex_count, n)

    # closed-form distance row vs BFS row for every source
    from .graphs import distance_row

    for v_id, v in enumerate(g.vertices):
        row, formula = table.rows[v_id], distance_row(params, v)
        summary.checks += n
        if formula != row:
            for z_id, z in enumerate(g.vertices):
                if formula[z_id] != row[z_id]:
                    ctx = {**ctx_base, "v": format_vertex(params, v), "z": format_vertex(params, z)}
                    summary.mismatch("distance", ctx, formula[z_id], row[z_id])

    # layer counts for every (v, i), from each vertex's suffix periods and layer masks, computed once
    periods = [suffix_periods(v) for v in g.vertices]
    masks = [layer_masks(params.family, D, pi) for pi in periods]
    layer_counts = [table.layer_counts(v_id) for v_id in range(n)]
    for v, counts, masks_v in zip(g.vertices, layer_counts, masks):
        summary.checks += D + 1
        for i in range(D + 1):
            formula = LayerPolynomial.from_mask(i, masks_v[i]).evaluate(d)
            if formula != counts[i]:
                ctx = {**ctx_base, "v": format_vertex(params, v), "i": i}
                summary.mismatch("layer_count", ctx, formula, counts[i])

    # intersection counts and j0 for every arc and every (i, j); the arcs come
    # from g.succ, so one report list per arc needs no adjacency check. An arc whose formula cells equal its
    # histogram's cells at i >= 1 passes in one comparison; any other is explained cell by cell.
    def arc(v, w, **cell):
        return {**ctx_base, "v": format_vertex(params, v), "w": format_vertex(params, w), **cell}

    def checked_arcs():  # each vertex's out-arcs checked, then their summed histogram for the oracle P_t
        for v_id, v in enumerate(g.vertices):
            landed: Counter = Counter()
            for w_id in g.succ[v_id]:
                w, pi_v, pi_w = g.vertices[w_id], periods[v_id], periods[w_id]
                hist = table.arc_histogram(v_id, w_id)
                landed.update(hist)
                reports = intersection_report_eval(params.family, D, v, w, pi_v, pi_w, masks[v_id], d == 2)
                summary.checks += D * (D + 5) // 2  # per i: j0 check plus one per j in [i-1, D]
                cells = {}  # the nonzero formula cells, and forward at j0 always (hist holds no zero)
                for i, report in enumerate(reports, 1):
                    if report.back is not None and (back := report.back.evaluate(d)):
                        cells[(i, i - 1)] = back
                    j0 = report.forward_j
                    if j0 is not None:  # a j0 outside [i, D] fails its check: a key no histogram holds
                        cells[(i, j0) if i <= j0 <= D else ("j0", i)] = report.forward.evaluate(d)
                if cells == {(i, j): c for (i, j), c in hist.items() if i}:
                    continue
                for i, report in enumerate(reports, 1):
                    j0 = report.forward_j
                    forward_js = [j for j in range(i, D + 1) if hist[(i, j)]]
                    if j0 != (forward_js[0] if forward_js else None) or len(forward_js) > 1:
                        summary.mismatch("unique_j0", arc(v, w, i=i), j0, forward_js)
                    for j in range(i - 1, D + 1):
                        if (formula := cells.get((i, j), 0)) != hist[(i, j)]:
                            summary.mismatch("intersection_count", arc(v, w, i=i, j=j), formula, hist[(i, j)])
            yield v_id, landed, layer_counts[v_id]

    oracle_pt = _transition_table(params, n, checked_arcs())

    # class cardinalities
    observed = oracle_class_counts(g)
    for pattern, c in enumerated.items():
        formula, oracle = c.cardinality.evaluate(d), observed.get(pattern, 0)
        summary.checks += 1
        if formula != oracle:
            summary.mismatch("class_cardinality", {**ctx_base, "pattern": c.label()}, formula, oracle)
    stray = set(observed) - set(enumerated)
    if stray:
        summary.mismatch("class_enumeration", ctx_base, "no stray patterns", sorted(stray))

    # input probabilities, transition probabilities, mean distance
    pair_hist = [sum(layer) for layer in zip(*layer_counts)]
    total_dist = sum(i * count for i, count in enumerate(pair_hist))
    pairs = n * (n - 1)
    p_in = {i: prob.p_in_value(params.family, d, D, i) for i in range(1, D + 1)}
    for i in range(1, D + 1):
        summary.record("p_in", {**ctx_base, "i": i}, p_in[i], Fraction(pair_hist[i], pairs))
    summary.record(
        "mean_distance",
        ctx_base,
        sum(i * p for i, p in p_in.items()),
        Fraction(total_dist, pairs),
    )

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
) -> GridSummary:
    """Cross-check every closed-form quantity against the oracle on a grid of graphs."""
    summary = GridSummary()
    for family in families:
        for d in d_values:
            for D in D_values:
                verify_graph(GraphParams(family, d, D), summary)
    return summary
