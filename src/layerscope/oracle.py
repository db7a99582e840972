"""Brute-force ground truth by explicit enumeration and BFS, and the packet walk.

The verify oracle consults no closed form: distances come from breadth-first
search on the materialized digraph, all sources at once, class sizes from grouping
actual vertices, and probabilities from counting ordered pairs. The formula side of
the package is validated against them with exact rational equality (verify_grid).
verify_graph runs one check per quantity on one DistanceTable: `_check_distances`,
`_check_layer_counts`, `_check_arcs` (intersection counts and j0, whose landings give
the oracle P_t), `_check_class_sizes`, `_check_p_in` (and the mean distance), `_check_p_t`.
The packet walk starts from `graphs.distance_row` (checked against BFS by
verify_graph) and follows a packet's distance alone, on `graphs.landing_row`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import graphs, layers, probabilities, vertex_classes
from .errors import ChainDiverges
from .graphs import ExplicitDigraph, Family, GraphParams, Vertex, build_explicit, format_vertex

_UNREACHED = bytes.maketrans(b"01", b"\x01\x00")  # a reach-set bit as 1 byte where not reached


class DistanceTable:
    """All-pairs BFS distances for one explicit digraph (one bytearray row per source).

    BFS runs for all sources at once on n-bit reach sets, R_0[s] = {s} and R_{t+1}[s] = R_t[s] | R_t[w] over
    the arcs s -> w, until none grows. Byte z of row s counts the rounds with z not in R_t[s] (255 if never
    reached), as `graphs.bfs_distances`; an n-byte int per source, freed as its row is made, holds the count.
    With two generations of sets that peaks at about n^2/3 bytes beyond the rows (5.5 MB at n = 4096).

    Every BFS quantity the oracle checks is read off these rows with whole-row
    operations: layer sizes by `layer_counts`, arc intersections by counting
    `arc_codes`, or as an `arc_histogram` of them. A code is the pair (i, j) as
    the byte i*(D+1) + j, read as whole-row integers: row v times D + 1 plus
    row w, which cannot carry while D <= 15 (APSP_CAP admits no table beyond
    D = 14).
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

    def arc_codes(self, v_id: int, *w_ids: int) -> bytes:
        """One n-byte block per given w, byte z of which codes (dist(v, z), dist(w, z)) as i*(D+1) + j."""
        rows = self.rows
        scaled = int.from_bytes(rows[v_id], "big") * (self.g.params.D + 1)
        return b"".join((scaled + int.from_bytes(rows[w], "big")).to_bytes(len(rows), "big") for w in w_ids)

    def arc_histogram(self, v_id: int, *w_ids: int) -> Counter:
        """|S_i*(v) cap S_j*(w)| keyed by (i, j), summed over the given w; absent keys count 0."""
        width = self.g.params.D + 1
        return Counter({divmod(c, width): count for c, count in Counter(self.arc_codes(v_id, *w_ids)).items()})


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
    """P_t from (v_id, arc cells (i, j) summed over v's out-arcs, |S_i*(v)| for i = 0 .. D) per vertex v. Its
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


class WalkStats(NamedTuple):
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


class OracleReport(NamedTuple):
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


class GridSummary:
    __slots__ = ("checks", "mismatches")

    def __init__(self):
        self.checks, self.mismatches = 0, []  # checks counted, the OracleReports of those that failed

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


def arc_report_key(v: Vertex, w: Vertex, pi_v: Tuple[int, ...], pi_w: Tuple[int, ...]) -> tuple:
    """All that `layers.intersection_report_eval` reads of the arc v -> w, given the graph's family, D and d:
    the suffix periods of v and w (v's layer masks and tail index follow from pi_v) and the bits p with
    v[p] = w[-1] (bit D - 1 says whether v[-1] = w[-1]). Arcs with equal keys get equal reports up to v and w."""
    x = w[-1]
    return pi_v, pi_w, sum(1 << p for p, y in enumerate(v) if y == x)


def cell_codes(cells: dict, D: int, n: int) -> Optional[Tuple[Tuple[int, int], ...]]:
    """An arc's cells {(i, j): count} as (byte code i*(D+1) + j, count) pairs for `codes_hold`, or None where
    counting codes cannot decide the arc: a key that is no (i, j) with 1 <= i <= D and 0 <= j <= D, a count
    <= 0, or counts whose sum is not n - 1 (the z other than v, each at some distance i >= 1 from v)."""
    if sum(cells.values()) != n - 1:
        return None
    codes = []
    for (i, j), count in cells.items():
        if i == "j0" or not (1 <= i <= D and 0 <= j <= D and count > 0):
            return None
        codes.append((i * (D + 1) + j, count))
    return tuple(codes)


def codes_hold(codes: bytes, v_id: int, D: int, expected: Tuple[Tuple[int, int], ...]) -> bool:
    """Whether arc v -> w's n codes (`DistanceTable.arc_codes`) hold each (code, count) of `cell_codes` exactly
    and byte v codes i = 0. The counts sum to n - 1, so that is every byte: the arc's histogram at i >= 1
    equals its cells, without being built."""
    return codes[v_id] <= D and all(codes.count(code) == count for code, count in expected)


def verify_graph(params: GraphParams, summary: GridSummary) -> None:
    """Run every formula-vs-oracle check for one (family, d, D): the `_check_*` of each quantity, on one table."""
    g = build_explicit(params)  # refused over APSP_CAP before any vertex is built
    table = DistanceTable(g)  # the BFS; its n <= 16,384 vertices bound the realizable classes far below CLASS_CAP
    ctx = {"family": str(params.family), "d": params.d, "D": params.D}
    summary.record("vertex_count", ctx, params.vertex_count, len(g.vertices))
    _check_distances(g, table.rows, summary, ctx)
    periods = [layers.suffix_periods(v) for v in g.vertices]  # once per vertex, for its layers and out-arcs
    masks = [layers.layer_masks(params.family, params.D, pi) for pi in periods]
    counts = [table.layer_counts(v_id) for v_id in range(len(g.vertices))]
    _check_layer_counts(g, masks, counts, summary, ctx)
    oracle_pt = _transition_table(params, len(g.vertices), _check_arcs(g, table, periods, masks, counts, summary, ctx))
    _check_class_sizes(g, summary, ctx)
    _check_p_in(params, counts, summary, ctx)
    _check_p_t(params, oracle_pt, summary, ctx)


def _check_distances(g: ExplicitDigraph, rows: List[bytearray], summary: GridSummary, ctx: dict) -> None:
    """The closed-form `graphs.distance_row` of every source against its BFS row, one comparison per row."""
    for v, row in zip(g.vertices, rows):
        formula = graphs.distance_row(g.params, v)
        summary.checks += len(row)
        if formula != row:
            for z_id, z in enumerate(g.vertices):
                if formula[z_id] != row[z_id]:
                    pair = {**ctx, "v": format_vertex(g.params, v), "z": format_vertex(g.params, z)}
                    summary.mismatch("distance", pair, formula[z_id], row[z_id])


def _check_layer_counts(g: ExplicitDigraph, masks: list, counts: list, summary: GridSummary, ctx: dict) -> None:
    """|S_i*(v)| from v's layer masks for every (v, i); it depends on (i, mask) alone, so each is evaluated once."""
    D = g.params.D
    values: Dict[Tuple[int, int], int] = {}
    for v, counts_v, masks_v in zip(g.vertices, counts, masks):
        summary.checks += D + 1
        for i in range(D + 1):
            if (formula := values.get((i, masks_v[i]))) is None:
                formula = values[(i, masks_v[i])] = layers.LayerPolynomial.from_mask(i, masks_v[i]).evaluate(g.params.d)
            if formula != counts_v[i]:
                summary.mismatch("layer_count", {**ctx, "v": format_vertex(g.params, v), "i": i}, formula, counts_v[i])


def _check_arcs(
    g: ExplicitDigraph, table: DistanceTable, periods: list, masks: list, counts: list, summary: GridSummary, ctx: dict
) -> Iterable[tuple]:
    """Intersection counts and j0 of every arc and (i, j), yielding (v_id, cells summed over v's out-arcs, |S_i*(v)|)
    per vertex for `_transition_table`. The arcs come from g.succ, so they need no adjacency check. An arc's reports
    depend on it only through its `arc_report_key`, so each key's j0 per i, formula cells and `cell_codes` are
    evaluated once. An arc whose codes hold them passes and lands its key's cells; any other builds its histogram,
    lands that and is explained cell by cell from its key's j0 and cells."""
    params, n = g.params, len(g.vertices)
    d, D = params.d, params.D
    period_keys = [tuple(pi) for pi in periods]
    entries: Dict[tuple, tuple] = {}  # arc key -> (j0 per i, formula cells, their `cell_codes`)
    for v_id, v in enumerate(g.vertices):
        landed: Counter = Counter()
        codes = table.arc_codes(v_id, *g.succ[v_id])
        for at, w_id in zip(range(0, len(codes), n), g.succ[v_id]):
            w = g.vertices[w_id]
            summary.checks += D * (D + 5) // 2  # per i: j0 check plus one per j in [i-1, D]
            key = arc_report_key(v, w, period_keys[v_id], period_keys[w_id])
            if (entry := entries.get(key)) is None:
                pis = periods[v_id], periods[w_id]
                reports = layers.intersection_report_eval(params.family, D, v, w, *pis, masks[v_id], d == 2)
                cells = {}  # the nonzero formula cells, and forward at j0 always (a histogram holds no zero)
                for i, report in enumerate(reports, 1):
                    if report.back is not None and (back := report.back.evaluate(d)):
                        cells[(i, i - 1)] = back
                    if (j0 := report.forward_j) is not None:  # a j0 outside [i, D] fails: a key no histogram holds
                        cells[(i, j0) if i <= j0 <= D else ("j0", i)] = report.forward.evaluate(d)
                entry = entries[key] = [r.forward_j for r in reports], cells, cell_codes(cells, D, n)
            j0s, cells, expected = entry
            if expected is not None and codes_hold(codes[at : at + n], v_id, D, expected):
                landed.update(cells)
                continue
            hist = table.arc_histogram(v_id, w_id)
            landed.update(hist)
            for i, j0 in enumerate(j0s, 1):
                arc = {**ctx, "v": format_vertex(params, v), "w": format_vertex(params, w), "i": i}
                forward_js = [j for j in range(i, D + 1) if hist[(i, j)]]
                if j0 != (forward_js[0] if forward_js else None) or len(forward_js) > 1:
                    summary.mismatch("unique_j0", arc, j0, forward_js)
                for j in range(i - 1, D + 1):
                    if (formula := cells.get((i, j), 0)) != hist[(i, j)]:
                        summary.mismatch("intersection_count", {**arc, "j": j}, formula, hist[(i, j)])
        yield v_id, landed, counts[v_id]


def _check_class_sizes(g: ExplicitDigraph, summary: GridSummary, ctx: dict) -> None:
    """Class cardinalities over the classes with at most `bound` symbols: the largest s whose class size is not 0
    at d, or the symbols of an observed pattern if more (min(alphabet, D) when both sides are right). A pattern
    past the bound has size 0 and no vertex: one passing check, counted and not built."""
    family, d, D = g.params.family, g.params.d, g.params.D
    observed = oracle_class_counts(g)
    sized = [s for s in range(D + 1) if vertex_classes.class_cardinality_poly(family, s).evaluate(d)]  # s = 0 gives 1
    checked = vertex_classes.enumerate_classes(family, D, max(sized + [max(p) + 1 for p in observed]))
    summary.checks += vertex_classes.class_count(family, D)  # one per pattern, built or not
    for c in checked:
        formula, oracle = c.cardinality.evaluate(d), observed.get(c.pattern, 0)
        if formula != oracle:
            summary.mismatch("class_cardinality", {**ctx, "pattern": c.label()}, formula, oracle)
    stray = set(observed) - {c.pattern for c in checked}
    if stray:
        summary.mismatch("class_enumeration", ctx, "no stray patterns", sorted(stray))


def _check_p_in(params: GraphParams, counts: list, summary: GridSummary, ctx: dict) -> None:
    """P_in(i) for i = 1 .. D and the mean distance against the ordered pairs counted at each distance."""
    pair_hist = [sum(layer) for layer in zip(*counts)]  # ordered pairs per distance
    pairs = len(counts) * (len(counts) - 1)
    p_in = {i: probabilities.p_in_value(params.family, params.d, params.D, i) for i in range(1, params.D + 1)}
    for i, p in p_in.items():
        summary.record("p_in", {**ctx, "i": i}, p, Fraction(pair_hist[i], pairs))
    oracle_mean = Fraction(sum(i * count for i, count in enumerate(pair_hist)), pairs)
    summary.record("mean_distance", ctx, sum(i * p for i, p in p_in.items()), oracle_mean)


def _check_p_t(params: GraphParams, oracle_pt: dict, summary: GridSummary, ctx: dict) -> None:
    """P_t(i, j) for every 1 <= i <= j <= D against the oracle's landings."""
    for (i, j), oracle in oracle_pt.items():
        formula = probabilities.p_t_value(params.family, params.d, params.D, i, j)
        summary.record("p_t", {**ctx, "i": i, "j": j}, formula, oracle)


_DEFAULT_GRID = (Family.DEBRUIJN, Family.KAUTZ), (2, 3, 4), (2, 3, 4, 5)  # verify's families, d and D values


def verify_grid(
    families: Iterable[Family] = _DEFAULT_GRID[0],
    d_values: Iterable[int] = _DEFAULT_GRID[1],
    D_values: Iterable[int] = _DEFAULT_GRID[2],
) -> GridSummary:
    """Cross-check every closed-form quantity against the oracle on a grid of graphs."""
    summary = GridSummary()
    for family in families:
        for d in d_values:
            for D in D_values:
                verify_graph(GraphParams(family, d, D), summary)
    return summary
