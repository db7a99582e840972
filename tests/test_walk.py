"""The seeded packet walk: pinned statistics, the one-successor check and its memory."""

import functools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layerscope.graphs
from layerscope.errors import ChainDiverges, TooLarge
from layerscope.graphs import ExplicitDigraph, Family, GraphParams, build_explicit
from layerscope.oracle import DistanceTable, WalkStats, simulate_walk_hops

# WalkStats (mean, std) recorded with the n x n next-hop/alternatives tables
# that the hop index replaced; every seed must reproduce them bit for bit.
# p = 9/10 walks take thousands of hops per packet, hence the few packets.
PINNED = {
    (("DEBRUIJN", 2, 6), "0", 7, 2000): (4.527, 1.3323507718651435),
    (("DEBRUIJN", 2, 6), "0", 2024, 2000): (4.5305, 1.3527692864532324),
    (("DEBRUIJN", 2, 6), "1/10", 7, 2000): (6.353, 3.7182393214834786),
    (("DEBRUIJN", 2, 6), "1/10", 2024, 2000): (6.3315, 3.75081885340195),
    (("DEBRUIJN", 2, 6), "9/10", 7, 3): (83167.33333333333, 49535.74557159036),
    (("DEBRUIJN", 2, 6), "9/10", 2024, 3): (245897.66666666666, 243907.3877055251),
    (("DEBRUIJN", 3, 4), "0", 7, 2000): (3.39, 0.8192897032240208),
    (("DEBRUIJN", 3, 4), "0", 2024, 2000): (3.3705, 0.827388684970981),
    (("DEBRUIJN", 3, 4), "1/10", 7, 2000): (4.3105, 2.1862020697421523),
    (("DEBRUIJN", 3, 4), "1/10", 2024, 2000): (4.3015, 2.1146710540491678),
    (("DEBRUIJN", 3, 4), "9/10", 7, 10): (8513.8, 7956.6599190028655),
    (("DEBRUIJN", 3, 4), "9/10", 2024, 10): (6204.6, 5395.872377207518),
    (("KAUTZ", 2, 5), "0", 7, 2000): (3.9835, 1.1523418311629254),
    (("KAUTZ", 2, 5), "0", 2024, 2000): (3.978, 1.1441899253588295),
    (("KAUTZ", 2, 5), "1/10", 7, 2000): (5.4265, 3.047005065623451),
    (("KAUTZ", 2, 5), "1/10", 2024, 2000): (5.288, 2.923581650105297),
    (("KAUTZ", 2, 5), "9/10", 7, 3): (96771.33333333333, 49299.291083476375),
    (("KAUTZ", 2, 5), "9/10", 2024, 3): (70639.33333333333, 38067.9755349997),
    (("KAUTZ", 4, 4), "0", 7, 2000): (3.669, 0.6234046171294604),
    (("KAUTZ", 4, 4), "0", 2024, 2000): (3.6425, 0.6541465461591338),
    (("KAUTZ", 4, 4), "1/10", 7, 2000): (4.8215, 2.237887803467916),
    (("KAUTZ", 4, 4), "1/10", 2024, 2000): (4.726, 2.1293640119875636),
    (("KAUTZ", 4, 4), "9/10", 7, 10): (10857.8, 7944.9876414140645),
    (("KAUTZ", 4, 4), "9/10", 2024, 10): (10075.3, 9416.902192334805),
    # degree above 256: a successor index no longer fits in one byte (one seed
    # each: the distance table and hop index of these dense graphs are slow)
    (("KAUTZ", 300, 1), "1/10", 7, 3000): (1.1093333333333333, 0.33776360121489923),
    (("KAUTZ", 300, 1), "9/10", 7, 3000): (10.137666666666666, 9.763835929229174),
    (("DEBRUIJN", 300, 1), "1/10", 7, 3000): (1.1126666666666667, 0.34255705704986866),
    (("DEBRUIJN", 300, 1), "9/10", 7, 3000): (10.145, 9.775504854740497),
}

_GRAPHS = sorted({key[0] for key in PINNED})


def _walk_on_rows(monkeypatch, g, rows):
    """A short walk on g with graphs.distance_row patched to hand out rows[k] for vertex k."""
    by_vertex = dict(zip(g.vertices, rows))
    monkeypatch.setattr(layerscope.graphs, "distance_row", lambda params, v: by_vertex[v])
    return simulate_walk_hops(g, 0.1, 10, seed=1)


def test_walk_rejects_two_shortest_path_successors(monkeypatch):
    g = build_explicit(GraphParams(Family.KAUTZ, 3, 3))
    table = DistanceTable(g)
    u = 0
    z = next(z for z in range(len(g.vertices)) if table.rows[u][z] == 3)
    want = table.rows[u][z] - 1
    # a second successor of u now also looks one hop closer to z than u is
    w = next(w for w in g.succ[u] if table.rows[w][z] != want)
    table.rows[w][z] = want
    with pytest.raises(AssertionError):
        _walk_on_rows(monkeypatch, g, table.rows)


def test_walk_rejects_two_shortest_path_successors_in_wide_lanes(monkeypatch):
    # degree above 256: more successors than a one-byte count could hold
    g = build_explicit(GraphParams(Family.DEBRUIJN, 300, 1))
    table = DistanceTable(g)
    u, z = 0, 1
    assert table.rows[u][z] == 1
    w = next(w for w in g.succ[u] if table.rows[w][z] == 1)
    table.rows[w][z] = 0
    with pytest.raises(AssertionError):
        _walk_on_rows(monkeypatch, g, table.rows)


def test_walk_rejects_two_closer_successors_in_a_bfs_table(monkeypatch):
    # a strongly connected stand-in with B(2,2)'s size: vertex 0 reaches 3 through
    # both of its successors, 1 and 2, and every other (u, z) has one closer successor
    params = GraphParams(Family.DEBRUIJN, 2, 2)
    vertices = ((0, 0), (0, 1), (1, 0), (1, 1))
    g = ExplicitDigraph(params, vertices, succ=((1, 2), (3, 0), (3, 0), (0, 1)), index={})
    table = DistanceTable(g)
    assert (table.rows[0][3], table.rows[1][3], table.rows[2][3]) == (2, 1, 1)
    with pytest.raises(AssertionError, match="vertex 0"):
        _walk_on_rows(monkeypatch, g, table.rows)


def test_walk_rejects_a_destination_with_no_closer_successor(monkeypatch):
    # raising one entry removes closer successors and adds none
    g = build_explicit(GraphParams(Family.DEBRUIJN, 2, 2))
    table = DistanceTable(g)
    table.rows[0][3] += 5
    with pytest.raises(AssertionError, match="vertex 0"):
        _walk_on_rows(monkeypatch, g, table.rows)


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda k: f"{Family[k[0]]}({k[1]},{k[2]})")
def test_walk_stats_pinned_on_closed_form_rows(graph):
    # the initial distances come from graphs.distance_row, not from BFS
    family, d, D = graph
    g = build_explicit(GraphParams(Family[family], d, D))
    for (key, p, seed, packets), (mean, std) in PINNED.items():
        if key != graph:
            continue
        stats = simulate_walk_hops(g, float(Fraction(p)), packets, seed)
        assert (stats.packets, stats.mean, stats.std) == (packets, mean, std), (p, seed)


def test_walk_without_table_memory_below_two_bytes_per_pair():
    # the n^2 distance rows and n D (d - 1) landing bytes: no n^2 hop index
    g = build_explicit(GraphParams(Family.KAUTZ, 4, 4))
    n = len(g.vertices)
    tracemalloc.start()
    try:
        simulate_walk_hops(g, 0.1, 20_000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n, peak


def test_walk_at_p_zero_builds_no_hop_index():
    # at p = 0 a packet's hops are its distance row entry: the n^2 rows, no hop index
    g = build_explicit(GraphParams(Family.KAUTZ, 4, 4))
    n = len(g.vertices)
    tracemalloc.start()
    try:
        simulate_walk_hops(g, 0.0, 20_000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n, peak


def reference_walk(g, table, deflect_prob, packets, seed):
    """The packet loop as first written: Random.randrange and Random.choice,
    and the shortest-path successor searched per hop in the BFS rows."""
    rng = random.Random(seed)
    rows, succ, n = table.rows, g.succ, len(g.vertices)
    others = range(g.params.d - 1)
    total = total_sq = 0.0
    for _ in range(packets):
        u = rng.randrange(n)
        z = rng.randrange(n - 1)
        if z >= u:
            z += 1
        hops = 0
        while u != z:
            h = next(k for k, w in enumerate(succ[u]) if rows[w][z] < rows[u][z])
            if deflect_prob and rng.random() < deflect_prob:
                k = rng.choice(others)
                u = succ[u][k + (k >= h)]
            else:
                u = succ[u][h]
            hops += 1
        total += hops
        total_sq += hops * hops
    mean = total / packets
    var = max(total_sq / packets - mean * mean, 0.0) * packets / (packets - 1)
    return WalkStats(packets=packets, mean=mean, std=var**0.5)


# every (family, d, D) with at most 400 vertices and d <= 16: n a power of two
# (B(2,8), B(4,4), K(3,2), ...) or not, and d = 2, where a deflection has one
# link to choose from but still draws for it
_SMALL = [
    (family, d, D)
    for family in Family
    for d in range(2, 17)
    for D in range(1, 9)
    if GraphParams(family, d, D).vertex_count <= 400
]


@functools.lru_cache(maxsize=None)
def _graph_and_table(family, d, D):
    g = build_explicit(GraphParams(family, d, D))
    return g, DistanceTable(g)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    graph=st.sampled_from(_SMALL),
    p=st.sampled_from(["0", "1/10", "1/2"]),
    packets=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_matches_reference_randrange_and_choice_walk(graph, p, packets, seed):
    g, table = _graph_and_table(*graph)
    want = reference_walk(g, table, float(Fraction(p)), packets, seed)
    assert simulate_walk_hops(g, float(Fraction(p)), packets, seed) == want


@pytest.fixture
def rows_refused(monkeypatch):
    """K(2,3) with distance_row patched to raise: the input checks must come first."""

    def refuse(params, v):
        raise RuntimeError("distance rows built before the inputs were checked")

    monkeypatch.setattr(layerscope.graphs, "distance_row", refuse)
    return build_explicit(GraphParams(Family.KAUTZ, 2, 3))


def test_walk_at_deflection_one_diverges_before_building_rows(rows_refused):
    # at p = 1 a packet one hop from z is always deflected away: no walk ends
    with pytest.raises(ChainDiverges):
        simulate_walk_hops(rows_refused, 1.0, 10, seed=1)


def test_walk_refuses_over_the_apsp_cap_before_building_rows(rows_refused, monkeypatch):
    # a walk gets its graph from build_explicit, which reads the n^2 cap off
    # the parameters before any vertex is enumerated or any row is built
    def no_vertices(params):
        raise AssertionError("a vertex was enumerated before the APSP cap was checked")

    monkeypatch.setattr(layerscope.graphs, "_enumerate_vertices", no_vertices)
    with pytest.raises(TooLarge, match="K\\(5,6\\) needs n\\^2 = 351,562,500 bytes"):
        simulate_walk_hops(build_explicit(GraphParams(Family.KAUTZ, 5, 6)), 0.1, 10, seed=1)


@pytest.mark.parametrize("deflect_prob", [-0.1, 1.5, float("nan")])
def test_walk_rejects_deflection_outside_unit_interval(rows_refused, deflect_prob):
    with pytest.raises(ValueError, match="deflect_prob"):
        simulate_walk_hops(rows_refused, deflect_prob, 10, seed=1)


@pytest.mark.parametrize("packets", [0, 1])
def test_walk_rejects_fewer_than_two_packets(rows_refused, packets):
    # the sample std divides by packets - 1
    with pytest.raises(ValueError, match="packets >= 2"):
        simulate_walk_hops(rows_refused, 0.1, packets, seed=1)


@pytest.mark.parametrize("vertices", [(), ((0, 1, 0, 1, 0, 1),)])
def test_walk_rejects_fewer_than_two_vertices_before_any_draw(rows_refused, monkeypatch, vertices):
    # with no pair of distinct vertices to draw, the packet loop would redraw
    # forever; a draw raises here, so a missing guard fails instead of hanging
    def no_draw(self, k):
        raise AssertionError("a random draw was made on a graph without a pair")

    monkeypatch.setattr(random.Random, "getrandbits", no_draw)
    g = ExplicitDigraph(GraphParams(Family.KAUTZ, 5, 6), vertices, succ=((),) * len(vertices), index={})
    with pytest.raises(ValueError, match="at least 2 vertices"):
        simulate_walk_hops(g, 0.0, 10, seed=1)
