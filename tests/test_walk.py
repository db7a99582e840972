"""The seeded packet walk: pinned statistics, the hop-index check and its memory."""

import tracemalloc
from fractions import Fraction

import pytest

from layerscope.graphs import Family, GraphParams, build_explicit
from layerscope.oracle import DistanceTable, simulate_walk_hops

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


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda k: f"{Family[k[0]]}({k[1]},{k[2]})")
def test_walk_stats_pinned(graph):
    family, d, D = graph
    g = build_explicit(GraphParams(Family[family], d, D))
    table = DistanceTable(g)
    for (key, p, seed, packets), (mean, std) in PINNED.items():
        if key != graph:
            continue
        stats = simulate_walk_hops(g, float(Fraction(p)), packets, seed, table=table)
        assert (stats.packets, stats.mean, stats.std) == (packets, mean, std), (p, seed)


def test_walk_rejects_two_shortest_path_successors():
    g = build_explicit(GraphParams(Family.KAUTZ, 3, 3))
    table = DistanceTable(g)
    u = 0
    z = next(z for z in range(len(g.vertices)) if table.rows[u][z] == 3)
    want = table.rows[u][z] - 1
    # a second successor of u now also looks one hop closer to z than u is
    w = next(w for w in g.succ[u] if table.rows[w][z] != want)
    table.rows[w][z] = want
    with pytest.raises(AssertionError):
        simulate_walk_hops(g, 0.1, 10, seed=1, table=table)


def test_walk_memory_below_four_bytes_per_pair():
    g = build_explicit(GraphParams(Family.KAUTZ, 4, 4))
    n = len(g.vertices)
    assert n == 320
    table = DistanceTable(g)
    tracemalloc.start()
    try:
        simulate_walk_hops(g, 0.1, 20_000, 11, table=table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n, peak
