"""The brute-force oracle itself, plus the formula-vs-oracle grid runner."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscope.errors import TooLarge
from layerscope.graphs import APSP_CAP, ExplicitDigraph, Family, GraphParams, bfs_distances, build_explicit
from layerscope.oracle import (
    DistanceTable,
    GridSummary,
    oracle_class_counts,
    oracle_mean_distance,
    oracle_transition_table,
    simulate_walk_hops,
    verify_graph,
    verify_grid,
)

B, K = Family.DEBRUIJN, Family.KAUTZ
DEFAULT_GRID = [GraphParams(f, d, D) for f in (B, K) for d in (2, 3, 4) for D in (2, 3, 4, 5)]  # verify's default


def _layer_counts(g, v):
    return DistanceTable(g).layer_counts(g.vertices.index(v))


def _intersection(g, v, w, i, j):
    return DistanceTable(g).arc_histogram(g.vertices.index(v), g.vertices.index(w))[(i, j)]


def _p_in(table, i):
    n = len(table.rows)
    return Fraction(sum(table.layer_counts(v_id)[i] for v_id in range(n)), n * (n - 1))


def test_oracle_layer_counts_examples():
    g = build_explicit(GraphParams(B, 2, 7))
    counts = _layer_counts(g, (0, 1, 1, 0, 1, 0, 1))
    assert counts[0] == 1
    assert counts[6] == 2**6 - 2**4 - 2  # 46
    g = build_explicit(GraphParams(K, 2, 4))
    assert _layer_counts(g, (0, 1, 0, 1)) == [1, 2, 3, 6, 12]


def test_oracle_intersection_examples():
    g = build_explicit(GraphParams(B, 2, 4))
    assert _intersection(g, (0, 1, 0, 0), (1, 0, 0, 1), 4, 4) == 0
    g = build_explicit(GraphParams(K, 2, 4))
    # j < i - 1 is impossible by the triangle inequality
    assert _intersection(g, (0, 1, 0, 1), (1, 0, 1, 0), 3, 1) == 0
    assert _intersection(g, (0, 1, 0, 1), (1, 0, 1, 0), 1, 2) == 1  # d - 1 at d = 2


def test_oracle_p_in_examples():
    table = DistanceTable(build_explicit(GraphParams(K, 2, 4)))
    assert _p_in(table, 1) == Fraction(2, 23)
    assert sum(_p_in(table, i) for i in range(1, 5)) == 1
    table = DistanceTable(build_explicit(GraphParams(K, 3, 4)))
    # Table row 4 evaluated at d = 3
    assert _p_in(table, 4) == Fraction(3**5 - 3**3 - 3**2 + 1, 3**5 + 3**4 - 3)


def test_oracle_p_t_diameter_row():
    g = build_explicit(GraphParams(K, 2, 4))
    table = oracle_transition_table(g)
    assert table[(4, 4)] == 1
    for i in range(1, 5):
        assert sum(table[(i, j)] for j in range(i, 5)) == 1


def test_oracle_transition_table_rejects_two_shortest_path_successors():
    g = build_explicit(GraphParams(K, 3, 3))
    table = DistanceTable(g)
    u = 0
    z, w = next((z, w) for z in g.succ[u] for w in g.succ[u] if table.rows[w][z] == 3)
    # w now sits at distance 0 from z like z itself: two shortest-path
    # successors of u toward z. w was at the diameter, so no vertex had its
    # shortest path to z through w and every other row stays consistent.
    table.rows[w][z] = 0
    with pytest.raises(AssertionError):
        oracle_transition_table(g, table)


@pytest.mark.parametrize(
    "params,sources",
    [
        (GraphParams(B, 2, 6), None),
        (GraphParams(K, 3, 4), None),
        # 90,000 arcs would take 9 s; the first and last ids hold the leading
        # and trailing bytes of the packed codes, and the loops sit at v = w
        (GraphParams(B, 300, 1), (0, 1, 150, 299)),
    ],
)
def test_arc_histogram_counts_zipped_rows(params, sources):
    g = build_explicit(params)
    table = DistanceTable(g)
    for v_id in sources or range(len(g.vertices)):
        for w_id in g.succ[v_id]:
            assert table.arc_histogram(v_id, w_id) == Counter(zip(table.rows[v_id], table.rows[w_id]))


def _digraph(succ):
    """A hand-built digraph on len(succ) vertices; the table reads only the arcs."""
    return ExplicitDigraph(GraphParams(B, 2, 2), tuple((k,) for k in range(len(succ))), succ=succ)


def _bfs_rows(g):
    return [bfs_distances(g, s) for s in range(len(g.vertices))]


@pytest.mark.parametrize(
    "graph",
    [
        *DEFAULT_GRID,
        GraphParams(B, 300, 1),
        # test_walk's strongly connected stand-in: vertex 0 reaches 3 through both successors
        ((1, 2), (3, 0), (3, 0), (0, 1)),
        # a self-loop at 0, nothing reaches 3, and 0 is unreachable from 1 and 2: 255 bytes
        ((0, 1), (2,), (1,), (0,)),
    ],
    ids=str,
)
def test_distance_table_rows_equal_per_source_bfs(graph):
    g = build_explicit(graph) if isinstance(graph, GraphParams) else _digraph(graph)
    assert DistanceTable(g).rows == _bfs_rows(g)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 40).flatmap(lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n))
)
def test_distance_table_rows_equal_per_source_bfs_on_random_arcs(succ):
    g = _digraph(tuple(map(tuple, succ)))
    assert DistanceTable(g).rows == _bfs_rows(g)


def test_apsp_cap_keeps_pair_codes_in_one_byte():
    # a code i*(D+1) + j fits a byte up to D = 15 (15*16 + 15 = 255); the
    # smallest graph at D = 15 is already over the cap, B(2,14) is exactly at it
    assert min(GraphParams(f, 2, 15).vertex_count for f in (B, K)) ** 2 > APSP_CAP
    assert GraphParams(B, 2, 14).vertex_count ** 2 == APSP_CAP
    with pytest.raises(TooLarge, match="n\\^2 = 351,562,500 bytes"):
        DistanceTable(build_explicit(GraphParams(K, 5, 6)))


def test_verify_grid_refuses_an_over_cap_graph_before_building_any(monkeypatch):
    # B(2,3) comes first in the grid, but no graph is built while any is over the cap,
    # and the refusal is build_explicit's own
    def built(params, summary):
        raise AssertionError(f"{params} built")

    monkeypatch.setattr("layerscope.oracle.verify_graph", built)
    with pytest.raises(TooLarge) as refused:
        verify_grid((B,), (2,), (3, 15))
    with pytest.raises(TooLarge) as direct:
        build_explicit(GraphParams(B, 2, 15))
    assert str(refused.value) == str(direct.value)


def test_oracle_mean_distance_small():
    g = build_explicit(GraphParams(B, 2, 2))
    # B(2,2): distances computed by hand over the 12 ordered pairs
    assert oracle_mean_distance(g) == Fraction(
        sum(_layer_counts(g, v)[1] * 1 + _layer_counts(g, v)[2] * 2 for v in g.vertices),
        12,
    )


def test_oracle_class_counts_grouping():
    g = build_explicit(GraphParams(K, 2, 4))
    counts = oracle_class_counts(g)
    assert counts[(0, 1, 0, 1)] == 6
    assert sum(counts.values()) == 24


def test_verify_graph_smallest_cases():
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 2), summary)
    verify_graph(GraphParams(K, 2, 2), summary)
    assert summary.ok
    assert summary.checks > 100


def test_verify_grid_small_grid_clean():
    summary = verify_grid(d_values=(2, 3), D_values=(2, 3))
    assert summary.ok
    assert summary.checks > 1000


def test_verify_beyond_default_grid():
    # deeper words (richer sublayer chains) and a wider alphabet
    summary = verify_grid(d_values=(2,), D_values=(6, 7))
    assert summary.ok
    summary = verify_grid(d_values=(5,), D_values=(3,))
    assert summary.ok


def test_verify_grid_detects_injected_fault(monkeypatch):
    # sanity of the detector: corrupt one vertex's layer masks and expect mismatches
    from layerscope.layers import layer_masks as real_masks

    def broken(family, D, pi):
        masks = real_masks(family, D, pi)
        if not masks[2] & 1:
            masks[2] = 1  # off-by-one a_0 at i = 2
        return masks

    monkeypatch.setattr("layerscope.layers.layer_masks", broken)
    summary = verify_grid(families=(B,), d_values=(2,), D_values=(3,))
    assert not summary.ok
    assert any(m.quantity == "layer_count" for m in summary.mismatches)


def test_verify_graph_builds_one_report_list_per_arc_key(monkeypatch):
    # B(2,6) has 128 arcs but 64 distinct arc keys
    from layerscope.layers import intersection_report_eval as real_reports

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real_reports(*args, **kwargs)

    monkeypatch.setattr("layerscope.layers.intersection_report_eval", counting)
    params = GraphParams(B, 2, 6)
    summary = GridSummary()
    verify_graph(params, summary)
    assert summary.ok
    assert len(calls) == 64 < params.vertex_count * params.d


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=str)
def test_arcs_with_equal_keys_get_equal_reports(params):
    # verify_graph evaluates the reports once per key (pi_v, pi_w, same), the arguments of
    # intersection_report_eval that vary with the arc: every arc sharing a key must get the
    # reports that intersection_report derives from its own words
    from layerscope.layers import intersection_report, intersection_report_eval, layer_masks, suffix_periods

    g = build_explicit(params)
    keyed = {}
    for v_id, v in enumerate(g.vertices):
        pi_v = suffix_periods(v)
        masks = layer_masks(params.family, params.D, pi_v)
        for w_id in g.succ[v_id]:
            w = g.vertices[w_id]
            key = pi_v, suffix_periods(w), sum(1 << p for p, y in enumerate(v) if y == w[-1])
            if key not in keyed:
                keyed[key] = intersection_report_eval(params.family, params.D, *key[:2], masks, key[2], params.d == 2)
            assert keyed[key] == [intersection_report(params, v, w, i) for i in range(1, params.D + 1)], (v, w)
    assert len(keyed) < len(g.vertices) * params.d  # some arcs share a key, so the test compares them


def test_verify_graph_computes_suffix_periods_once_per_vertex(monkeypatch):
    # the layer-count check and every out-arc's reports share one vector per vertex,
    # rather than D + 1 for the layers and two per arc
    from layerscope.layers import suffix_periods as real_periods

    calls = Counter()

    def counting(v):
        calls[v] += 1
        return real_periods(v)

    monkeypatch.setattr("layerscope.layers.suffix_periods", counting)
    params = GraphParams(B, 2, 6)
    summary = GridSummary()
    verify_graph(params, summary)
    assert summary.ok
    assert len(calls) == params.vertex_count and set(calls.values()) == {1}


def test_verify_graph_builds_a_histogram_only_per_failing_arc(monkeypatch):
    # a clean graph passes every arc by counting its byte codes; under the raised-table fault below
    # (0110 -> 1111 of B(2,4) one too far) only the four arcs 0011 -> 0110, 0110 -> 1100, 0110 -> 1101
    # and 1011 -> 0110 read the raised byte, and each builds one histogram. A failing arc is explained
    # from its key's reports, so the reports are still evaluated once per arc key, as on the clean graph
    from layerscope.layers import intersection_report_eval as real_reports

    real_init, real_histogram = DistanceTable.__init__, DistanceTable.arc_histogram
    calls, reports = [], []

    def counting(self, v_id, *w_ids):
        calls.append((v_id, *w_ids))
        return real_histogram(self, v_id, *w_ids)

    def counting_reports(*args):
        reports.append(args)
        return real_reports(*args)

    def raised(self, g):
        real_init(self, g)
        if g.params == GraphParams(B, 2, 4):
            self.rows[6][15] += 1

    monkeypatch.setattr(DistanceTable, "arc_histogram", counting)
    monkeypatch.setattr("layerscope.layers.intersection_report_eval", counting_reports)
    verify_graph(GraphParams(B, 2, 4), GridSummary())
    clean_reports = len(reports)
    monkeypatch.setattr(DistanceTable, "__init__", raised)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 6), summary)
    assert summary.ok and calls == []
    reports.clear()
    verify_graph(GraphParams(B, 2, 4), summary)
    assert not summary.ok
    assert sorted(calls) == [(3, 6), (6, 12), (6, 13), (11, 6)]
    assert len(reports) == clean_reports


def _cells_variants(exact, sibling, D):
    """Cell dicts to decide an arc with: its own histogram cells at i >= 1, those of v's other out-arc,
    one count moved to another cell, one count too many, one cell left out, an extra zero cell and an
    out-of-range j0 key."""
    (i, j), count = next(iter(exact.items()))
    moved = dict(exact)
    moved[(i, j)] -= 1
    other = (i, (j + 1) % (D + 1))
    moved[other] = moved.get(other, 0) + 1
    zero = (D, 0) if (D, 0) not in exact else (1, D)
    return [
        exact,
        sibling,
        {k: c for k, c in moved.items() if c},
        {**exact, (i, j): count + 1},
        {k: c for k, c in exact.items() if k != (i, j)},
        {**exact, zero: 0},
        {**exact, ("j0", 1): 1},
    ]


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=str)
def test_byte_count_acceptance_equals_histogram_comparison(params):
    # verify_graph passes an arc without a histogram when its codes hold its cell codes; over every arc
    # that must decide exactly as comparing the cells with the histogram at i >= 1
    from layerscope.oracle import cell_codes, codes_hold

    g = build_explicit(params)
    table = DistanceTable(g)
    n, D = len(g.vertices), params.D
    decided = Counter()
    for v_id, succ_v in enumerate(g.succ):
        hists = [{k: c for k, c in table.arc_histogram(v_id, w_id).items() if k[0]} for w_id in succ_v]
        for k, w_id in enumerate(succ_v):
            codes = table.arc_codes(v_id, w_id)
            for cells in _cells_variants(hists[k], hists[k - 1], D):
                expected = cell_codes(cells, D, n)
                accepted = expected is not None and codes_hold(codes, v_id, D, expected)
                assert accepted == (cells == hists[k]), (v_id, w_id, cells)
                decided[accepted] += 1
    assert decided[True] >= n * params.d and decided[False] >= 5 * n * params.d


def test_byte_count_acceptance_needs_byte_v_at_distance_0():
    # with dist(v, v) raised to D + 1 every cell count still holds, but the histogram gains a cell at i = D + 1
    from layerscope.oracle import cell_codes, codes_hold

    params = GraphParams(B, 2, 3)
    table = DistanceTable(build_explicit(params))
    w_id = table.g.succ[1][0]
    expected = cell_codes({k: c for k, c in table.arc_histogram(1, w_id).items() if k[0]}, 3, 8)
    assert codes_hold(table.arc_codes(1, w_id), 1, 3, expected)
    table.rows[1][1] = 4
    assert (4, table.rows[w_id][1]) in table.arc_histogram(1, w_id)
    assert not codes_hold(table.arc_codes(1, w_id), 1, 3, expected)


def test_verify_graph_builds_only_the_realizable_classes(monkeypatch):
    # B(2,6) has Bell(6) = 203 classes, 32 of them with at most 2 symbols: under a class cap between the
    # two, verify_graph checks every class as before, counting the 171 that have no vertex at d = 2
    from layerscope import probabilities, vertex_classes

    def clear_caches():
        for f in [*vars(probabilities).values(), *vars(vertex_classes).values()]:
            getattr(f, "cache_clear", lambda: None)()

    params, unpatched, patched = GraphParams(B, 2, 6), GridSummary(), GridSummary()
    verify_graph(params, unpatched)
    clear_caches()
    monkeypatch.setattr("layerscope.vertex_classes.CLASS_CAP", vertex_classes.class_count(B, 6) - 1)
    try:
        verify_graph(params, patched)
    finally:
        clear_caches()
    assert vertex_classes.class_count(B, 6, 2) == 32 < vertex_classes.CLASS_CAP
    assert (patched.checks, patched.mismatches) == (unpatched.checks, unpatched.mismatches) == (9000, [])


def test_report_json_shape():
    summary = verify_grid(families=(K,), d_values=(2,), D_values=(2,))
    assert summary.ok
    # shape of a mismatch report
    from layerscope.oracle import OracleReport

    rep = OracleReport("p_t", {"family": "K"}, "1/2", "1/3", False)
    data = rep.to_json()
    assert data["quantity"] == "p_t" and data["match"] is False


def test_simulate_walk_deterministic_and_sane():
    g = build_explicit(GraphParams(K, 3, 3))
    a = simulate_walk_hops(g, 0.0, 2000, seed=42)
    b = simulate_walk_hops(g, 0.0, 2000, seed=42)
    assert a == b
    # with no deflections the walk follows shortest paths exactly
    assert a.std > 0
    exact = oracle_mean_distance(g)
    assert abs(a.mean - float(exact)) <= 4 * a.stderr


# One injected fault per checked quantity; each must surface as exactly these
# mismatch records (recorded before the oracle read its counts off the
# distance table) on B(2,3) and K(2,3).
def _inject(monkeypatch, quantity):
    if quantity == "distance":
        from layerscope.graphs import distance_row as real_row

        def broken_row(params, v):
            row = real_row(params, v)
            z_id = build_explicit(params).vertices.index(v[::-1])
            if row[z_id] == 2:
                row[z_id] = 3
            return row

        monkeypatch.setattr("layerscope.graphs.distance_row", broken_row)
    elif quantity in ("intersection_count", "unique_j0"):
        from layerscope.layers import intersection_report_eval as real_reports

        def broken(rep, D, same):  # same & 1: v[0] = w[-1]; bit D - 1: v[-1] = w[-1]
            if quantity == "intersection_count" and rep.i == 2 and rep.back is not None and same & 1:
                return rep._replace(back=None)
            if quantity == "unique_j0" and rep.i == 1 and rep.forward_j == 1 and same >> (D - 1) & 1:
                return rep._replace(forward_j=2)
            return rep

        def broken_reports(family, D, pi_v, pi_w, masks, same, d2_rules):
            return [broken(rep, D, same) for rep in real_reports(family, D, pi_v, pi_w, masks, same, d2_rules)]

        monkeypatch.setattr("layerscope.layers.intersection_report_eval", broken_reports)
    else:
        from layerscope.probabilities import p_t_value as real_p_t

        def broken_p_t(family, d, D, i, j):
            return real_p_t(family, d, D, i, j) + (Fraction(1, 97) if (i, j) == (1, 2) else 0)

        monkeypatch.setattr("layerscope.probabilities.p_t_value", broken_p_t)


FAULT_RECORDS = {
    "distance": (
        797,
        [
            "distance family=B d=2 D=3 v=001 z=100 3 2",
            "distance family=B d=2 D=3 v=110 z=011 3 2",
            "distance family=K d=2 D=3 v=012 z=210 3 2",
            "distance family=K d=2 D=3 v=021 z=120 3 2",
            "distance family=K d=2 D=3 v=102 z=201 3 2",
            "distance family=K d=2 D=3 v=120 z=021 3 2",
            "distance family=K d=2 D=3 v=201 z=102 3 2",
            "distance family=K d=2 D=3 v=210 z=012 3 2",
        ],
    ),
    "intersection_count": (
        797,
        [
            "intersection_count family=B d=2 D=3 v=001 w=010 i=2 j=1 0 2",
            "intersection_count family=B d=2 D=3 v=010 w=100 i=2 j=1 0 2",
            "intersection_count family=B d=2 D=3 v=011 w=110 i=2 j=1 0 2",
            "intersection_count family=B d=2 D=3 v=100 w=001 i=2 j=1 0 2",
            "intersection_count family=B d=2 D=3 v=101 w=011 i=2 j=1 0 2",
            "intersection_count family=B d=2 D=3 v=110 w=101 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=012 w=120 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=021 w=210 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=102 w=021 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=120 w=201 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=201 w=012 i=2 j=1 0 2",
            "intersection_count family=K d=2 D=3 v=210 w=102 i=2 j=1 0 2",
        ],
    ),
    "p_t": (
        797,
        [
            "p_t family=B d=2 D=3 i=1 j=2 101/388 1/4",
            "p_t family=K d=2 D=3 i=1 j=2 99/194 1/2",
        ],
    ),
    "unique_j0": (
        797,
        [
            "unique_j0 family=B d=2 D=3 v=000 w=000 i=1 2 [1]",
            "intersection_count family=B d=2 D=3 v=000 w=000 i=1 j=1 0 1",
            "intersection_count family=B d=2 D=3 v=000 w=000 i=1 j=2 1 0",
            "unique_j0 family=B d=2 D=3 v=011 w=111 i=1 2 [1]",
            "intersection_count family=B d=2 D=3 v=011 w=111 i=1 j=1 0 1",
            "intersection_count family=B d=2 D=3 v=011 w=111 i=1 j=2 1 0",
            "unique_j0 family=B d=2 D=3 v=100 w=000 i=1 2 [1]",
            "intersection_count family=B d=2 D=3 v=100 w=000 i=1 j=1 0 1",
            "intersection_count family=B d=2 D=3 v=100 w=000 i=1 j=2 1 0",
            "unique_j0 family=B d=2 D=3 v=111 w=111 i=1 2 [1]",
            "intersection_count family=B d=2 D=3 v=111 w=111 i=1 j=1 0 1",
            "intersection_count family=B d=2 D=3 v=111 w=111 i=1 j=2 1 0",
        ],
    ),
}


def _records(summary):
    return [
        " ".join([m.quantity, *(f"{k}={v}" for k, v in m.context.items()), m.formula_value, m.oracle_value])
        for m in summary.mismatches
    ]


# Oracle-side fault: a broken enumerate_classes would also reach the cached
# class sums behind p_in and p_t, so the class counts are corrupted instead.
# Records taken before the class-cardinality check built labels only on a
# mismatch; the unrealizable B pattern 012 (0 at d = 2) must still be checked.
def test_verify_reports_injected_class_cardinality_fault_exactly(monkeypatch):
    real_counts = oracle_class_counts

    def broken_counts(g):
        counts = real_counts(g)
        for pattern in ((0, 1, 0), (0, 1, 2)):
            counts[pattern] = counts.get(pattern, 0) + 1
        return counts

    monkeypatch.setattr("layerscope.oracle.oracle_class_counts", broken_counts)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 3), summary)
    verify_graph(GraphParams(K, 2, 3), summary)
    records = _records(summary)
    assert (summary.checks, records) == (
        797,
        [
            "class_cardinality family=B d=2 D=3 pattern=010 2 3",
            "class_cardinality family=B d=2 D=3 pattern=012 0 1",
            "class_cardinality family=K d=2 D=3 pattern=010 6 7",
            "class_cardinality family=K d=2 D=3 pattern=012 6 7",
        ],
    )


# The same fault on B(2,6) under a class cap between class_count(B, 6, 3) = 122 and Bell(6) = 203: the check
# builds the classes of at most 3 symbols, the most any size or vertex needs, and reports the 90 with three.
def test_a_class_size_fault_is_reported_under_a_class_cap_below_bell(monkeypatch):
    from layerscope import probabilities, vertex_classes
    from layerscope.polynomials import IntPolynomial

    real_poly = vertex_classes.class_cardinality_poly

    def broken_poly(family, s):
        return real_poly(family, s) + IntPolynomial.one() if s == 3 else real_poly(family, s)

    def clear_caches():
        for f in [*vars(probabilities).values(), *vars(vertex_classes).values()]:
            getattr(f, "cache_clear", lambda: None)()

    clear_caches()
    monkeypatch.setattr(vertex_classes, "class_cardinality_poly", broken_poly)
    monkeypatch.setattr(vertex_classes, "CLASS_CAP", 150)
    summary = GridSummary()
    try:
        verify_graph(GraphParams(B, 2, 6), summary)
    finally:
        clear_caches()
    assert vertex_classes.class_count(B, 6, 3) == 122 < 150 < vertex_classes.class_count(B, 6) == 203
    records = _records(summary)
    assert (summary.checks, len(records)) == (9000, 90)
    assert all(r.startswith("class_cardinality family=B d=2 D=6 pattern=") and r.endswith(" 1 0") for r in records)


# Formula-side fault on the class sizes: size polynomials one too large at s = 3 symbols, one more
# than B(2,3) draws at d = 2 and within K(2,4)'s alphabet of 3. Records taken while verify_graph built
# every Bell(D) class; the classes are rebuilt so that they carry the broken sizes.
def test_verify_reports_a_class_size_fault_beyond_the_alphabet_exactly(monkeypatch):
    from layerscope import vertex_classes
    from layerscope.polynomials import IntPolynomial

    real_poly = vertex_classes.class_cardinality_poly

    def broken_poly(family, s):
        return real_poly(family, s) + IntPolynomial.one() if s == 3 else real_poly(family, s)

    vertex_classes._build_classes.cache_clear()
    monkeypatch.setattr(vertex_classes, "class_cardinality_poly", broken_poly)
    summary = GridSummary()
    try:
        verify_graph(GraphParams(B, 2, 3), summary)
        verify_graph(GraphParams(K, 2, 4), summary)
    finally:
        vertex_classes._build_classes.cache_clear()
    assert (summary.checks, _records(summary)) == (
        1885,
        [
            "class_cardinality family=B d=2 D=3 pattern=012 1 0",
            "class_cardinality family=K d=2 D=4 pattern=0102 7 6",
            "class_cardinality family=K d=2 D=4 pattern=0120 7 6",
            "class_cardinality family=K d=2 D=4 pattern=0121 7 6",
        ],
    )


# Oracle-side fault on the BFS rows: 0110 -> 1111 is a diameter pair of B(2,4), so
# raising it to D + 1 leaves every vertex one shortest-path successor per
# destination, and the (D + 1)-cells it adds to two arc histograms lie outside
# the checked cells i, j <= D. Records taken while the oracle still ran one BFS
# per source and compared every arc cell by cell.
def test_verify_reports_a_raised_distance_table_byte_exactly(monkeypatch):
    real_init = DistanceTable.__init__

    def raised(self, g):
        real_init(self, g)
        assert self.rows[6][15] == 4
        self.rows[6][15] += 1

    monkeypatch.setattr(DistanceTable, "__init__", raised)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 4), summary)
    assert (summary.checks, _records(summary)) == (
        943,
        [
            "distance family=B d=2 D=4 v=0110 z=1111 4 5",
            "layer_count family=B d=2 D=4 v=0110 i=4 2 1",
            "intersection_count family=B d=2 D=4 v=0011 w=0110 i=2 j=4 2 1",
            "intersection_count family=B d=2 D=4 v=0110 w=1100 i=4 j=4 2 1",
            "intersection_count family=B d=2 D=4 v=0110 w=1101 i=4 j=3 2 1",
            "intersection_count family=B d=2 D=4 v=1011 w=0110 i=2 j=4 2 1",
            "p_in family=B d=2 D=4 i=4 37/120 73/240",
            "mean_distance family=B d=2 D=4 17/6 169/60",
            "p_t family=B d=2 D=4 i=2 j=4 17/48 31/96",
        ],
    )


# Formula faults that the one-comparison pass of an arc must still explain
# exactly: a j0 whose forward count is 0 where the histogram has no forward cell
# (the j0 check fails, every cell agrees), and a j0 of i - 1, the back cell's j.
# Records taken while every arc was compared cell by cell.
FORWARD_FAULT_RECORDS = {
    "zero_forward": [
        f"unique_j0 family=B d=2 D=3 v={v} w={w} i={i} {i} []"
        for v, w, i in (
            ("000", "001", 1), ("000", "001", 2), ("000", "001", 3), ("001", "010", 3),
            ("010", "101", 3), ("011", "110", 2), ("011", "110", 3), ("100", "001", 2),
            ("100", "001", 3), ("101", "010", 3), ("110", "101", 3), ("111", "110", 1),
            ("111", "110", 2), ("111", "110", 3),
        )
    ],
    "j0_below_i": [
        line
        for v, w, count in (("001", "011", 2), ("010", "100", 1), ("101", "011", 1), ("110", "100", 2))
        for line in (
            f"unique_j0 family=B d=2 D=3 v={v} w={w} i=2 1 [2]",
            f"intersection_count family=B d=2 D=3 v={v} w={w} i=2 j=2 0 {count}",
        )
    ],
}


@pytest.mark.parametrize("fault", sorted(FORWARD_FAULT_RECORDS))
def test_verify_reports_forward_faults_exactly(monkeypatch, fault):
    from layerscope.layers import LayerPolynomial
    from layerscope.layers import intersection_report_eval as real_reports

    zero = LayerPolynomial.from_mask(1, 0, 2)  # d - 2: 0 at d = 2

    def broken(rep):
        if fault == "zero_forward" and rep.forward_j is None:
            return rep._replace(forward_j=rep.i, forward=zero)
        if fault == "j0_below_i" and rep.i == 2 and rep.forward_j == 2 and rep.back is not None:
            return rep._replace(forward_j=1)
        return rep

    def broken_reports(family, D, pi_v, pi_w, masks, same, d2_rules):
        return [broken(rep) for rep in real_reports(family, D, pi_v, pi_w, masks, same, d2_rules)]

    monkeypatch.setattr("layerscope.layers.intersection_report_eval", broken_reports)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 3), summary)
    verify_graph(GraphParams(K, 2, 3), summary)
    assert (summary.checks, _records(summary)) == (797, FORWARD_FAULT_RECORDS[fault])


@pytest.mark.parametrize("quantity", ["distance", "intersection_count", "unique_j0", "p_t"])
def test_verify_reports_injected_faults_exactly(monkeypatch, quantity):
    _inject(monkeypatch, quantity)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 3), summary)
    verify_graph(GraphParams(K, 2, 3), summary)
    records = _records(summary)
    expected_checks, expected_records = FAULT_RECORDS[quantity]
    assert (summary.checks, records) == (expected_checks, expected_records)
