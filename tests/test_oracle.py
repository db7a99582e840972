"""The brute-force oracle itself, plus the formula-vs-oracle grid runner."""

from collections import Counter
from fractions import Fraction

import pytest

from layerscope.errors import TooLarge
from layerscope.graphs import Family, GraphParams, build_explicit
from layerscope.oracle import (
    APSP_CAP,
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


def _layer_counts(g, v):
    return DistanceTable(g).layer_counts(g.index_of(v))


def _intersection(g, v, w, i, j):
    return DistanceTable(g).arc_histogram(g.index_of(v), g.index_of(w))[(i, j)]


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


def test_apsp_cap_keeps_pair_codes_in_one_byte():
    # a code i*(D+1) + j fits a byte up to D = 15 (15*16 + 15 = 255); the
    # smallest graph at D = 15 is already over the cap, B(2,14) is exactly at it
    assert min(GraphParams(f, 2, 15).vertex_count for f in (B, K)) ** 2 > APSP_CAP
    assert GraphParams(B, 2, 14).vertex_count ** 2 == APSP_CAP
    with pytest.raises(TooLarge, match="n\\^2 = 351,562,500 bytes"):
        DistanceTable(build_explicit(GraphParams(K, 5, 6)))


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
    # sanity of the detector: corrupt one layer polynomial and expect mismatches
    from layerscope.layers import layer_star_poly as real_layer

    def broken(params, v, i):
        poly = real_layer(params, v, i)
        if i == 2 and poly.coefficient(0) == 0:
            from layerscope.layers import LayerPolynomial

            return LayerPolynomial.from_mask(i, 1)  # off-by-one a_0
        return poly

    monkeypatch.setattr("layerscope.layers.layer_star_poly", broken)
    summary = verify_grid(families=(B,), d_values=(2,), D_values=(3,))
    assert not summary.ok
    assert any(m.quantity == "layer_count" for m in summary.mismatches)


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
    import dataclasses

    if quantity == "distance":
        from layerscope.graphs import distance_row as real_row

        def broken_row(params, v):
            row = real_row(params, v)
            z_id = build_explicit(params).index_of(v[::-1])
            if row[z_id] == 2:
                row[z_id] = 3
            return row

        monkeypatch.setattr("layerscope.graphs.distance_row", broken_row)
    elif quantity in ("intersection_count", "unique_j0"):
        from layerscope.layers import intersection_report as real_report

        def broken_report(params, v, w, i):
            rep = real_report(params, v, w, i)
            if quantity == "intersection_count" and i == 2 and rep.back is not None and v[0] == w[-1]:
                return dataclasses.replace(rep, back=None)
            if quantity == "unique_j0" and i == 1 and rep.forward_j == 1 and v[-1] == w[-1]:
                return dataclasses.replace(rep, forward_j=2)
            return rep

        monkeypatch.setattr("layerscope.layers.intersection_report", broken_report)
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
    records = [
        " ".join([m.quantity, *(f"{k}={v}" for k, v in m.context.items()), m.formula_value, m.oracle_value])
        for m in summary.mismatches
    ]
    assert (summary.checks, records) == (
        797,
        [
            "class_cardinality family=B d=2 D=3 pattern=010 2 3",
            "class_cardinality family=B d=2 D=3 pattern=012 0 1",
            "class_cardinality family=K d=2 D=3 pattern=010 6 7",
            "class_cardinality family=K d=2 D=3 pattern=012 6 7",
        ],
    )


@pytest.mark.parametrize("quantity", ["distance", "intersection_count", "unique_j0", "p_t"])
def test_verify_reports_injected_faults_exactly(monkeypatch, quantity):
    _inject(monkeypatch, quantity)
    summary = GridSummary()
    verify_graph(GraphParams(B, 2, 3), summary)
    verify_graph(GraphParams(K, 2, 3), summary)
    records = [
        " ".join([m.quantity, *(f"{k}={v}" for k, v in m.context.items()), m.formula_value, m.oracle_value])
        for m in summary.mismatches
    ]
    expected_checks, expected_records = FAULT_RECORDS[quantity]
    assert (summary.checks, records) == (expected_checks, expected_records)
