"""Layer polynomials, sublayer predicates, Gamma sets, intersection reports."""

import itertools
import random

import pytest

from layerscope.errors import IndexOutOfRange, NotASuccessor
from layerscope.graphs import Family, GraphParams, build_explicit, successors
from layerscope.layers import (
    IntersectionCase,
    LayerPolynomial,
    gamma_plus,
    gamma_star,
    intersection_nonempty,
    intersection_poly_at,
    intersection_report,
    layer_star_poly,
    sublayer_nonempty,
    unique_j0,
    walk_set_contains,
)
from layerscope.oracle import DistanceTable

B, K = Family.DEBRUIJN, Family.KAUTZ

B27 = GraphParams(B, 2, 7)
V_B7 = (0, 1, 1, 0, 1, 0, 1)  # alpha beta beta alpha beta alpha beta
K3_10 = GraphParams(K, 3, 10)
V_K10 = (0, 1, 2, 0, 1, 2, 0, 1, 0, 1)  # alpha beta gamma ... alpha beta


def test_s_contains_worked_example_debruijn():
    # S_k(v) inside S_6(v) exactly for k in {1, 2, 4}
    inside = [k for k in range(6) if walk_set_contains(B, 7, V_B7, k, V_B7, 6)]
    assert inside == [1, 2, 4]
    assert walk_set_contains(B, 7, V_B7, 1, V_B7, 6) is True
    assert walk_set_contains(B, 7, V_B7, 0, V_B7, 6) is False
    # k = i below the diameter is trivially true
    assert walk_set_contains(B, 7, V_B7, 3, V_B7, 3) is True


def test_s_contains_worked_example_kautz():
    inside = [k for k in range(8) if walk_set_contains(K, 10, V_K10, k, V_K10, 8)]
    assert inside == [0, 3, 6]


def test_s_contains_range_errors():
    with pytest.raises(IndexOutOfRange):
        walk_set_contains(B, 7, V_B7, 4, V_B7, 2)
    with pytest.raises(IndexOutOfRange):
        walk_set_contains(B, 7, V_B7, 0, V_B7, 8)


def test_sublayer_worked_examples():
    # S_{2,6}(v) is empty because S_2(v) sits inside S_4(v)
    assert [k for k in range(7) if sublayer_nonempty(B, 7, V_B7, k, 6)] == [1, 4, 6]
    assert [k for k in range(9) if sublayer_nonempty(K, 10, V_K10, k, 8)] == [0, 3, 6, 8]


def test_sublayer_kautz_adjacent_always_empty():
    g = build_explicit(GraphParams(K, 2, 4))
    for v in g.vertices:
        for i in range(1, 5):
            assert not sublayer_nonempty(K, 4, v, i - 1, i)


def test_layer_star_poly_worked_examples():
    assert str(layer_star_poly(B27, V_B7, 6)) == "d^6 - d^4 - d"
    assert str(layer_star_poly(K3_10, V_K10, 8)) == "d^8 - d^6 - d^3 - 1"
    k34 = GraphParams(K, 3, 4)
    assert str(layer_star_poly(k34, (0, 1, 2, 0), 4)) == "d^4 - d^2 - d"
    assert str(layer_star_poly(k34, (0, 1, 2, 0), 0)) == "1"


# Table of |S_i*(v)| for the five K(d,4) vertex classes
K4_TABLE = {
    (0, 1, 0, 1): ["d", "d^2 - 1", "d^3 - d", "d^4 - d^2"],
    (0, 1, 0, 2): ["d", "d^2", "d^3", "d^4 - d^2 - d - 1"],
    (0, 1, 2, 0): ["d", "d^2", "d^3 - 1", "d^4 - d^2 - d"],
    (0, 1, 2, 1): ["d", "d^2", "d^3 - d", "d^4 - d^2 - 1"],
    (0, 1, 2, 3): ["d", "d^2", "d^3", "d^4 - d^2 - d - 1"],
}


@pytest.mark.parametrize("pattern,expected", sorted(K4_TABLE.items()))
def test_layer_star_poly_k4_table(pattern, expected):
    params = GraphParams(K, 4, 4)
    got = [str(layer_star_poly(params, pattern, i)) for i in range(1, 5)]
    assert got == expected


@pytest.mark.parametrize(
    "family,d,D", [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 3)]
)
def test_layer_poly_matches_bfs_counts(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    table = DistanceTable(g)
    for v_id, v in enumerate(g.vertices):
        counts = table.layer_counts(v_id)
        for i in range(D + 1):
            assert layer_star_poly(params, v, i).evaluate(d) == counts[i]


def test_layer_poly_total_is_vertex_count():
    for family, d, D in [(B, 2, 5), (B, 4, 3), (K, 2, 5), (K, 3, 4)]:
        params = GraphParams(family, d, D)
        g = build_explicit(params)
        for v in g.vertices:
            total = sum(layer_star_poly(params, v, i).evaluate(d) for i in range(D + 1))
            assert total == params.vertex_count


def test_layer_polynomial_value_object():
    poly = LayerPolynomial.build(4, {2: 1, 0: 1})
    assert str(poly) == "d^4 - d^2 - 1"
    assert poly.evaluate(2) == 16 - 4 - 1
    assert poly.coefficient(2) == 1 and poly.coefficient(3) == 0
    with pytest.raises(ValueError):
        LayerPolynomial.build(3, {3: 1})
    with pytest.raises(ValueError):
        LayerPolynomial.build(3, {1: 3})
    with pytest.raises(ValueError):
        LayerPolynomial.build(3, {0: 2})  # a 2 is legal only at the leading sub-position
    assert LayerPolynomial.build(3, {2: 2}).evaluate(2) == 0


def test_gamma_plus_unique_vertex_cases():
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    w = (1, 2, 0) * 4
    assert gamma_plus(k3_12, v, 4, 6) == [w]
    k24 = GraphParams(K, 2, 4)
    assert gamma_plus(k24, (0, 1, 0, 1), 1, 2) == [(1, 0, 1, 0)]


def test_gamma_plus_at_diameter():
    b24 = GraphParams(B, 2, 4)
    v = (0, 1, 0, 0)
    assert gamma_plus(b24, v, 2, 4) == successors(b24, v)
    k34 = GraphParams(K, 3, 4)
    v = (0, 1, 2, 0)
    # v_{i+1} != v_D keeps d - 1 successors (w_D != v_{i+1})
    got = gamma_plus(k34, v, 1, 4)
    assert len(got) == 2
    assert all(w[-1] != v[1] for w in got)
    # v_{i+1} = v_D keeps all d successors
    assert len(gamma_plus(k34, v, 3, 4)) == 3


def test_gamma_plus_empty_when_prefixes_mismatch():
    k24 = GraphParams(K, 2, 4)
    assert gamma_plus(k24, (0, 1, 0, 2), 1, 2) == []


def test_gamma_star_filters_nonempty_star_intersections():
    # Gamma+ nonempty but the star intersection is empty: K(d,12), i=1, j=6
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    assert gamma_plus(k3_12, v, 1, 6) == [(1, 2, 0) * 4]
    assert gamma_star(k3_12, v, 1, 6) == []


def test_intersection_nonempty_d2_counterexamples():
    # B(2,4): S_4*(v) and S_4*(w) miss each other when v_D != w_D
    b24 = GraphParams(B, 2, 4)
    v, w = (0, 1, 0, 0), (1, 0, 0, 1)
    assert intersection_nonempty(b24, v, w, 4, 4) is False
    # same sequences at d >= 3 do intersect
    b34 = GraphParams(B, 3, 4)
    assert intersection_nonempty(b34, v, w, 4, 4) is True

    # B(2,10): constant tail, forward intersections all empty
    b210 = GraphParams(B, 2, 10)
    v10 = (0, 1) + (0,) * 8
    w10 = (1,) + (0,) * 8 + (1,)
    for j in range(3, 11):
        assert intersection_nonempty(b210, v10, w10, 3, j) is False
    assert unique_j0(b210, v10, w10, 3) is None


def test_intersection_nonempty_validates_successor():
    b24 = GraphParams(B, 2, 4)
    with pytest.raises(NotASuccessor):
        intersection_nonempty(b24, (0, 1, 0, 0), (0, 1, 0, 1), 2, 2)


def test_unique_j0_worked_example():
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    w = (1, 2, 0) * 4
    assert unique_j0(k3_12, v, w, 4) == 6


def test_intersection_report_k12_split():
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    w = (1, 2, 0) * 4
    rep = intersection_report(k3_12, v, w, 4)
    assert rep.case is IntersectionCase.SPLIT
    assert rep.forward_j == 6
    assert str(rep.forward) == "d^4 - d^3"
    assert str(rep.back) == "d^3 - d"


def test_intersection_report_k24_split():
    k24 = GraphParams(K, 2, 4)
    v, w = (0, 1, 0, 1), (1, 0, 1, 0)
    rep = intersection_report(k24, v, w, 1)
    assert rep.case is IntersectionCase.SPLIT
    assert rep.forward_j == 2
    assert str(rep.forward) == "d - 1"
    assert str(rep.back) == "1"


def test_intersection_report_back_only():
    b210 = GraphParams(B, 2, 10)
    v10 = (0, 1) + (0,) * 8
    w10 = (1,) + (0,) * 8 + (1,)
    rep = intersection_report(b210, v10, w10, 3)
    assert rep.case is IntersectionCase.BACK_ONLY
    assert rep.forward is None and rep.forward_j is None
    assert str(rep.back) == "d^2"
    # the layer itself keeps the a_{i-1} = 1 coefficient
    assert layer_star_poly(b210, v10, 3).coefficient(2) == 1

    # desk-scale analogue verified against BFS: B(2,5), same structure
    b25 = GraphParams(B, 2, 5)
    v5, w5 = (0, 1, 0, 0, 0), (1, 0, 0, 0, 1)
    rep5 = intersection_report(b25, v5, w5, 3)
    assert rep5.case is IntersectionCase.BACK_ONLY
    g = build_explicit(b25)
    hist = DistanceTable(g).arc_histogram(g.index_of(v5), g.index_of(w5))
    assert hist[(3, 2)] == rep5.back.evaluate(2)
    for j in range(3, 6):
        assert hist[(3, j)] == 0


def test_split_additivity_back_plus_forward_is_layer():
    for family, d, D in [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 3)]:
        params = GraphParams(family, d, D)
        g = build_explicit(params)
        for v in g.vertices:
            for w in successors(params, v):
                for i in range(1, D + 1):
                    rep = intersection_report(params, v, w, i)
                    if rep.case is IntersectionCase.SPLIT:
                        total = rep.back.to_poly() + rep.forward.to_poly()
                        assert total == layer_star_poly(params, v, i).to_poly()


def test_coefficient_ranges_and_leading_rule():
    for family, d, D in [(B, 2, 4), (K, 3, 3), (B, 3, 3)]:
        params = GraphParams(family, d, D)
        g = build_explicit(params)
        for v in g.vertices:
            for i in range(1, D + 1):
                layer = layer_star_poly(params, v, i)
                assert all(c == 1 for _, c in layer.sub)
                if layer.coefficient(i - 1) == 1:
                    assert family is B and len(set(v[i - 1 :])) == 1
                for w in successors(params, v):
                    rep = intersection_report(params, v, w, i)
                    if rep.forward is not None:
                        assert rep.forward.coefficient(i - 1) in (1, 2)
                        assert all(c in (1, 2) for _, c in rep.forward.sub)
                    if rep.back is not None:
                        assert all(c == 1 for _, c in rep.back.sub)


@pytest.mark.parametrize("family,d,D", [(B, 2, 4), (K, 3, 3), (K, 2, 4)])
def test_reports_match_oracle_counts_exhaustively(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    table = DistanceTable(g)
    for v_id, v in enumerate(g.vertices):
        for w_id in g.succ[v_id]:
            w = g.vertices[w_id]
            hist = table.arc_histogram(v_id, w_id)
            for i in range(1, D + 1):
                rep = intersection_report(params, v, w, i)
                forward_js = [j for j in range(i, D + 1) if hist[(i, j)]]
                assert unique_j0(params, v, w, i) == (forward_js[0] if forward_js else None)
                assert len(forward_js) <= 1
                for j in range(i - 1, D + 1):
                    assert intersection_poly_at(rep, j).evaluate(d) == hist[(i, j)]


def test_permutation_invariance():
    rng = random.Random(2)
    params = GraphParams(K, 3, 4)
    g = build_explicit(params)
    perms = list(itertools.permutations(range(4)))
    for v in rng.sample(list(g.vertices), 20):
        sigma = rng.choice(perms)
        sv = tuple(sigma[s] for s in v)
        for i in range(params.D + 1):
            assert layer_star_poly(params, v, i) == layer_star_poly(params, sv, i)
        for w in successors(params, v):
            sw = tuple(sigma[s] for s in w)
            for i in range(1, params.D + 1):
                rep, srep = intersection_report(params, v, w, i), intersection_report(params, sv, sw, i)
                assert rep.case == srep.case
                assert rep.forward_j == srep.forward_j
                assert rep.back == srep.back and rep.forward == srep.forward
