"""Layer polynomials, sublayer bits, Gamma sets, intersection reports."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscope.errors import IndexOutOfRange, NotASuccessor
from layerscope.graphs import Family, GraphParams, Vertex, bfs_distances, build_explicit, successors
from layerscope.layers import (
    IntersectionCase,
    LayerPolynomial,
    intersection_nonempty,
    intersection_poly_at,
    intersection_report,
    intersection_report_eval,
    layer_masks,
    layer_poly_eval,
    layer_star_poly,
    suffix_periods,
    unique_j0,
)
from layerscope.oracle import DistanceTable
from layerscope.polynomials import IntPolynomial
from layerscope.vertex_classes import enumerate_classes

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


def _sublayers(family, D, v, i):
    """The k <= i with S_k(v) a maximal sublayer of S_i(v): the sub-coefficients
    of the layer polynomial at i, and k = i itself."""
    layer = layer_poly_eval(family, D, v, i)
    return [k for k in range(i) if layer.coefficient(k)] + [i]


def test_sublayer_worked_examples():
    # S_{2,6}(v) is empty because S_2(v) sits inside S_4(v)
    assert _sublayers(B, 7, V_B7, 6) == [1, 4, 6]
    assert _sublayers(K, 10, V_K10, 8) == [0, 3, 6, 8]
    assert [k for k in range(7) if ref_sublayer_nonempty(B, 7, V_B7, k, 6)] == [1, 4, 6]
    assert [k for k in range(9) if ref_sublayer_nonempty(K, 10, V_K10, k, 8)] == [0, 3, 6, 8]


def test_sublayer_kautz_adjacent_always_empty():
    g = build_explicit(GraphParams(K, 2, 4))
    for v in g.vertices:
        for i in range(1, 5):
            assert layer_poly_eval(K, 4, v, i).coefficient(i - 1) == 0


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
    poly = LayerPolynomial.from_mask(4, 0b0101)
    assert str(poly) == "d^4 - d^2 - 1"
    assert poly.evaluate(2) == 16 - 4 - 1
    assert poly.coefficient(2) == 1 and poly.coefficient(3) == 0
    assert LayerPolynomial.from_mask(3, 0b1101) == LayerPolynomial.from_mask(3, 0b101)  # bits >= top drop
    assert LayerPolynomial.from_mask(3, 0b100) == LayerPolynomial.from_mask(3, 0, 1)
    assert LayerPolynomial.from_mask(3, 0, 2).evaluate(2) == 0
    assert str(LayerPolynomial.from_mask(0, 0b1)) == "1"


def _gamma_plus(params, v, i, j):
    """Gamma+(v; i, j): the successors w of v with S_i(v) cap S_j(w) nonempty."""
    return [w for w in successors(params, v) if walk_sets_meet(params.family, params.D, v, i, w, j)]


def test_gamma_plus_unique_vertex_cases():
    # for j < D, Gamma+ is empty or the single vertex v_2 .. v_D v_{i+(D-j)}
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    w = (1, 2, 0) * 4
    assert _gamma_plus(k3_12, v, 4, 6) == [w]
    k24 = GraphParams(K, 2, 4)
    assert _gamma_plus(k24, (0, 1, 0, 1), 1, 2) == [(1, 0, 1, 0)]


def test_gamma_plus_at_diameter():
    b24 = GraphParams(B, 2, 4)
    v = (0, 1, 0, 0)
    assert _gamma_plus(b24, v, 2, 4) == successors(b24, v)
    k34 = GraphParams(K, 3, 4)
    v = (0, 1, 2, 0)
    # v_{i+1} != v_D keeps d - 1 successors (w_D != v_{i+1})
    got = _gamma_plus(k34, v, 1, 4)
    assert len(got) == 2
    assert all(w[-1] != v[1] for w in got)
    # v_{i+1} = v_D keeps all d successors
    assert len(_gamma_plus(k34, v, 3, 4)) == 3


def test_gamma_plus_empty_when_prefixes_mismatch():
    k24 = GraphParams(K, 2, 4)
    assert _gamma_plus(k24, (0, 1, 0, 2), 1, 2) == []


def test_gamma_star_filters_nonempty_star_intersections():
    # Gamma+ nonempty but the star intersection is empty: K(d,12), i=1, j=6
    k3_12 = GraphParams(K, 3, 12)
    v = (0, 1, 2) * 4
    assert _gamma_plus(k3_12, v, 1, 6) == [(1, 2, 0) * 4]
    assert intersection_nonempty(k3_12, v, (1, 2, 0) * 4, 1, 6) is False


def test_gamma_star_rejects_indices_outside_range():
    # Gamma*(v; i, j) needs 1 <= i <= j <= D; its membership test raises outside that range
    b23 = GraphParams(B, 2, 3)
    for i, j in [(0, 0), (0, 1), (2, 0), (1, 4)]:
        with pytest.raises(IndexOutOfRange):
            intersection_nonempty(b23, (0, 1, 0), (1, 0, 1), i, j)


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
    hist = DistanceTable(g).arc_histogram(g.vertices.index(v5), g.vertices.index(w5))
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
                assert all(layer.coefficient(k) in (0, 1) for k in range(i))
                if layer.coefficient(i - 1) == 1:
                    assert family is B and len(set(v[i - 1 :])) == 1
                for w in successors(params, v):
                    rep = intersection_report(params, v, w, i)
                    if rep.forward is not None:
                        assert rep.forward.coefficient(i - 1) in (1, 2)
                        assert all(rep.forward.coefficient(k) in (0, 1) for k in range(i - 1))
                    if rep.back is not None:
                        assert all(rep.back.coefficient(k) in (0, 1) for k in range(i - 1))


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


# ---------------------------------------------------------------------------
# reference implementation: the predicates found by nested searches over the
# walk-set containments, an independent check of the suffix-period rules
# ---------------------------------------------------------------------------


def _check_range(D: int, k: int, i: int) -> None:
    if not (0 <= k <= i <= D):
        raise IndexOutOfRange(f"need 0 <= k <= i <= D, got k={k}, i={i}, D={D}")


def walk_set_contains(family: Family, D: int, v: Vertex, k: int, v2: Vertex, i: int) -> bool:
    """S_k(v) subseteq S_i(v2) for 0 <= k <= i <= D."""
    _check_range(D, k, i)
    if i < D:
        return v[k : k + (D - i)] == v2[i:]
    if family is Family.DEBRUIJN:
        return True  # S_D(v2) is the whole vertex set
    if k < D:
        return v[k] != v2[D - 1]
    return v[D - 1] == v2[D - 1]


def walk_sets_meet(family: Family, D: int, v: Vertex, k: int, v2: Vertex, i: int) -> bool:
    """S_k(v) cap S_i(v2) != empty for 0 <= k <= i <= D.

    Below the diameter the two sets are nested or disjoint, so this coincides
    with containment; at i = D it only relaxes the k = D Kautz case.
    """
    _check_range(D, k, i)
    if i == D and family is Family.KAUTZ and k == D:
        return True  # alphabet has d + 1 >= 3 symbols
    return walk_set_contains(family, D, v, k, v2, i)


def _constant_tail(v: Vertex, i: int) -> bool:
    """v_i = v_{i+1} = ... = v_D (1-based i)."""
    return all(s == v[i - 1] for s in v[i:])


def back_intersection_empty(family: Family, v: Vertex, w: Vertex, i: int) -> bool:
    """S_i*(v) cap S_{i-1}*(w) = empty, which happens only for De Bruijn with
    v_i = ... = v_D = w_D. Independent of the degree regime."""
    return family is Family.DEBRUIJN and _constant_tail(v, i) and v[-1] == w[-1]


def _reports(family, D, v, w, d2_rules):
    """intersection_report_eval on one arc, with the periods, masks and same bits computed here."""
    pi_v, same = suffix_periods(v), sum(1 << p for p, y in enumerate(v) if y == w[-1])
    return intersection_report_eval(family, D, pi_v, suffix_periods(w), layer_masks(family, D, pi_v), same, d2_rules)


def ref_sublayer_nonempty(family, D, v, k, i):
    """Whether S_k(v) is a maximal sublayer of S_i(v): contained in S_i(v) but
    disjoint from every intermediate S_j(v), k < j < i. Always true for k = i."""
    _check_range(D, k, i)
    if k == i:
        return True
    if not walk_set_contains(family, D, v, k, v, i):
        return False
    for j in range(k + 1, i):
        # j < i <= D, so disjointness is the negation of containment
        if walk_set_contains(family, D, v, k, v, j):
            return False
    return True


def ref_intersection_nonempty_eval(family, D, v, w, i, j, d2_rules):
    """S_i*(v) cap S_j*(w) != empty for w adjacent from v and i - 1 <= j <= D.

    d2_rules selects the d = 2 criteria (extra De Bruijn emptiness cases);
    with d2_rules False the d >= 3 criteria apply.
    """
    if not 1 <= i <= D:
        raise IndexOutOfRange(f"need 1 <= i <= D, got i={i}")
    if not i - 1 <= j <= D:
        raise IndexOutOfRange(f"need i-1 <= j <= D, got j={j}")
    if j == i - 1:
        return not back_intersection_empty(family, v, w, i)
    if i == D:  # forces j = D
        if not d2_rules:
            return True
        return family is Family.KAUTZ or v[-1] == w[-1]
    if not walk_sets_meet(family, D, v, i, w, j):
        return False
    for k in range(i, j):
        # S_i(v) inside a maximal sublayer S_{k,j}(w) kills the intersection
        if ref_sublayer_nonempty(family, D, w, k, j) and walk_set_contains(family, D, v, i, w, k):
            return False
    if (
        d2_rules
        and j == D
        and _constant_tail(v, i)
        and ref_sublayer_nonempty(family, D, w, i - 1, D)
    ):
        return False
    return True


def ref_unique_j0_eval(family, D, v, w, i, d2_rules):
    """The unique j0 in [i, D] with S_i*(v) cap S_j0*(w) nonempty, or None."""
    found = None
    for j in range(i, D + 1):
        if ref_intersection_nonempty_eval(family, D, v, w, i, j, d2_rules):
            if found is not None:
                raise AssertionError(f"two forward intersections at j={found} and j={j}")
            found = j
    return found


def _archetypes(family, pattern):
    """One successor per way the appended symbol relates to the pattern: each
    used symbol (not the last for Kautz) and one fresh symbol."""
    fresh = max(pattern) + 1
    return [
        pattern[1:] + (x,)
        for x in range(fresh + 1)
        if not (family is K and x == pattern[-1])
    ]


@pytest.mark.parametrize("family", [B, K])
def test_period_rules_match_reference_loops_on_every_class(family):
    # the predicates only compare symbols, so class patterns and successor
    # archetypes cover every (v, w) up to relabeling
    for D in range(1, 8):
        for c in enumerate_classes(family, D):
            v = c.pattern
            for i in range(D + 1):
                ref = [ref_sublayer_nonempty(family, D, v, k, i) for k in range(i + 1)]
                layer = layer_poly_eval(family, D, v, i)
                assert [layer.coefficient(k) for k in range(i)] == [int(bit) for bit in ref[:i]]
            for w in _archetypes(family, v):
                for d2_rules in (False, True):
                    for i, report in enumerate(_reports(family, D, v, w, d2_rules), 1):
                        got = [report.back is not None] + [j == report.forward_j for j in range(i, D + 1)]
                        ref = [
                            ref_intersection_nonempty_eval(family, D, v, w, i, j, d2_rules)
                            for j in range(i - 1, D + 1)
                        ]
                        assert got == ref, (v, w, i, d2_rules)
                        forward = [j for j in range(i, D + 1) if ref[j - i + 1]]
                        assert len(forward) <= 1
                        assert report.forward_j == (forward[0] if forward else None)


def test_unique_j0_rejects_index_beyond_diameter():
    for i in (0, 4):
        with pytest.raises(IndexOutOfRange):
            intersection_report(GraphParams(B, 3, 3), (0, 1, 0), (1, 0, 0), i)
        with pytest.raises(IndexOutOfRange):
            unique_j0(GraphParams(B, 2, 3), (0, 1, 0), (1, 0, 0), i)


def test_suffix_periods_worked_example():
    # suffixes of 0110101: 0110101, 110101, 10101, 0101, 101, 01, 1
    assert suffix_periods(V_B7) == (5, 5, 2, 2, 2, 2, 1)


# properties on random words beyond the exhaustive range above
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(st.lists(st.integers(0, 2), min_size=1, max_size=16).map(tuple))
def test_suffix_periods_are_least_periods(v):
    for k, p in enumerate(suffix_periods(v)):
        assert p == next(q for q in range(1, len(v) + 1) if v[k + q :] == v[k : len(v) - q])


@st.composite
def _arcs(draw):
    family = draw(st.sampled_from([B, K]))
    D = draw(st.integers(8, 12))
    size = 2 if family is B else 3  # d = 2: the most repetitive words
    word = [draw(st.integers(0, size - 1))]
    while len(word) <= D:  # v is word[:D], its successor w is word[1:]
        word.append(draw(st.sampled_from([s for s in range(size) if family is B or s != word[-1]])))
    return family, D, tuple(word[:D]), tuple(word[1:]), draw(st.integers(1, D)), draw(st.booleans())


@_PROPERTY
@given(_arcs())
def test_period_rules_match_reference_loops_on_random_arcs(arc):
    family, D, v, w, i, d2_rules = arc
    for word in (v, w):
        assert [layer_poly_eval(family, D, word, i).coefficient(k) for k in range(i)] == [
            int(ref_sublayer_nonempty(family, D, word, k, i)) for k in range(i)
        ]
    report = _reports(family, D, v, w, d2_rules)[i - 1]
    assert report.forward_j == ref_unique_j0_eval(family, D, v, w, i, d2_rules)


@st.composite
def _masks(draw):
    top = draw(st.integers(0, 12))
    mask = draw(st.integers(0, 2**14 - 1))
    # lead 2 only beside a clear bit top - 1, as in a forward intersection
    lead = 0 if top == 0 else draw(st.integers(0, 1 if mask >> (top - 1) & 1 else 2))
    return top, mask, lead


@_PROPERTY
@given(_masks())
def test_from_mask_is_canonical(args):
    top, mask, lead = args
    coeffs = [0] * top + [1]
    for k in range(top):
        coeffs[k] -= mask >> k & 1
    if top:
        coeffs[top - 1] -= lead
    poly = LayerPolynomial.from_mask(top, mask, lead)
    assert poly.to_poly() == IntPolynomial(coeffs)
    assert [poly.evaluate(d) for d in (2, 3, 7)] == [IntPolynomial(coeffs).evaluate(d) for d in (2, 3, 7)]
    assert [poly.coefficient(k) for k in range(top)] == [-c for c in coeffs[:top]]
    if top:  # bit top - 1 set against lead = 1, and bits >= top dropped
        twin = LayerPolynomial.from_mask(top, mask | 1 << (top - 1))
        other = LayerPolynomial.from_mask(top, mask & ~(1 << (top - 1)), 1)
        assert twin == other and hash(twin) == hash(other)
        assert LayerPolynomial.from_mask(top, mask | 0b101 << top, lead) == poly


@_PROPERTY
@given(st.integers(0, 16), st.integers(0, 2**18 - 1), st.integers(0, 2), st.integers(2, 1000))
def test_layer_polynomial_evaluates_as_its_polynomial(top, mask, lead, d):
    poly = LayerPolynomial.from_mask(top, mask, lead)
    assert poly.evaluate(d) == poly.to_poly().evaluate(d)


@pytest.mark.parametrize(
    "params", [GraphParams(B, 2, 5), GraphParams(B, 3, 4), GraphParams(K, 2, 5), GraphParams(K, 3, 4)], ids=str
)
def test_intersection_report_is_its_entry_of_the_arc_list(params):
    # d = 2 graphs read the d = 2 criteria, d = 3 graphs the d >= 3 ones
    g = _graph(params)
    for v_id, succ_v in enumerate(g.succ):
        v = g.vertices[v_id]
        for w in (g.vertices[w_id] for w_id in succ_v):
            reports = _reports(params.family, params.D, v, w, params.d == 2)
            assert len(reports) == params.D
            for i in range(1, params.D + 1):
                assert intersection_report(params, v, w, i) == reports[i - 1], (v, w, i)


# intersection reports against BFS beyond the exhaustive range above
_BFS_GRAPHS = [GraphParams(B, 2, 12), GraphParams(K, 2, 11), GraphParams(K, 3, 7)]


@functools.lru_cache(maxsize=None)
def _graph(params):
    return build_explicit(params)


@_PROPERTY
@given(st.sampled_from(_BFS_GRAPHS), st.integers(0, 2**32), st.integers(0, 3))
def test_intersection_reports_match_bfs_on_random_arcs(params, v_draw, k):
    g = _graph(params)
    v_id = v_draw % len(g.vertices)
    w_id = g.succ[v_id][k % len(g.succ[v_id])]
    v, w = g.vertices[v_id], g.vertices[w_id]
    counts = Counter(zip(bfs_distances(g, v_id), bfs_distances(g, w_id)))
    for i in range(1, params.D + 1):
        report = intersection_report(params, v, w, i)
        for j in range(i - 1, params.D + 1):
            assert intersection_poly_at(report, j).evaluate(params.d) == counts[(i, j)], (v, w, i, j)
