"""Vertices, adjacency, closed-form distance, explicit construction, BFS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscope.errors import (
    KautzRepeat,
    LengthMismatch,
    SymbolOutOfRange,
    TooLarge,
    VertexNotInGraph,
)
from layerscope.graphs import (
    Family,
    GraphParams,
    bfs_distances,
    build_explicit,
    distance,
    distance_row,
    format_vertex,
    landing_row,
    split_symbols,
    successors,
    validate_vertex,
)

B, K = Family.DEBRUIJN, Family.KAUTZ


def test_params_invariants():
    p = GraphParams(K, 2, 4)
    assert p.alphabet_size == 3
    assert p.vertex_count == 24
    assert GraphParams(B, 2, 3).vertex_count == 8
    assert GraphParams(K, 3, 2).vertex_count == 12
    with pytest.raises(ValueError):
        GraphParams(B, 1, 3)
    with pytest.raises(ValueError):
        GraphParams(K, 2, 0)


def test_validate_vertex():
    k24 = GraphParams(K, 2, 4)
    assert validate_vertex(k24, [0, 1, 0, 1]) == (0, 1, 0, 1)
    with pytest.raises(KautzRepeat):
        validate_vertex(k24, [0, 0, 1, 0])
    assert validate_vertex(GraphParams(B, 2, 4), [0, 0, 1, 0]) == (0, 0, 1, 0)
    with pytest.raises(LengthMismatch):
        validate_vertex(k24, [0, 1, 0])
    with pytest.raises(SymbolOutOfRange):
        validate_vertex(k24, [0, 3, 0, 1])


def test_successors_shift_append():
    b23 = GraphParams(B, 2, 3)
    assert successors(b23, (0, 1, 0)) == [(1, 0, 0), (1, 0, 1)]
    k24 = GraphParams(K, 2, 4)
    assert successors(k24, (0, 1, 0, 1)) == [(1, 0, 1, 0), (1, 0, 1, 2)]


@pytest.mark.parametrize(
    "family,d,D",
    [(B, 2, 3), (B, 3, 2), (K, 2, 4), (K, 3, 3)],
)
def test_successors_regular_no_duplicates(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    for v in g.vertices:
        succ = successors(params, v)
        assert len(succ) == d
        assert len(set(succ)) == d
        if family is K:
            assert all(w[-1] != v[-1] for w in succ)


def test_distance_identity_and_example():
    b23 = GraphParams(B, 2, 3)
    assert distance(b23, (0, 0, 0), (0, 0, 0)) == 0
    assert distance(b23, (0, 0, 0), (0, 0, 1)) == 1


@pytest.mark.parametrize(
    "family,d,D",
    [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 3)],
)
def test_distance_matches_bfs_everywhere(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    for src, v in enumerate(g.vertices):
        dist = bfs_distances(g, src)
        for tgt, z in enumerate(g.vertices):
            assert distance(params, v, z) == dist[tgt]


# `verify` checks distance_row against BFS; these keep the per-pair `distance`
# (exported by the package, and timed by name in bench/spans.py) tied to it.
@pytest.mark.parametrize(
    "family,d,D",
    [(f, d, D) for f in (B, K) for d in (2, 3, 4) for D in range(1, 6)] + [(B, 300, 1), (K, 300, 1)],
)
def test_distance_row_matches_distance_on_every_pair(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    assert [_lex_id(params, z) for z in g.vertices] == list(range(len(g.vertices)))
    for v in g.vertices:
        assert distance_row(params, v) == bytearray(distance(params, v, z) for z in g.vertices)


def _lex_id(params, z):
    """The number of vertices before z in lexicographic order."""
    before = 0
    for pos, s in enumerate(z):
        smaller = s - (params.family is K and pos > 0 and z[pos - 1] < s)
        before += smaller * params.d ** (params.D - 1 - pos)
    return before


@st.composite
def _pairs(draw):
    family = draw(st.sampled_from([B, K]))
    d = draw(st.integers(2, 6))
    D = draw(st.integers(1, max(D for D in range(1, 13) if GraphParams(family, d, D).vertex_count <= 2**17)))
    size = GraphParams(family, d, D).alphabet_size

    def extend(word, length):
        while len(word) < length:
            word.append(draw(st.sampled_from([s for s in range(size) if family is B or not word or s != word[-1]])))
        return tuple(word)

    v = extend([], D)
    k = draw(st.integers(0, D))  # z starts with v[k:], so d(v, z) <= k
    return GraphParams(family, d, D), v, extend(list(v[k:]), D)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_pairs())
def test_distance_row_matches_distance_on_random_pairs(pair):
    params, v, z = pair
    assert distance_row(params, v)[_lex_id(params, z)] == distance(params, v, z)


# every (family, d, D) with at most 150 vertices and d <= 16: d = 2 (one link to
# deflect onto), D = 1, and Kautz, where a deflection also skips the last symbol
@pytest.mark.parametrize(
    "family,d,D",
    [(f, d, D) for f in (B, K) for d in range(2, 17) for D in range(1, 8) if GraphParams(f, d, D).vertex_count <= 150],
)
def test_landing_row_is_the_distance_after_each_deflection(family, d, D):
    params = GraphParams(family, d, D)
    g = build_explicit(params)
    for z in g.vertices:
        land = landing_row(params, z)
        assert len(land) == D * (d - 1)
        for v in g.vertices:
            r = distance(params, v, z)
            if not r:
                continue
            landings = [distance(params, w, z) for w in successors(params, v)]
            assert landings.count(r - 1) == 1  # the shortest-path successor, not deflected onto
            landings.remove(r - 1)
            assert land[(r - 1) * (d - 1) : r * (d - 1)] == bytes(landings)


def test_build_explicit_counts_and_order():
    g = build_explicit(GraphParams(B, 2, 3))
    assert len(g.vertices) == 8
    assert list(g.vertices) == sorted(g.vertices)
    g = build_explicit(GraphParams(K, 2, 4))
    assert len(g.vertices) == 24
    assert all(len(s) == 2 for s in g.succ)
    g = build_explicit(GraphParams(K, 3, 2))
    assert len(g.vertices) == 12


def test_build_explicit_cap(monkeypatch):
    # every caller goes on to n^2 distance bytes, so the cap is read off the
    # parameters before any vertex is enumerated; B(2,14) is exactly at it
    assert len(build_explicit(GraphParams(B, 2, 14)).vertices) == 2**14

    def no_vertices(params):
        raise AssertionError("a vertex was enumerated before the APSP cap was checked")

    monkeypatch.setattr("layerscope.graphs._enumerate_vertices", no_vertices)
    with pytest.raises(TooLarge, match="K\\(5,6\\) needs n\\^2 = 351,562,500 bytes, above the APSP cap of 268,435,456"):
        build_explicit(GraphParams(K, 5, 6))


def test_index_of_rejects_a_vertex_not_in_the_graph():
    g = build_explicit(GraphParams(B, 2, 4))
    assert g.index_of((0, 1, 1, 0)) == 6
    with pytest.raises(VertexNotInGraph):
        g.index_of((9, 9, 9, 9))


def test_vertex_serialization():
    k24 = GraphParams(K, 2, 4)
    assert format_vertex(k24, (0, 1, 0, 1)) == "0101"
    assert validate_vertex(k24, split_symbols("0101")) == (0, 1, 0, 1)
    big = GraphParams(B, 11, 3)
    assert format_vertex(big, (0, 1, 10)) == "0.1.10"
    assert validate_vertex(big, split_symbols("0.1.10")) == (0, 1, 10)


def test_family_serialization():
    assert str(B) == "B" and str(K) == "K"
    assert Family.parse("b") is B
    assert Family.parse("Kautz") is K
    with pytest.raises(ValueError):
        Family.parse("X")
