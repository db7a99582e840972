"""Vertex classes under alphabet permutation: patterns, counts, cardinalities."""

import itertools
from collections import Counter

import pytest

from layerscope.errors import TooLarge
from layerscope.graphs import Family, GraphParams, build_explicit, vertex_count_poly
from layerscope.polynomials import IntPolynomial
from layerscope.vertex_classes import (
    CLASS_CAP,
    VertexClass,
    canonical_pattern,
    class_cardinality_poly,
    class_count,
    classes_realizable,
    enumerate_classes,
)

B, K = Family.DEBRUIJN, Family.KAUTZ


def test_canonical_pattern_first_occurrence():
    assert canonical_pattern((2, 0, 2, 1)) == (0, 1, 0, 2)  # gamma alpha gamma beta
    assert canonical_pattern((0, 1, 0, 1)) == (0, 1, 0, 1)
    assert canonical_pattern((3, 3, 3)) == (0, 0, 0)


def test_pattern_invariant_under_permutation():
    g = build_explicit(GraphParams(K, 3, 4))
    perms = list(itertools.permutations(range(4)))
    for v in g.vertices:
        base = canonical_pattern(v)
        for sigma in perms:
            assert canonical_pattern(tuple(sigma[s] for s in v)) == base


def test_enumerate_classes_kautz_4():
    classes = enumerate_classes(K, 4)
    assert [c.pattern for c in classes] == [
        (0, 1, 0, 1),
        (0, 1, 0, 2),
        (0, 1, 2, 0),
        (0, 1, 2, 1),
        (0, 1, 2, 3),
    ]
    assert [str(c.cardinality) for c in classes] == [
        "d^2 + d",
        "d^3 - d",
        "d^3 - d",
        "d^3 - d",
        "d^4 - 2*d^3 - d^2 + 2*d",
    ]


def test_enumerate_classes_debruijn_2():
    assert [c.pattern for c in enumerate_classes(B, 2)] == [(0, 0), (0, 1)]


def _n_s_counts(family, D):
    """The number of classes with s distinct symbols, for each s."""
    return Counter(c.s for c in enumerate_classes(family, D))


def test_n_s_counts():
    assert _n_s_counts(K, 4) == {2: 1, 3: 3, 4: 1}
    assert _n_s_counts(B, 4) == {1: 1, 2: 7, 3: 6, 4: 1}
    assert _n_s_counts(B, 1) == {1: 1}
    # Kautz with D = 1 degenerates to single-symbol words
    assert _n_s_counts(K, 1) == {1: 1}


def test_class_count_independent_of_degree():
    # the class set depends on D alone; a concrete degree builds those its alphabet realizes
    assert len(classes_realizable(K, 4, 2)) == 4  # the 4-symbol class needs d >= 3
    assert len(classes_realizable(K, 4, 3)) == 5
    assert len(classes_realizable(B, 4, 2)) == 8  # s <= 2


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("D", range(1, 7))
def test_cardinality_polynomials_sum_to_vertex_count(family, D):
    total = IntPolynomial.zero()
    for c in enumerate_classes(family, D):
        total = total + c.cardinality
    assert total == vertex_count_poly(family, D)


@pytest.mark.parametrize(
    "family,d,D", [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 4)]
)
def test_cardinalities_match_explicit_grouping(family, d, D):
    g = build_explicit(GraphParams(family, d, D))
    observed = {}
    for v in g.vertices:
        key = canonical_pattern(v)
        observed[key] = observed.get(key, 0) + 1
    for c in enumerate_classes(family, D):
        assert c.cardinality.evaluate(d) == observed.get(c.pattern, 0)
    assert set(observed) <= {c.pattern for c in enumerate_classes(family, D)}


def test_class_export_shapes():
    # the pattern label names a class in verify's mismatch records
    classes = enumerate_classes(K, 4)
    first = classes[0]
    assert (first.label(), first.s, str(first.cardinality)) == ("0101", 2, "d^2 + d")
    assert len(classes) == 5
    wide = VertexClass(tuple(range(11)), B, class_cardinality_poly(B, 11))
    assert wide.label() == "0.1.2.3.4.5.6.7.8.9.10"


def test_cardinality_poly_shapes():
    assert str(class_cardinality_poly(B, 1)) == "d"
    assert str(class_cardinality_poly(B, 3)) == "d^3 - 3*d^2 + 2*d"
    assert str(class_cardinality_poly(K, 2)) == "d^2 + d"
    # too many symbols for the alphabet evaluates to zero
    assert class_cardinality_poly(B, 3).evaluate(2) == 0
    assert class_cardinality_poly(K, 4).evaluate(2) == 0


def test_enumerate_classes_shares_one_immutable_tuple():
    first = enumerate_classes(K, 4)
    assert isinstance(first, tuple)
    assert enumerate_classes(K, 4) is first
    with pytest.raises(AttributeError):
        first[0].pattern = (0, 1, 0, 2)


def test_classes_realizable_returns_a_list_the_caller_owns():
    got = classes_realizable(K, 4, 2)
    assert isinstance(got, list) and got is not classes_realizable(K, 4, 2)
    got.clear()
    assert len(classes_realizable(K, 4, 2)) == 4
    assert len(enumerate_classes(K, 4)) == 5


def test_cardinality_poly_memoized():
    for family, s, text in [(B, 1, "d"), (B, 3, "d^3 - 3*d^2 + 2*d"), (K, 2, "d^2 + d")]:
        first = class_cardinality_poly(family, s)
        assert class_cardinality_poly(family, s) is first
        assert str(first) == text
    for c in enumerate_classes(B, 5):
        assert c.cardinality is class_cardinality_poly(B, c.s)


def test_class_count_is_bell_and_guards_enumeration():
    for D in range(1, 9):
        assert class_count(B, D) == len(enumerate_classes(B, D))
        assert class_count(K, D) == len(enumerate_classes(K, D))
    # the largest Kautz case under the cap; acceptance criterion 4 builds the
    # same cached tuple
    assert class_count(K, 12) == class_count(B, 11) == 678570 <= CLASS_CAP
    assert len(enumerate_classes(K, 12)) == 678570
    for family, D in [(B, 12), (K, 13), (B, 14)]:
        with pytest.raises(TooLarge, match="vertex classes"):
            enumerate_classes(family, D)


def test_enumeration_refuses_by_a_lower_bound_before_counting(monkeypatch):
    # the exact count is an O(D^2) big-integer DP; 2^(D - 1) (De Bruijn) or 2^(D - 2) (Kautz)
    # patterns over few symbols already exceed the cap, so a long word is refused without it
    from layerscope import vertex_classes

    real_count = vertex_classes.class_count

    def small_only(family, D, alphabet=None):
        assert D <= 64, f"class_count run at D = {D}"
        return real_count(family, D, alphabet)

    monkeypatch.setattr(vertex_classes, "class_count", small_only)
    for family, low in [(B, 19999), (K, 19998)]:
        with pytest.raises(TooLarge, match=f"has at least 2\\^{low} vertex classes, above"):
            enumerate_classes(family, 20000)
    # the bound needs 2 symbols (De Bruijn) or 3 (Kautz): below that there is one pattern
    assert len(enumerate_classes(B, 64, 1)) == len(enumerate_classes(K, 64, 2)) == 1
    # the first De Bruijn D the bound refuses at d = 2: 2^20 > CLASS_CAP >= 2^19
    with pytest.raises(TooLarge, match="at least 2\\^20 vertex classes with at most 2 symbols"):
        classes_realizable(B, 21, 2)


@pytest.mark.parametrize("family", [B, K])
def test_bounded_enumeration_equals_the_filtered_unbounded_one(family):
    # the reference: every Bell-many class, filtered by symbol count
    for D in range(1, 10):
        every = enumerate_classes(family, D)
        for d in range(2, 6):
            alphabet = GraphParams(family, d, D).alphabet_size
            got = classes_realizable(family, D, d)
            assert got == [c for c in every if c.s <= alphabet], (D, d)
            assert class_count(family, D, alphabet) == len(got)
            if alphabet >= D:
                assert enumerate_classes(family, D, alphabet) is every


def test_bounded_enumeration_reaches_past_the_bell_cap():
    # Bell(12) = 4,213,597 classes, but only 2^11 patterns use at most two symbols
    assert len(classes_realizable(B, 12, 2)) == 2048 == class_count(B, 12, 2)
    with pytest.raises(TooLarge, match="4,213,597 vertex classes, above"):
        enumerate_classes(B, 12)
    # S(16, 1) + S(16, 2) + S(16, 3) classes fit an alphabet of 3
    with pytest.raises(TooLarge, match="7,174,454 vertex classes with at most 3 symbols"):
        classes_realizable(B, 16, 3)
