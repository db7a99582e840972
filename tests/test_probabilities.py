"""Input and transition probabilities, mean distance, large degrees, distance chain.

The transition probability implemented here is the exact law of the deflection
process (destination uniform on the distance-i layer, deflected link uniform
over the d - 1 non-shortest-path out-links); it is validated against the
brute-force oracle in test_oracle.py and below. An alternative closed form
(with each per-class term scaled by an extra 1 - q factor) floats around for
these quantities and does not match the process; test_acceptance.py carries it
as a deliberately red fixture.
"""

import functools
import time
from collections import Counter
from fractions import Fraction

import pytest

from layerscope.errors import ChainDiverges, InvalidRange, TooLarge
from layerscope.graphs import Family, GraphParams, alphabet_size, build_explicit, distance_row, vertex_count_poly
from layerscope.oracle import DistanceTable, oracle_transition_table
from layerscope.layers import (
    LayerPolynomial,
    intersection_poly_at,
    intersection_report_eval,
    layer_masks,
    layer_poly_eval,
    suffix_periods,
)
from layerscope.polynomials import IntPolynomial, RationalFunction
from layerscope.probabilities import (
    build_chain,
    expected_hops,
    hitting_times,
    input_table,
    mean_distance,
    p_in,
    p_in_value,
    p_t,
    p_t_conditional,
    p_t_value,
    transition_table,
)
from layerscope import vertex_classes
from layerscope.probabilities import _class_terms, _pair_counts, _transition_sums
from layerscope.vertex_classes import canonical_pattern, class_cardinality_poly, classes_realizable, enumerate_classes

B, K = Family.DEBRUIJN, Family.KAUTZ


def _class(family, D, pattern):
    return next(c for c in enumerate_classes(family, D) if c.pattern == pattern)


def _bound(family, D, d):
    """The class bound the kernel runs under: D + 1 when symbolic (d is None), min(alphabet, D + 1) at d."""
    return D + 1 if d is None else min(alphabet_size(family, d), D + 1)


# ---------------------------------------------------------------------------
# input probabilities
# ---------------------------------------------------------------------------


class _ClosedFormTable(DistanceTable):
    """Rows from graphs.distance_row, which verify checks against BFS, in place of BFS."""

    def __init__(self, g):
        self.g = g
        self.rows = [distance_row(g.params, v) for v in g.vertices]


def test_concrete_sums_past_the_bell_cap_match_distance_rows():
    # B(d,12) has Bell(12) = 4,213,597 classes, over CLASS_CAP; 2,048 have at most 2 symbols
    g = build_explicit(GraphParams(B, 2, 12))
    table = _ClosedFormTable(g)
    n = len(g.vertices)
    for i in range(1, 13):
        pairs = sum(row.count(i) for row in table.rows)
        assert p_in_value(B, 2, 12, i) == Fraction(pairs, n * (n - 1)), i
    oracle = oracle_transition_table(g, table)
    assert {key: p_t_value(B, 2, 12, *key) for key in oracle} == oracle


def test_p_in_kautz_4_table():
    assert p_in(K, 4, 1).format() == "d / (d^4 + d^3 - 1)"
    assert p_in(K, 4, 2).format() == "(d^4 - 1) / (d^6 + d^5 - d^2)"
    assert p_in(K, 4, 3).format() == "(d^5 - d^2 - d + 1) / (d^6 + d^5 - d^2)"
    assert p_in(K, 4, 4).format() == "(d^5 - d^3 - d^2 + 1) / (d^5 + d^4 - d)"


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("D", range(1, 6))
def test_p_in_rows_sum_to_one_symbolically(family, D):
    acc = RationalFunction.zero()
    for i in range(1, D + 1):
        acc = acc + p_in(family, D, i)
    assert acc == RationalFunction.one()


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_p_in_value_matches_symbolic_and_class_by_class(family, d):
    # p_in and p_in_value sum class sizes per layer polynomial; the plain
    # definition adds one conditional probability per realizable class,
    # P_in(i | c) = |S_i*(c)| / (n - 1).
    for D in range(1, 7):
        classes = classes_realizable(family, D, d)
        total = vertex_count_poly(family, D).evaluate(d)
        for i in range(1, D + 1):
            acc = Fraction(0)
            for c in classes:
                layer = layer_poly_eval(family, D, c.pattern, i).evaluate(d)
                acc += c.cardinality.evaluate(d) * Fraction(layer, total - 1)
            value = p_in_value(family, d, D, i)
            assert value == acc / total == p_in(family, D, i).evaluate(d), (D, i)


@pytest.mark.parametrize("family,max_D", [(B, 8), (K, 9)])
def test_grouped_p_in_matches_per_class_layer_sums(family, max_D):
    # p_in and p_in_value count words by border array; the definition adds
    # |c| * |S_i*(c)| class by class through the per-word API.
    for D in range(1, max_D + 1):
        classes = enumerate_classes(family, D)
        n = vertex_count_poly(family, D)
        den = n * (n - IntPolynomial.one())
        for i in range(1, D + 1):
            num = IntPolynomial.zero()
            for c in classes:
                num = num + c.cardinality * layer_poly_eval(family, D, c.pattern, i).to_poly()
            assert p_in(family, D, i) == RationalFunction(num, den), (D, i)
            for d in (2, 3):
                value = p_in_value(family, d, D, i)
                assert value == Fraction(num.evaluate(d), den.evaluate(d)), (D, i, d)


def _grouped_class_sums(family, D):
    """sum_v |S_i*(v)| for i = 0 .. D over every vertex class, counted per (suffix-period vector, s),
    which fixes the layer masks at every i: one product per distinct layer polynomial. P_in summed
    this way before the border-array search, and is kept here as its reference."""
    counts = Counter((*suffix_periods(c.pattern), c.s) for c in enumerate_classes(family, D))
    sizes = {}
    for (*pi, s), count in counts.items():
        sizes[tuple(pi)] = sizes.get(tuple(pi), IntPolynomial.zero()) + count * class_cardinality_poly(family, s)
    sums = [{} for _ in range(D + 1)]
    for pi, size in sizes.items():
        for i, (a, by_layer) in enumerate(zip(layer_masks(family, D, pi), sums)):
            layer = LayerPolynomial.from_mask(i, a).to_poly()
            by_layer[layer] = by_layer.get(layer, IntPolynomial.zero()) + size
    return [sum((size * layer for layer, size in by_layer.items()), IntPolynomial.zero()) for by_layer in sums]


@pytest.mark.parametrize("family,max_D", [(B, 10), (K, 11)])
def test_border_array_counts_match_the_grouped_class_sum(family, max_D):
    for D in range(1, max_D + 1):
        reference = _grouped_class_sums(family, D)
        assert _pair_counts(family, D) == reference, D
        n = vertex_count_poly(family, D)
        den = n * (n - IntPolynomial.one())
        for i in range(1, D + 1):
            assert p_in(family, D, i) == RationalFunction(reference[i], den), (D, i)
            for d in (2, 3):
                assert p_in_value(family, d, D, i) == Fraction(reference[i].evaluate(d), den.evaluate(d)), (D, i, d)


def _clear_p_in_caches():
    for f in (_pair_counts, p_in, mean_distance):
        f.cache_clear()


def test_p_in_builds_no_vertex_class(monkeypatch):
    def refuse(*_):
        raise AssertionError("a P_in function built vertex classes")

    _clear_p_in_caches()
    monkeypatch.setattr(vertex_classes, "_build_classes", refuse)
    assert input_table(B, 9).check_normalized()
    assert sum(p_in_value(B, 2, 9, i) for i in range(1, 10)) == 1
    assert mean_distance(B, 9).evaluate(2) == sum(i * p_in_value(B, 2, 9, i) for i in range(1, 10))


def test_border_array_search_is_bounded_by_the_class_cap(monkeypatch):
    # B(d,6) has 83 nodes and B(d,7) 193: a cap of 100 lets the first search run and stops the second
    reference = _grouped_class_sums(B, 6)
    _clear_p_in_caches()
    monkeypatch.setattr(vertex_classes, "CLASS_CAP", 100)
    assert _pair_counts(B, 6) == reference
    with pytest.raises(TooLarge, match="needs more border-array nodes than the cap of 100"):
        p_in(B, 7, 1)
    with pytest.raises(TooLarge, match=r"needs at least 2\^7 border-array nodes, above the cap of 100"):
        p_in_value(K, 2, 8, 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"2\^99999 border-array nodes"):
        mean_distance(B, 100000)
    assert time.perf_counter() - start < 1


def test_input_table_normalized():
    table = input_table(K, 4)
    assert table.check_normalized()
    assert table.entries[1].format() == "d / (d^4 + d^3 - 1)"


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def test_p_t_zero_and_one_rows_kautz_4():
    for i in (1, 2, 3):
        assert p_t(K, 4, i, i).is_zero
    assert p_t(K, 4, 3, 4) == RationalFunction.one()
    assert p_t(K, 4, 4, 4) == RationalFunction.one()


def test_p_t_kautz_4_formulas():
    # frozen from the deflection process, verified against the oracle below
    assert p_t(K, 4, 1, 2).format() == "1 / d^2"
    assert p_t(K, 4, 1, 3).format() == "(d - 1) / d^2"
    assert p_t(K, 4, 1, 4).format() == "(d - 1) / d"
    assert p_t(K, 4, 2, 3).format() == "(d^4 - d^2 + 1) / (d^5 - d^3)"
    assert p_t(K, 4, 2, 4).format() == "(d^5 - d^4 - d^3 + d^2 - 1) / (d^5 - d^3)"


def test_p_t_conditional_examples():
    c = _class(K, 12, (0, 1, 2) * 4)
    assert p_t_conditional(K, 12, c, 4, 6).format() == "d^2 / (d^3 - 1)"
    # Gamma+ nonempty yet the star intersection vanishes
    assert p_t_conditional(K, 12, c, 1, 6).is_zero
    c = _class(K, 4, (0, 1, 0, 1))
    assert p_t_conditional(K, 4, c, 1, 2).format() == "1 / d"
    # a class with no vertices at d = 2 is still a class symbolically
    assert p_t_conditional(K, 4, _class(K, 4, (0, 1, 2, 3)), 1, 3).format() == "1 / d"


@pytest.mark.parametrize(
    "family, pattern, d, archetypes",
    [
        (K, (0, 1, 2) * 2, None, 3),  # the two symbols other than the last, one fresh
        (B, (0, 1, 0, 2, 1, 0), None, 4),  # every used symbol, one fresh
        (B, (0, 1, 1, 0, 1, 0), 2, 2),  # d = 2: no fresh symbol is left
    ],
)
def test_p_t_conditional_builds_one_report_per_successor_archetype(
    monkeypatch, family, pattern, d, archetypes
):
    import layerscope.probabilities as probabilities

    calls = []
    real = probabilities.forward_rule

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(probabilities, "forward_rule", counting)
    if d is None:
        p_t_conditional(family, len(pattern), _class(family, len(pattern), pattern), 2, 4)
    else:  # a concrete degree reaches the class terms through _transition_sums under its class bound
        list(probabilities._class_terms(family, len(pattern), pattern, _bound(family, len(pattern), d), (2,)))
    assert calls == [2] * archetypes  # the kernel fills row i = 2 only


def test_p_t_conditional_matches_per_class_oracle():
    # per-class law replayed on the explicit graph, grouped by pattern
    for family, d, D in [(K, 3, 4), (B, 2, 4), (K, 2, 4)]:
        params = GraphParams(family, d, D)
        g = build_explicit(params)
        from layerscope.oracle import DistanceTable

        table = DistanceTable(g)
        by_class = {}
        for v_id, v in enumerate(g.vertices):
            by_class.setdefault(canonical_pattern(v), []).append(v_id)
        for c in enumerate_classes(family, D):
            ids = by_class.get(c.pattern)
            if not ids:
                continue
            for i, j in [(1, 2), (2, 2), (2, 3), (1, D), (D, D)]:
                if not 1 <= i <= j <= D:
                    continue
                acc = Fraction(0)
                for v_id in ids:
                    row = table.rows[v_id]
                    layer = [z for z in range(len(row)) if row[z] == i]
                    hits = 0
                    for z in layer:
                        skipped = False
                        for w_id in g.succ[v_id]:
                            jj = table.rows[w_id][z]
                            if jj == i - 1 and not skipped:
                                skipped = True
                                continue
                            if jj == j:
                                hits += 1
                    acc += Fraction(hits, len(layer) * (d - 1))
                oracle_value = acc / len(ids)
                got = p_t_conditional(family, D, c, i, j).evaluate(d)
                assert got == oracle_value, (family, d, D, c.pattern, i, j)


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("D", range(1, 6))
def test_p_t_rows_sum_to_one_symbolically(family, D):
    one = RationalFunction.one()
    for i in range(1, D + 1):
        acc = RationalFunction.zero()
        for j in range(i, D + 1):
            acc = acc + p_t(family, D, i, j)
        assert acc == one


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("D", range(2, 6))
def test_p_t_diameter_column_equals_complement(family, D):
    # the direct j = D computation must agree with 1 - sum of the j < D row
    one = RationalFunction.one()
    for i in range(1, D):
        comp = one
        for j in range(i, D):
            comp = comp - p_t(family, D, i, j)
        assert p_t(family, D, i, D) == comp


@pytest.mark.parametrize("family,d,D", [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 3)])
def test_p_t_value_matches_oracle(family, d, D):
    g = build_explicit(GraphParams(family, d, D))
    oracle = oracle_transition_table(g)
    for i in range(1, D + 1):
        for j in range(i, D + 1):
            assert p_t_value(family, d, D, i, j) == oracle[(i, j)]


def test_p_t_d2_rederivation_consistent():
    # The d = 2 De Bruijn criteria reclassify some intersections (see the
    # back-only reports in test_layers), but the re-derived probabilities
    # coincide with evaluating the d >= 3 forms: the misclassified forward
    # polynomials vanish at d = 2. Both routes must agree with each other
    # (and, per test_p_t_value_matches_oracle, with the oracle).
    for D in (3, 4):
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                assert p_t_value(B, 2, D, i, j) == p_t(B, D, i, j).evaluate(2)


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_p_t_concrete_kernel_matches_symbolic(family, d):
    # A concrete degree sums the per-class kernel in fractions over the
    # realizable classes rather than evaluating the symbolic form, so the two
    # agree by computation, not by construction: check every cell.
    for D in range(1, 6):
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                assert p_t_value(family, d, D, i, j) == p_t(family, D, i, j).evaluate(d), (D, i, j)


def _reference_transition_sums(family, D, d):
    """_transition_sums the long way: one intersection_report_eval per (class,
    successor archetype), under the d >= 3 criteria at every d, each forward
    polynomial times |c| and the archetype's weight, summed per layer polynomial."""
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    sums = [{} for _ in range(D + 1)]
    for c in classes:
        v, s = c.pattern, c.s
        archetypes = [(v[1:] + (x,), IntPolynomial.one()) for x in range(s) if family is B or x != v[-1]]
        fresh = IntPolynomial((-s if family is B else 1 - s, 1))  # d - s or d + 1 - s fresh symbols
        if d is None or fresh.evaluate(d):
            archetypes.append((v[1:] + (s,), fresh))
        layers = [layer_poly_eval(family, D, v, i).to_poly() for i in range(D + 1)]
        pi_v = suffix_periods(v)
        masks = layer_masks(family, D, pi_v)
        for w, weight in archetypes:
            same = sum(1 << p for p, y in enumerate(v) if y == w[-1])
            reports = intersection_report_eval(family, D, pi_v, suffix_periods(w), masks, same, d2_rules=False)
            for i, report in enumerate(reports, 1):
                by_layer = sums[i].setdefault(report.forward_j, {})
                num = c.cardinality * weight * report.forward.to_poly()
                by_layer[layers[i]] = by_layer.get(layers[i], IntPolynomial.zero()) + num
    return sums


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [None, 2, 3])
def test_transition_sums_match_per_report_reference(family, d):
    # the kernel counts classes per (i, j0, layer mask, m, t, s) and makes one
    # product per key; the reference builds every report and polynomial. At d = 2
    # both use the d >= 3 criteria; test_p_t_value_matches_per_arc_report_fractions
    # checks the values against the d = 2 criteria, test_p_t_value_matches_oracle
    # against BFS.
    for D in range(1, 8):
        assert _transition_sums(family, D, _bound(family, D, d)) == _reference_transition_sums(family, D, d), D


def _polynomial_transition_sums(family, D, d):
    """_transition_sums in IntPolynomial arithmetic: the class terms counted per (i, j0, A_i, m, t,
    s_eff), one polynomial sum of class sizes and one product with the forward polynomial per
    (i, j0, A_i, m, t), summed per layer polynomial. The kernel summed this way before it packed
    its sums at 2^K, and is kept here as its reference."""
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    levels = range(1, D + 1)
    counts = Counter(term for c in classes for term in _class_terms(family, D, c.pattern, _bound(family, D, d), levels))
    sizes = {}
    for (*key, s), count in counts.items():
        key = tuple(key)
        sizes[key] = sizes.get(key, IntPolynomial.zero()) + count * class_cardinality_poly(family, s)
    sums = [{} for _ in range(D + 1)]
    for (i, j, a, m, t), size in sizes.items():
        layer = LayerPolynomial.from_mask(i, a).to_poly()
        num = size * LayerPolynomial.from_mask(i, m, t).to_poly()
        by_layer = sums[i].setdefault(j, {})
        by_layer[layer] = by_layer.get(layer, IntPolynomial.zero()) + num
    return sums


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [None, 2, 3, 4])
def test_packed_transition_sums_match_the_polynomial_sums(family, d):
    for D in range(1, 9):
        assert _transition_sums(family, D, _bound(family, D, d)) == _polynomial_transition_sums(family, D, d), D


def test_a_degree_whose_alphabet_holds_D_plus_1_symbols_reads_the_symbolic_kernel():
    # B(7,6)'s class bound min(7, D + 1) is the symbolic D + 1: the table and every value share one kernel run
    from layerscope import probabilities

    for f in (_transition_sums, probabilities._p_t_symbolic, p_t_value):
        f.cache_clear()
    table = transition_table(B, 6)
    for (i, j), entry in table.entries.items():
        assert p_t_value(B, 7, 6, i, j) == entry.evaluate(7), (i, j)
    assert _transition_sums.cache_info().currsize == 1


@pytest.mark.parametrize("family", [B, K])
def test_p_t_grouped_sum_matches_class_by_class_sum(family):
    # p_t sums numerators per layer polynomial before canonicalizing; the
    # plain definition adds one canonical rational function per class.
    for D in range(1, 6):
        classes = enumerate_classes(family, D)
        total = RationalFunction(vertex_count_poly(family, D), IntPolynomial.one())
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                acc = RationalFunction.zero()
                for c in classes:
                    weight = RationalFunction(c.cardinality, IntPolynomial.one())
                    acc = acc + weight * p_t_conditional(family, D, c, i, j)
                assert p_t(family, D, i, j) == acc / total, (D, i, j)


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_p_t_value_matches_class_by_class_fractions(family, d):
    for D in range(1, 6):
        classes = classes_realizable(family, D, d)
        total = vertex_count_poly(family, D).evaluate(d)
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                acc = Fraction(0)
                for c in classes:
                    cond = p_t_conditional(family, D, c, i, j).evaluate(d)
                    acc += c.cardinality.evaluate(d) * cond
                assert p_t_value(family, d, D, i, j) == acc / total, (D, i, j)


def _p_t_from_arc_reports(family, d, D):
    """{(i, j): P_t(i, j)} from one intersection_report_eval per concrete arc
    of each realizable class representative, summed in exact fractions."""
    alphabet = d if family is B else d + 1
    acc = {(i, j): Fraction(0) for i in range(1, D + 1) for j in range(i, D + 1)}
    for c in classes_realizable(family, D, d):
        v = c.pattern
        size = c.cardinality.evaluate(d)
        arcs = [v[1:] + (x,) for x in range(alphabet) if family is B or x != v[-1]]
        dens = [(d - 1) * layer_poly_eval(family, D, v, i).evaluate(d) for i in range(D + 1)]
        pi_v = suffix_periods(v)
        masks = layer_masks(family, D, pi_v)
        for w in arcs:
            same = sum(1 << p for p, y in enumerate(v) if y == w[-1])
            reports = intersection_report_eval(family, D, pi_v, suffix_periods(w), masks, same, d2_rules=d == 2)
            for i, report in enumerate(reports, 1):
                for j in range(i, D + 1):
                    acc[(i, j)] += Fraction(size * intersection_poly_at(report, j).evaluate(d), dens[i])
    n = vertex_count_poly(family, D).evaluate(d)
    return {key: value / n for key, value in acc.items()}


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("D", [6, 7])
def test_p_t_value_matches_per_arc_report_fractions(family, d, D):
    # independent of the class kernel: every concrete successor of each
    # representative, one per-arc report each, no successor archetypes
    for (i, j), value in _p_t_from_arc_reports(family, d, D).items():
        assert p_t_value(family, d, D, i, j) == value, (i, j)


def test_p_t_table_b6_matches_sympy():
    # An independent field: sympy sums the per-class terms with its own gcd,
    # and sympy.cancel must find the canonical forms already in lowest terms.
    sympy = pytest.importorskip("sympy")
    field, x = sympy.field("d", sympy.ZZ)
    d = sympy.Symbol("d")

    @functools.lru_cache(maxsize=None)
    def to_field(p):
        return sum((c * x**k for k, c in enumerate(p.coeffs)), field.zero)

    def to_poly(p):
        return sympy.Poly(list(reversed(p.coeffs)), d)

    D = 6
    classes = enumerate_classes(B, D)
    total = to_field(vertex_count_poly(B, D))
    for i in range(1, D + 1):
        for j in range(i, D + 1):
            acc = field.zero
            for c in classes:
                cond = p_t_conditional(B, D, c, i, j)
                if not cond.is_zero:
                    acc += to_field(c.cardinality) * to_field(cond.num) / to_field(cond.den)
            got = p_t(B, D, i, j)
            assert acc / total == to_field(got.num) / to_field(got.den), (i, j)
            num, den = sympy.fraction(sympy.cancel(to_poly(got.num).as_expr() / to_poly(got.den).as_expr()))
            assert (sympy.Poly(num, d), sympy.Poly(den, d)) == (to_poly(got.num), to_poly(got.den)), (i, j)


def test_p_t_regime_handling():
    # p_t is symbolic (d >= 3); p_t_value is the one concrete spelling
    assert p_t(K, 4, 1, 2).evaluate(3) == p_t_value(K, 3, 4, 1, 2) == Fraction(1, 9)
    with pytest.raises(InvalidRange):
        p_t(K, 4, 3, 2)
    with pytest.raises(InvalidRange):
        p_t(K, 4, 0, 2)
    with pytest.raises(ValueError):
        p_t_value(B, 1, 3, 1, 2)


@pytest.mark.parametrize("family", [B, K])
def test_concrete_values_reject_degree_below_two(family):
    # the class kernel's one concrete entry point guards d >= 2 for every caller
    with pytest.raises(ValueError, match="degree d must be >= 2, got 1"):
        p_in_value(family, 1, 3, 1)
    with pytest.raises(ValueError, match="degree d must be >= 2, got 1"):
        p_t_value(family, 1, 3, 1, 2)


def test_transition_table_normalized():
    table = transition_table(K, 4)
    assert table.check_normalized()
    assert str(table.entries[(1, 2)]) == "1 / d^2"


def test_transition_table_normalized_at_b8():
    # the largest symbolic P_t table within reach: gcd inputs of degree up to 327
    assert transition_table(B, 8).check_normalized()


# ---------------------------------------------------------------------------
# mean distance and large degrees
# ---------------------------------------------------------------------------


def test_mean_distance_degenerate_and_table():
    assert mean_distance(B, 1).format() == "1"
    assert mean_distance(K, 1).format() == "1"
    # sum of i * P_in(i) over the K(d,4) input table
    acc = RationalFunction.zero()
    for i in range(1, 5):
        acc = acc + RationalFunction.from_int(i) * p_in(K, 4, i)
    assert mean_distance(K, 4) == acc


@pytest.mark.parametrize(
    "family,d,D", [(B, 2, 4), (B, 3, 3), (K, 2, 4), (K, 3, 3), (K, 2, 5)]
)
def test_mean_distance_matches_all_pairs_bfs(family, d, D):
    from layerscope.oracle import oracle_mean_distance

    g = build_explicit(GraphParams(family, d, D))
    assert mean_distance(family, D).evaluate(d) == oracle_mean_distance(g)


def test_asymptotic_probe():
    # at d = 1000: P_in(i) d^(D-i) tends to 1, P_t(i, D) to 1, P_t(i, j < D) to 0
    d = 1000
    for i in (1, 4):
        assert Fraction(99, 100) < p_in(K, 4, i).evaluate(d) * d ** (4 - i) < 1
    assert p_t_value(K, d, 4, 1, 4) > Fraction(99, 100)
    assert max(p_t_value(K, d, 4, 1, j) for j in range(1, 4)) < Fraction(2, d)
    # P_t(D, D) = 1 at any degree
    assert p_t_value(K, 3, 4, 4, 4) == p_t_value(K, 7, 4, 4, 4) == 1


# ---------------------------------------------------------------------------
# deflection chain
# ---------------------------------------------------------------------------


def test_chain_rows_sum_to_one_and_shape():
    chain = build_chain(K, 3, 4, Fraction(1, 2))
    assert len(chain.rows) == 5
    for row in chain.rows:
        assert sum(row) == 1
    assert chain.rows[0] == (1, 0, 0, 0, 0)
    # from distance 4: half back to 3, half stays at 4 (P_t(4,4) = 1)
    assert chain.rows[4] == (0, 0, 0, Fraction(1, 2), Fraction(1, 2))


def test_chain_p_zero_marches_down():
    chain = build_chain(K, 3, 4, 0)
    hops = hitting_times(chain)
    for i in range(1, 5):
        assert hops[i] == i
        assert expected_hops(chain, {i: Fraction(1)}) == i
    # expected hops from the input start equals the mean distance
    assert expected_hops(chain) == mean_distance(K, 4).evaluate(3)


@pytest.mark.parametrize("family", [B, K])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
def test_hitting_times_solve_the_chain_exactly(family, d, p):
    # h_0 = 0 and h_i = 1 + sum_j rows[i][j] h_j on every transient state, with no rounding
    cases = [(family, d, D) for D in range(1, 7)] + ([(B, 2, 14)] if (family, d) == (B, 2) else [])
    for f, dd, D in cases:
        chain = build_chain(f, dd, D, p)
        h = {0: Fraction(0), **hitting_times(chain)}
        assert sorted(h) == list(range(D + 1))
        for i in range(1, D + 1):
            assert h[i] == 1 + sum(x * h[j] for j, x in enumerate(chain.rows[i])), (f, dd, D, i)


def test_chain_p_one_diverges():
    with pytest.raises(ChainDiverges):
        hitting_times(build_chain(K, 3, 4, 1))
    with pytest.raises(ChainDiverges):
        expected_hops(build_chain(B, 2, 3, Fraction(1)))


def test_chain_start_distribution_validation():
    chain = build_chain(K, 3, 4, Fraction(1, 10))
    with pytest.raises(InvalidRange):
        expected_hops(chain, {1: Fraction(1, 2)})
    with pytest.raises(InvalidRange):
        build_chain(K, 3, 4, Fraction(3, 2))


def test_chain_start_distribution_needs_nonnegative_weights_on_1_to_D():
    chain = build_chain(B, 2, 3, Fraction(1, 10))
    # a key outside 1 .. D, at either end, and negative weights summing to 1
    for start in ({0: 1}, {4: 1}, {1: 2, 2: -1}):
        with pytest.raises(InvalidRange, match="need weights >= 0 on 1 .. 3"):
            expected_hops(chain, start)


def test_diameter_one_families_end_to_end():
    # K(d,1) is the complete digraph, B(d,1) the complete digraph with loops
    assert p_in(K, 1, 1) == RationalFunction.one()
    assert p_in(B, 1, 1) == RationalFunction.one()
    assert p_t(K, 1, 1, 1) == RationalFunction.one()
    assert p_t(B, 1, 1, 1) == RationalFunction.one()
    chain = build_chain(B, 3, 1, Fraction(1, 4))
    # h_1 = 1 + p * h_1  =>  1 / (1 - p)
    assert hitting_times(chain)[1] == Fraction(4, 3)


def test_concrete_transition_table_normalized():
    for i in range(1, 5):
        assert sum(p_t_value(K, 2, 4, i, j) for j in range(i, 5)) == 1, i
    assert p_t_value(K, 2, 4, 1, 2) == Fraction(1, 4)


def test_chain_expected_hops_exact_value():
    # frozen exact solve for K(3,4), p = 1/10
    chain = build_chain(K, 3, 4, Fraction(1, 10))
    assert expected_hops(chain) == Fraction(38526305, 8424324)


def test_chain_monte_carlo_cross_check():
    from layerscope.oracle import simulate_walk_hops

    chain = build_chain(K, 3, 4, Fraction(1, 10))
    exact = expected_hops(chain)
    g = build_explicit(GraphParams(K, 3, 4))
    stats = simulate_walk_hops(g, 0.1, 200_000, seed=1234)
    assert abs(stats.mean - float(exact)) <= 3 * stats.stderr
