"""Input and transition probabilities, mean distance, asymptotics, distance chain.

The transition probability implemented here is the exact law of the deflection
process (destination uniform on the distance-i layer, deflected link uniform
over the d - 1 non-shortest-path out-links); it is validated against the
brute-force oracle in test_oracle.py and below. An alternative closed form
(with each per-class term scaled by an extra 1 - q factor) floats around for
these quantities and does not match the process; test_acceptance.py carries it
as a deliberately red fixture.
"""

import functools
from fractions import Fraction

import pytest

from layerscope.errors import ChainDiverges, InvalidRange, RegimeRequired
from layerscope.graphs import Family, GraphParams, build_explicit, vertex_count_poly
from layerscope.oracle import oracle_transition_table
from layerscope.polynomials import RationalFunction
from layerscope.probabilities import (
    asymptotic_check,
    build_chain,
    expected_hops,
    hitting_times,
    input_table,
    mean_distance,
    p_in,
    p_in_conditional,
    p_in_value,
    p_t,
    p_t_conditional,
    p_t_value,
    transition_table,
)
from layerscope.vertex_classes import canonical_pattern, classes_realizable, enumerate_classes

B, K = Family.DEBRUIJN, Family.KAUTZ


def _class(family, D, pattern):
    return next(c for c in enumerate_classes(family, D) if c.pattern == pattern)


# ---------------------------------------------------------------------------
# input probabilities
# ---------------------------------------------------------------------------


def test_p_in_conditional_examples():
    c = _class(K, 10, (0, 1, 2, 0, 1, 2, 0, 1, 0, 1))
    got = p_in_conditional(K, 10, c, 8)
    assert got.format() == "(d^8 - d^6 - d^3 - 1) / (d^10 + d^9 - 1)"
    c = _class(K, 4, (0, 1, 0, 1))
    assert p_in_conditional(K, 4, c, 2).format() == "(d^2 - 1) / (d^4 + d^3 - 1)"
    # all-zero coefficients give d^i over |V| - 1
    c = _class(K, 4, (0, 1, 0, 2))
    assert p_in_conditional(K, 4, c, 3).format() == "d^3 / (d^4 + d^3 - 1)"


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
    # definition adds one conditional probability per realizable class.
    for D in range(1, 7):
        classes = classes_realizable(family, D, d)
        total = vertex_count_poly(family, D).evaluate(d)
        for i in range(1, D + 1):
            acc = Fraction(0)
            for c in classes:
                acc += c.cardinality.evaluate(d) * p_in_conditional(family, D, c, i).evaluate(d)
            value = p_in_value(family, d, D, i)
            assert value == acc / total == p_in(family, D, i).evaluate(d), (D, i)


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
                got = p_t_conditional(family, D, c, i, j, regime=d)
                assert got.evaluate(d) == oracle_value, (family, d, D, c.pattern, i, j)


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
    # A concrete degree sums the per-class kernel in fractions rather than
    # evaluating the symbolic form, so the two agree by computation, not by
    # construction: check every cell and every realizable class.
    for D in range(1, 6):
        classes = classes_realizable(family, D, d)
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                assert p_t_value(family, d, D, i, j) == p_t(family, D, i, j).evaluate(d)
                for c in classes:
                    symbolic = p_t_conditional(family, D, c, i, j).evaluate(d)
                    got = p_t_conditional(family, D, c, i, j, regime=d)
                    assert got == RationalFunction.from_fraction(symbolic), (D, c.pattern, i, j)


@pytest.mark.parametrize("family", [B, K])
def test_p_t_grouped_sum_matches_class_by_class_sum(family):
    # p_t sums numerators per layer polynomial before canonicalizing; the
    # plain definition adds one canonical rational function per class.
    for D in range(1, 6):
        classes = enumerate_classes(family, D)
        total = RationalFunction.from_poly(vertex_count_poly(family, D))
        for i in range(1, D + 1):
            for j in range(i, D + 1):
                acc = RationalFunction.zero()
                for c in classes:
                    weight = RationalFunction.from_poly(c.cardinality)
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
                    cond = p_t_conditional(family, D, c, i, j, regime=d).evaluate(d)
                    acc += c.cardinality.evaluate(d) * cond
                assert p_t_value(family, d, D, i, j) == acc / total, (D, i, j)


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
    assert p_t(K, 4, 1, 2, regime=3).evaluate(0) == Fraction(1, 9)
    with pytest.raises(RegimeRequired):
        p_t(K, 4, 1, 2, regime="whenever")
    with pytest.raises(RegimeRequired):
        p_t_conditional(K, 4, _class(K, 4, (0, 1, 0, 1)), 1, 2, regime=1)
    with pytest.raises(InvalidRange):
        p_t(K, 4, 3, 2)
    with pytest.raises(InvalidRange):
        p_t(K, 4, 0, 2)
    with pytest.raises(ValueError):
        p_t_value(B, 1, 3, 1, 2)


def test_transition_table_normalized():
    table = transition_table(K, 4)
    assert table.check_normalized()
    data = table.to_json()
    assert data["entries"]["1,2"] == {"num": [1], "den": [0, 0, 1]}


# ---------------------------------------------------------------------------
# mean distance and asymptotics
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
    probe = asymptotic_check(K, 4, 4, 1000)
    assert Fraction(99, 100) < probe.pin_scaled < 1
    probe = asymptotic_check(K, 4, 1, 1000)
    assert Fraction(99, 100) < probe.pin_scaled < 1
    assert probe.pt_to_diameter > Fraction(99, 100)
    assert probe.max_pt_intermediate < Fraction(2, 1000)
    # P_t(D, D) = 1 at any degree
    assert p_t_value(K, 3, 4, 4, 4) == 1
    assert asymptotic_check(K, 4, 4, 7).pt_to_diameter == 1
    with pytest.raises(InvalidRange):
        asymptotic_check(K, 4, 1, 1)


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


def test_diameter_one_families_end_to_end():
    # K(d,1) is the complete digraph, B(d,1) the complete digraph with loops
    assert p_in(K, 1, 1) == RationalFunction.one()
    assert p_in(B, 1, 1) == RationalFunction.one()
    assert p_t(K, 1, 1, 1) == RationalFunction.one()
    assert p_t(B, 1, 1, 1) == RationalFunction.one()
    chain = build_chain(B, 3, 1, Fraction(1, 4))
    # h_1 = 1 + p * h_1  =>  1 / (1 - p)
    assert hitting_times(chain)[1] == Fraction(4, 3)


def test_unrealizable_class_rejected_at_concrete_degree():
    from layerscope.errors import AlphabetTooSmall

    c = _class(K, 4, (0, 1, 2, 3))
    with pytest.raises(AlphabetTooSmall):
        p_t_conditional(K, 4, c, 1, 2, regime=2)
    # symbolically the class is fine
    assert p_t_conditional(K, 4, c, 1, 3).format() == "1 / d"


def test_concrete_transition_table_normalized():
    table = transition_table(K, 4, regime=2)
    assert table.check_normalized()
    assert table.entries[(1, 2)].evaluate(0) == Fraction(1, 4)


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
