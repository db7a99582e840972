"""Exact deflection-routing probabilities and the absorbing distance chain.

Input probability: P_in(i) is the chance that a uniform ordered pair of
distinct vertices is at distance i. Averaging the layer polynomial over the
vertex classes gives a rational function of d valid for every d >= 2; classes
are counted per suffix-period vector (it fixes the layer masks at every i) and
s, and a concrete degree sums only the classes realizable there.

Transition probability: a packet at v, destined to z at distance i, is
deflected through a uniform choice among the d - 1 out-links other than the
one on the unique shortest path to z. The chance that the deflected packet
lands at distance j is

    P_t(i, j | v) = sum_w |S_i*(v) cap S_j*(w)| / ((d - 1) |S_i*(v)|)

summed over successors w of v, and P_t(i, j) weights the classes by their
share of V. Per arc at most one j >= i contributes, so the row over
j in [i, D] always sums to one.

Per class and successor archetype w, each i reduces to integers: v's layer
mask A_i and the forward rule (j0, m, t) of ``layers.forward_rule``. One pass
over the classes, cached per (family, D, d), counts them per (i, j0, A_i, m, t,
s) and makes one polynomial product per distinct (i, j0, A_i, m, t), then one
fraction per distinct layer polynomial, not one per class. Every degree uses
the d >= 3 criteria: where the d = 2 criteria differ (De Bruijn), the forward
polynomial vanishes at d = 2. Symbolic tables carry the d >= 3 tag; a concrete
degree evaluates the same sums in exact fractions.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import ChainDiverges, InvalidRange
from .graphs import Family, Vertex, alphabet_size, vertex_count_poly
from .layers import LayerPolynomial, forward_rule, layer_masks, layer_poly_eval, suffix_periods
from .polynomials import IntPolynomial, RationalFunction
from .vertex_classes import VertexClass, class_cardinality_poly, classes_realizable, enumerate_classes

# ---------------------------------------------------------------------------
# input probabilities
# ---------------------------------------------------------------------------


def _sum_sizes(family: Family, counts: Counter) -> Dict[tuple, IntPolynomial]:
    """{key: sum of count * class_cardinality_poly(s)} over counts keyed by (*key, s)."""
    sizes: Dict[tuple, IntPolynomial] = {}
    for (*key, s), count in counts.items():
        key = tuple(key)
        sizes[key] = sizes.get(key, IntPolynomial.zero()) + count * class_cardinality_poly(family, s)
    return sizes


@functools.lru_cache(maxsize=None)
def _layer_sums(
    family: Family, D: int, d: Optional[int] = None
) -> List[Dict[IntPolynomial, IntPolynomial]]:
    """sums[i] = {layer polynomial at i: sum_c |c|}, with classes counted per
    (suffix-period vector, s); the vector fixes the layer masks at every i. Over
    every class when d is None; else over the classes realizable at d."""
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    counts = Counter((*suffix_periods(c.pattern), c.s) for c in classes)
    sums: List[Dict[IntPolynomial, IntPolynomial]] = [{} for _ in range(D + 1)]
    for pi, size in _sum_sizes(family, counts).items():
        for i, (a, by_layer) in enumerate(zip(layer_masks(family, D, pi), sums)):
            layer = LayerPolynomial.from_mask(i, a).to_poly()
            by_layer[layer] = by_layer.get(layer, IntPolynomial.zero()) + size
    return sums


@functools.lru_cache(maxsize=None)
def p_in(family: Family, D: int, i: int) -> RationalFunction:
    """P_in(i) as a canonical rational function of d, valid for every d >= 2."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    num = IntPolynomial.zero()
    for layer, size in _layer_sums(family, D)[i].items():
        num = num + size * layer
    total = vertex_count_poly(family, D)
    den = total * (total - IntPolynomial.one())
    return RationalFunction(num, den)


def p_in_value(family: Family, d: int, D: int, i: int) -> Fraction:
    """Exact P_in(i) at a concrete degree d >= 2, over the classes realizable there."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    sums = _layer_sums(family, D, d)[i]
    pairs = sum(layer.evaluate(d) * size.evaluate(d) for layer, size in sums.items())
    n = vertex_count_poly(family, D).evaluate(d)
    return Fraction(pairs, n * (n - 1))


@functools.lru_cache(maxsize=None)
def mean_distance(family: Family, D: int) -> RationalFunction:
    """Sum of i * P_in(i), the exact mean distance over ordered pairs."""
    acc = RationalFunction.zero()
    for i in range(1, D + 1):
        acc = acc + RationalFunction.from_int(i) * p_in(family, D, i)
    return acc


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def _class_terms(
    family: Family, D: int, pattern: Vertex, d: Optional[int], levels: Iterable[int]
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """(i, j0, A_i, m, t, s_eff) for each i in levels and successor archetype w = v[1:] + x.

    A symbol x already in v gives one successor, weight 1, s_eff = s. One fresh
    symbol stands for the d - s (De Bruijn) or d + 1 - s (Kautz) others, and that
    weight times |c| is the class size at s_eff = s + 1; at a concrete d it is
    dropped where the weight is 0.
    """
    s = max(pattern) + 1
    pi_v = suffix_periods(pattern)
    masks = layer_masks(family, D, pi_v)
    alphabet = s + 1 if d is None else alphabet_size(family, d)
    for x in range(min(s + 1, alphabet)):
        if family is Family.KAUTZ and x == pattern[-1]:
            continue
        pi_w = suffix_periods(pattern[1:] + (x,))
        same = sum(1 << p for p, y in enumerate(pattern) if y == x)
        for i in levels:
            j0, m, t = forward_rule(family, D, i, masks[i], same, pi_v, pi_w)
            yield i, j0, masks[i], m, t, s + (x == s)


@functools.lru_cache(maxsize=None)
def _transition_sums(
    family: Family, D: int, d: Optional[int] = None
) -> List[Dict[int, Dict[IntPolynomial, IntPolynomial]]]:
    """sums[i] = {j: {layer polynomial at i: sum_c |c| * row_c[j]}}: one pass counts
    the class terms per (i, j0, A_i, m, t, s_eff), then one product per (i, j0, A_i,
    m, t) of the forward polynomial with the summed class sizes. Over every class
    when d is None; else over the classes realizable at d."""
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    levels = range(1, D + 1)
    counts = Counter(term for c in classes for term in _class_terms(family, D, c.pattern, d, levels))
    sums: List[Dict[int, Dict[IntPolynomial, IntPolynomial]]] = [{} for _ in range(D + 1)]
    for (i, j, a, m, t), size in _sum_sizes(family, counts).items():
        layer = LayerPolynomial.from_mask(i, a).to_poly()
        num = size * LayerPolynomial.from_mask(i, m, t).to_poly()
        by_layer = sums[i].setdefault(j, {})
        by_layer[layer] = by_layer.get(layer, IntPolynomial.zero()) + num
    return sums


def p_t_conditional(family: Family, D: int, c: VertexClass, i: int, j: int) -> RationalFunction:
    """P_t(i, j | v in class c), valid for all d >= 3; evaluate it at d for a concrete degree."""
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    num = IntPolynomial.zero()  # |c| * sum_w weight(w) |S_i*(v) cap S_j*(w)|
    for _, j0, _, m, t, s in _class_terms(family, D, c.pattern, None, (i,)):
        if j0 == j:
            num = num + class_cardinality_poly(family, s) * LayerPolynomial.from_mask(i, m, t).to_poly()
    layer = layer_poly_eval(family, D, c.pattern, i).to_poly()
    den = IntPolynomial((-1, 1)) * c.cardinality * layer  # (d - 1) |c| |S_i*(v)|
    return RationalFunction(num, den)


@functools.lru_cache(maxsize=None)
def _p_t_symbolic(family: Family, D: int, i: int, j: int) -> RationalFunction:
    """Symbolic P_t(i, j) under the d >= 3 criteria.

    One canonical rational function per distinct layer polynomial at i (a few
    dozen at most) rather than one per class; the canonical form is unique,
    so the order of summation does not show in the result.
    """
    total_poly = vertex_count_poly(family, D)
    dm1 = IntPolynomial((-1, 1))
    acc = RationalFunction.zero()
    for layer, num in _transition_sums(family, D)[i].get(j, {}).items():
        acc = acc + RationalFunction(num, dm1 * layer * total_poly)
    return acc


@functools.lru_cache(maxsize=None)
def p_t_value(family: Family, d: int, D: int, i: int, j: int) -> Fraction:
    """Exact P_t(i, j) at a concrete degree d >= 2.

    Evaluates the per-layer sums of the class kernel at d, over the classes
    realizable there; at d = 2 the d >= 3 criteria give the same values.
    """
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    total = Fraction(0)
    for layer, num in _transition_sums(family, D, d)[i].get(j, {}).items():
        total += Fraction(num.evaluate(d), layer.evaluate(d))
    return total / ((d - 1) * vertex_count_poly(family, D).evaluate(d))


def p_t(family: Family, D: int, i: int, j: int) -> RationalFunction:
    """P_t(i, j), class-weighted, valid for all d >= 3; p_t_value gives it at a concrete degree."""
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    return _p_t_symbolic(family, D, i, j)


# ---------------------------------------------------------------------------
# probability tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityTable:
    """Input (key = i) or transition (key = (i, j)) probabilities for one family and D."""

    family: Family
    D: int
    kind: str  # "input" (valid for all d >= 2) or "transition" (valid for d >= 3)
    entries: dict

    def check_normalized(self) -> bool:
        """Row sums must be exactly one (a rational-function identity when symbolic)."""
        one = RationalFunction.one()
        if self.kind == "input":
            acc = RationalFunction.zero()
            for i in range(1, self.D + 1):
                acc = acc + self.entries[i]
            return acc == one
        for i in range(1, self.D + 1):
            acc = RationalFunction.zero()
            for j in range(i, self.D + 1):
                acc = acc + self.entries[(i, j)]
            if acc != one:
                return False
        return True


def input_table(family: Family, D: int) -> ProbabilityTable:
    entries = {i: p_in(family, D, i) for i in range(1, D + 1)}
    return ProbabilityTable(family, D, "input", entries)


def transition_table(family: Family, D: int) -> ProbabilityTable:
    entries = {
        (i, j): p_t(family, D, i, j)
        for i in range(1, D + 1)
        for j in range(i, D + 1)
    }
    return ProbabilityTable(family, D, "transition", entries)


# ---------------------------------------------------------------------------
# absorbing distance chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeflectionChain:
    """Markov chain on distances 0 .. D: state 0 absorbs; from i >= 1 the
    packet moves to i - 1 with probability 1 - p and to j with p * P_t(i, j)."""

    family: Family
    d: int
    D: int
    deflect_prob: Fraction
    rows: Tuple[Tuple[Fraction, ...], ...]

    def start_from_input_probabilities(self) -> Dict[int, Fraction]:
        return {i: p_in_value(self.family, self.d, self.D, i) for i in range(1, self.D + 1)}


def build_chain(family: Family, d: int, D: int, deflect_prob) -> DeflectionChain:
    """Exact transition matrix of the distance chain at a concrete degree."""
    p = Fraction(deflect_prob)
    if not 0 <= p <= 1:
        raise InvalidRange(f"deflection probability must lie in [0, 1], got {p}")
    size = D + 1
    rows = [tuple(Fraction(int(t == 0)) for t in range(size))]  # state 0 absorbs
    for i in range(1, size):
        row = [Fraction(0)] * size
        row[i - 1] += 1 - p
        if p:
            for j in range(i, D + 1):
                row[j] += p * p_t_value(family, d, D, i, j)
        rows.append(tuple(row))
    chain = DeflectionChain(family, d, D, p, tuple(rows))
    for row in chain.rows:
        assert sum(row) == 1
    return chain


def expected_hops(
    chain: DeflectionChain, start: Optional[Dict[int, Fraction]] = None
) -> Fraction:
    """Exact expected number of hops to absorption from a start distribution.

    start maps distances 1 .. D to nonnegative probabilities summing to 1
    (default: the input probabilities at the chain's degree), else InvalidRange.
    Raises ChainDiverges at deflection probability 1, where state D becomes
    absorbing.
    """
    hops = hitting_times(chain)
    if start is None:
        start = chain.start_from_input_probabilities()
    for i, w in start.items():
        if i not in hops or Fraction(w) < 0:
            raise InvalidRange(f"start distribution gives {w} to distance {i}; need weights >= 0 on 1 .. {chain.D}")
    total = sum(Fraction(w) for w in start.values())
    if total != 1:
        raise InvalidRange(f"start distribution sums to {total}, not 1")
    return sum(Fraction(w) * hops[i] for i, w in start.items() if w)


def hitting_times(chain: DeflectionChain) -> Dict[int, Fraction]:
    """h_i = expected hops from state i to absorption, by exact Gaussian elimination."""
    if chain.deflect_prob == 1:
        raise ChainDiverges("deflection probability 1 never absorbs (P_t(D, D) = 1)")
    D = chain.D
    # (I - Q) h = 1 over transient states 1 .. D
    a = [
        [
            (Fraction(int(r == c)) - chain.rows[r][c])
            for c in range(1, D + 1)
        ]
        + [Fraction(1)]
        for r in range(1, D + 1)
    ]
    m = D
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        assert pivot is not None, "transient system is singular"
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return {i + 1: a[i][m] for i in range(m)}
