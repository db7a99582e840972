"""Exact deflection-routing probabilities and the absorbing distance chain.

Input probability: P_in(i) is the chance that a uniform ordered pair of
distinct vertices is at distance i, sum_v |S_i*(v)| over n (n - 1). The sum
is linear in the layer bits, which depend on v only through its suffix
periods, so one count of words by shortest period (over border arrays, not
vertex classes) gives its numerator as one polynomial, valid at every d >= 2.

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
s) and sums class sizes times forward polynomials as integers packed at 2^K
(Kronecker substitution), read back as one polynomial per distinct (i, j, layer
polynomial); P_t then adds one fraction per layer polynomial, not one per class,
and divides by (d - 1)|V| once per cell. Every degree uses the d >= 3 criteria:
where the d = 2 criteria differ (De Bruijn), the forward polynomial vanishes at
d = 2. Symbolic tables carry the d >= 3 tag; a concrete degree evaluates the
same sums in exact fractions.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from . import vertex_classes
from .errors import ChainDiverges, InvalidRange, TooLarge
from .graphs import Family, GraphParams, Vertex, alphabet_size, vertex_count_poly
from .layers import LayerPolynomial, forward_rule, layer_masks, layer_poly_eval, suffix_periods
from .polynomials import IntPolynomial, RationalFunction, _unpack
from .vertex_classes import VertexClass, class_cardinality_poly, classes_realizable, enumerate_classes

# ---------------------------------------------------------------------------
# input probabilities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_counts(family: Family, D: int) -> List[IntPolynomial]:
    """counts[i] = sum_v |S_i*(v)|, i = 0 .. D, as polynomials valid at every d.

    |S_i*(v)| is d^i less d^k for each k < i with pi_k(v) = i - k (k <= D - 2 for Kautz), and v[:k]
    has d^k choices, so counts[i] = n d^i - sum_k d^(2k) M(D - k, i - k), M(m, p) the words of length
    m with shortest period p, counted by one depth-first search over border arrays (Moore, Smyth and
    Miller, Algorithmica 23, 1999). A node r[:m] (a new integer per fresh symbol) weighs the words
    sharing its border array. Each distinct r[c], c on the border chain of m, gives a child of equal
    weight and border c + 1 (c the longest); one fresh child, border 0, multiplies the weight by the
    alphabet size less those symbols and, for Kautz, r[m - 1], whose child Kautz drops. The border
    array fixes which chain symbols are equal, so one word stands for all.
    """
    cap = vertex_classes.CLASS_CAP  # read per call, so that a test can lower it
    # below depth D every node but Kautz's root has two children or more: 2^(D - 1) nodes at least
    if D > cap.bit_length():  # 2^(D - 1) > cap
        raise TooLarge(f"P_in of {family}(d,{D}) needs at least 2^{D - 1} border-array nodes, above the cap of {cap:,}")
    kautz = family is Family.KAUTZ
    weights = [class_cardinality_poly(family, 1)]  # by weight id; the root's is the alphabet size
    fresh: Dict[Tuple[int, int], int] = {}  # (weight id, symbols excluded) -> the fresh child's weight id
    tally: Counter = Counter()  # nodes per (m, p, weight id); a product per node is 2x slower
    r, border, nodes = [0] * D, [0] * (D + 1), itertools.count(1)

    def visit(m: int, s: int, w: int) -> None:
        if next(nodes) > cap:
            raise TooLarge(f"P_in of {family}(d,{D}) needs more border-array nodes than the cap of {cap:,}")
        tally[m, m - border[m], w] += 1
        if m == D:
            return
        c = border[m]
        longest = {r[c]: c}  # each chain symbol at its longest c
        while c:
            c = border[c]
            longest.setdefault(r[c], c)
        if kautz:
            longest.pop(r[m - 1], None)  # a Kautz word never repeats its last symbol
        for x, c in longest.items():
            r[m], border[m + 1] = x, c + 1
            visit(m + 1, s, w)
        excluded = len(longest) + kautz  # the chain symbols and, for Kautz, r[m - 1]
        child = fresh.setdefault((w, excluded), len(weights))
        if child == len(weights):
            weights.append(weights[w] * IntPolynomial((kautz - excluded, 1)))
        r[m], border[m + 1] = s, 0
        visit(m + 1, s + 1, child)

    visit(1, 1, 0)
    words: Dict[Tuple[int, int], IntPolynomial] = {}  # M(m, p)
    for (m, p, w), count in tally.items():
        words[m, p] = words.get((m, p), IntPolynomial.zero()) + count * weights[w]
    n = vertex_count_poly(family, D)
    counts = [n * IntPolynomial.monomial(i) for i in range(D + 1)]
    for (m, p), count in words.items():
        if not (kautz and m == 1):  # k = D - m <= D - 2
            counts[D - m + p] = counts[D - m + p] - IntPolynomial.monomial(2 * (D - m)) * count
    return counts


@functools.lru_cache(maxsize=None)
def p_in(family: Family, D: int, i: int) -> RationalFunction:
    """P_in(i) as a canonical rational function of d, valid for every d >= 2."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    n = vertex_count_poly(family, D)
    return RationalFunction(_pair_counts(family, D)[i], n * (n - IntPolynomial.one()))


def p_in_value(family: Family, d: int, D: int, i: int) -> Fraction:
    """Exact P_in(i) at a concrete degree d >= 2: p_in's numerator and denominator at d."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    n = GraphParams(family, d, D).vertex_count  # raises ValueError below d = 2
    return Fraction(_pair_counts(family, D)[i].evaluate(d), n * (n - 1))


@functools.lru_cache(maxsize=None)
def mean_distance(family: Family, D: int) -> RationalFunction:
    """Sum of i * P_in(i), the exact mean distance over ordered pairs, as one fraction."""
    n = vertex_count_poly(family, D)
    num = sum((i * count for i, count in enumerate(_pair_counts(family, D))), IntPolynomial.zero())
    return RationalFunction(num, n * (n - IntPolynomial.one()))


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def _class_terms(family: Family, D: int, pattern: Vertex, d: Optional[int], levels: Iterable[int]) -> Iterator[tuple]:
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
def _transition_sums(family: Family, D: int, d: Optional[int] = None) -> List[Dict[int, dict]]:
    """sums[i] = {j: {layer polynomial at i: sum_c |c| * row_c[j]}}, over every class when d is
    None, else over the classes realizable at d. One pass counts the class terms per (i, j0, A_i,
    m, t, s_eff); class sizes times forward polynomials are then summed as integers packed at 2^K
    and read back once per (i, j, layer). A coefficient read back is at most terms * max_s
    |card_s|_1 * (D + 2) in size (a forward polynomial's 1-norm is at most i + 2), below 2^(K - 1)."""
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    levels = range(1, D + 1)
    counts = Counter(term for c in classes for term in _class_terms(family, D, c.pattern, d, levels))
    cards = {s: class_cardinality_poly(family, s) for s in {term[-1] for term in counts}}
    norm = max((sum(map(abs, card.coeffs)) for card in cards.values()), default=0)
    K = (sum(counts.values()) * norm * (D + 2)).bit_length() + 2
    packed = {s: card.evaluate(1 << K) for s, card in cards.items()}
    sizes: Dict[tuple, int] = {}  # summed class sizes per (i, j0, A_i, m, t), packed
    for term, count in counts.items():
        key = term[:-1]
        sizes[key] = sizes.get(key, 0) + count * packed[term[-1]]
    del counts  # free each stage once the next is built: at a concrete d they are about as large
    forwards: Dict[tuple, int] = {}  # packed forward polynomials per (i, m, t)
    nums: Dict[tuple, int] = {}  # packed numerators per (i, j0, layer polynomial)
    for (i, j, a, m, t), size in sizes.items():
        if (i, m, t) not in forwards:
            forwards[i, m, t] = LayerPolynomial.from_mask(i, m, t).evaluate(1 << K)
        key = i, j, LayerPolynomial.from_mask(i, a)
        nums[key] = nums.get(key, 0) + size * forwards[i, m, t]
    del sizes
    sums: List[Dict[int, Dict[IntPolynomial, IntPolynomial]]] = [{} for _ in range(D + 1)]
    for (i, j, layer), num in nums.items():
        sums[i].setdefault(j, {})[layer.to_poly()] = _unpack(num, K)
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

    One canonical form per distinct layer polynomial at i (a few dozen at
    most) rather than one per class, then one for the factor (d - 1)|V|; the
    canonical form is unique, so the order of summation does not show in the result.
    """
    acc = RationalFunction.zero()
    for layer, num in _transition_sums(family, D)[i].get(j, {}).items():
        acc = RationalFunction(acc.num * layer + num * acc.den, acc.den * layer)
    return RationalFunction(acc.num, acc.den * IntPolynomial((-1, 1)) * vertex_count_poly(family, D))


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


class ProbabilityTable(NamedTuple):
    """Input (key = i) or transition (key = (i, j)) probabilities for one family and D."""

    family: Family
    D: int
    kind: str  # "input" (valid for all d >= 2) or "transition" (valid for d >= 3)
    entries: dict

    def check_normalized(self) -> bool:
        """Row sums must be exactly one (a rational-function identity when symbolic)."""
        D, span, zero, one = self.D, range(1, self.D + 1), RationalFunction.zero(), RationalFunction.one()
        rows = [[(i, j) for j in range(i, D + 1)] for i in span] if self.kind == "transition" else [span]
        return all(sum((self.entries[key] for key in row), zero) == one for row in rows)


def input_table(family: Family, D: int) -> ProbabilityTable:
    entries = {i: p_in(family, D, i) for i in range(1, D + 1)}
    return ProbabilityTable(family, D, "input", entries)


def transition_table(family: Family, D: int) -> ProbabilityTable:
    entries = {(i, j): p_t(family, D, i, j) for i in range(1, D + 1) for j in range(i, D + 1)}
    return ProbabilityTable(family, D, "transition", entries)


# ---------------------------------------------------------------------------
# absorbing distance chain
# ---------------------------------------------------------------------------


class DeflectionChain(NamedTuple):
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


def expected_hops(chain: DeflectionChain, start: Optional[Dict[int, Fraction]] = None) -> Fraction:
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
    a = [[Fraction(int(r == c)) - chain.rows[r][c] for c in range(1, D + 1)] + [Fraction(1)] for r in range(1, D + 1)]
    for col in range(D):
        pivot = next((r for r in range(col, D) if a[r][col] != 0), None)
        assert pivot is not None, "transient system is singular"
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(D):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return {i + 1: a[i][D] for i in range(D)}
