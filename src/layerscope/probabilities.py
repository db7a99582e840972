"""Exact deflection-routing probabilities and the absorbing distance chain.

Input probability: P_in(i) is the chance that a uniform ordered pair of
distinct vertices is at distance i. Averaging the layer polynomial over the
vertex classes gives a rational function of d valid for every d >= 2; class
sizes are summed per distinct layer polynomial first, and a concrete degree
sums only the classes realizable there.

Transition probability: a packet at v, destined to z at distance i, is
deflected through a uniform choice among the d - 1 out-links other than the
one on the unique shortest path to z. The chance that the deflected packet
lands at distance j is

    P_t(i, j | v) = sum_w |S_i*(v) cap S_j*(w)| / ((d - 1) |S_i*(v)|)

summed over successors w of v, and P_t(i, j) weights the classes by their
share of V. Per arc at most one j >= i contributes, so the row over
j in [i, D] always sums to one.

One per-class row kernel gives the numerators of P_t(i, j | v) for every
j >= i at once, from one intersection report per successor archetype (the
report of an arc at i does not depend on j). The denominator depends on a
class only through its layer polynomial at i, so the class sums group the
numerators by that polynomial, cached per (family, D, i, d), and build one
fraction per distinct layer polynomial instead of one per class. Symbolic
tables sum under the d >= 3 intersection criteria and carry that validity
tag; a concrete degree evaluates the same sums in exact fractions, with the
d = 2 criteria (which differ for De Bruijn) exactly at d = 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .errors import AlphabetTooSmall, ChainDiverges, InvalidRange, RegimeRequired
from .graphs import Family, Vertex, vertex_count_poly
from .layers import intersection_report_eval, layer_poly_eval
from .polynomials import IntPolynomial, RationalFunction
from .vertex_classes import VertexClass, classes_realizable, enumerate_classes

# Degree regimes for transition probabilities. P_in needs no regime.
SYMBOLIC_D_GE_3 = "d>=3"
SYMBOLIC_ALL_D = "all-d"

Regime = Union[str, int]


def _concrete_degree(regime: Regime) -> Optional[int]:
    if regime == SYMBOLIC_D_GE_3:
        return None
    if isinstance(regime, int) and not isinstance(regime, bool) and regime >= 2:
        return regime
    raise RegimeRequired(
        f"regime must be SYMBOLIC_D_GE_3 or a concrete integer degree >= 2, got {regime!r}"
    )


# ---------------------------------------------------------------------------
# input probabilities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _layer_sums(
    family: Family, D: int, i: int, d: Optional[int] = None
) -> Dict[IntPolynomial, IntPolynomial]:
    """{layer polynomial at i: sum_c |c|} over the classes sharing it.

    Over every class when d is None; else over the classes realizable at d.
    """
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    sums: Dict[IntPolynomial, IntPolynomial] = {}
    for c in classes:
        layer = layer_poly_eval(family, D, c.pattern, i).to_poly()
        sums[layer] = sums.get(layer, IntPolynomial.zero()) + c.cardinality
    return sums


@functools.lru_cache(maxsize=None)
def p_in(family: Family, D: int, i: int) -> RationalFunction:
    """P_in(i) as a canonical rational function of d, valid for every d >= 2."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    num = IntPolynomial.zero()
    for layer, size in _layer_sums(family, D, i).items():
        num = num + size * layer
    total = vertex_count_poly(family, D)
    den = total * (total - IntPolynomial.one())
    return RationalFunction(num, den)


def p_in_value(family: Family, d: int, D: int, i: int) -> Fraction:
    """Exact P_in(i) at a concrete degree d >= 2, over the classes realizable there."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    sums = _layer_sums(family, D, i, d)
    pairs = sum(layer.evaluate(d) * size.evaluate(d) for layer, size in sums.items())
    n = vertex_count_poly(family, D).evaluate(d)
    return Fraction(pairs, n * (n - 1))


def p_in_conditional(family: Family, D: int, c: VertexClass, i: int) -> RationalFunction:
    """P_in(i | v in class c): the layer polynomial over |V| - 1."""
    if not 1 <= i <= D:
        raise InvalidRange(f"need 1 <= i <= D, got i={i}, D={D}")
    layer = layer_poly_eval(family, D, c.pattern, i).to_poly()
    return RationalFunction(layer, vertex_count_poly(family, D) - IntPolynomial.one())


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


def _successor_archetypes(
    family: Family, pattern: Vertex, d: Optional[int] = None
) -> List[Tuple[Vertex, IntPolynomial]]:
    """Successor words of a class representative, with symbolic multiplicities.

    Appending any symbol already in the pattern gives one concrete successor;
    all remaining alphabet symbols behave identically, so they are represented
    by a single word using one fresh symbol with multiplicity d - s (De
    Bruijn) or d + 1 - s (Kautz). Multiplicities sum to d. At a concrete
    degree d the fresh word is dropped where its multiplicity is 0.
    """
    s = max(pattern) + 1
    shifted = pattern[1:]
    out: List[Tuple[Vertex, IntPolynomial]] = []
    for x in range(s):
        if family is Family.KAUTZ and x == pattern[-1]:
            continue
        out.append((shifted + (x,), IntPolynomial.one()))
    fresh_weight = -s if family is Family.DEBRUIJN else 1 - s
    if d is None or d + fresh_weight:
        out.append((shifted + (s,), IntPolynomial((fresh_weight, 1))))
    return out


def _class_transition_row(
    family: Family, D: int, pattern: Vertex, i: int, d: Optional[int] = None
) -> Dict[int, IntPolynomial]:
    """{j: sum_w multiplicity(w) * |S_i*(v) cap S_j*(w)|} over j >= i, as polynomials in d.

    One intersection report per successor archetype: only its forward j0 is
    at or above i, so each archetype adds to at most one j. Symbolic (d >= 3
    criteria) when d is None; else exact at d only, under the d = 2 criteria
    exactly when d == 2.
    """
    row: Dict[int, IntPolynomial] = {}
    for w, weight in _successor_archetypes(family, pattern, d):
        report = intersection_report_eval(family, D, pattern, w, i, d2_rules=d == 2)
        j = report.forward_j
        if j is not None:
            row[j] = row.get(j, IntPolynomial.zero()) + weight * report.forward.to_poly()
    return row


@functools.lru_cache(maxsize=None)
def _transition_sums(
    family: Family, D: int, i: int, d: Optional[int] = None
) -> Dict[int, Dict[IntPolynomial, IntPolynomial]]:
    """{j: {layer polynomial at i: sum_c |c| * row_c[j]}} over the classes.

    The P_t(i, j | v) denominator (d - 1) |S_i*(v)| depends on a class only
    through its layer polynomial, so numerators sharing one are summed as
    integer polynomials first. Symbolic over every class when d is None;
    else over the classes realizable at d, with the kernel at d.
    """
    classes = enumerate_classes(family, D) if d is None else classes_realizable(family, D, d)
    sums: Dict[int, Dict[IntPolynomial, IntPolynomial]] = {}
    for c in classes:
        row = _class_transition_row(family, D, c.pattern, i, d)
        if not row:
            continue
        layer = layer_poly_eval(family, D, c.pattern, i).to_poly()
        for j, num in row.items():
            by_layer = sums.setdefault(j, {})
            by_layer[layer] = by_layer.get(layer, IntPolynomial.zero()) + c.cardinality * num
    return sums


def p_t_conditional(
    family: Family,
    D: int,
    c: VertexClass,
    i: int,
    j: int,
    regime: Regime = SYMBOLIC_D_GE_3,
) -> RationalFunction:
    """P_t(i, j | v in class c) in the requested degree regime.

    Symbolic results are valid for all d >= 3; a concrete regime returns the
    constant rational function of the exact value at that degree.
    """
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    d = _concrete_degree(regime)
    if d is not None and c.s > (d if family is Family.DEBRUIJN else d + 1):
        raise AlphabetTooSmall(f"class {c.label()} has no vertices at d={d}")
    num = _class_transition_row(family, D, c.pattern, i, d).get(j, IntPolynomial.zero())
    layer = layer_poly_eval(family, D, c.pattern, i).to_poly()
    den = IntPolynomial((-1, 1)) * layer  # (d - 1) |S_i*(v)|
    if d is None:
        return RationalFunction(num, den)
    return RationalFunction.from_fraction(Fraction(num.evaluate(d), den.evaluate(d)))


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
    for layer, num in _transition_sums(family, D, i).get(j, {}).items():
        acc = acc + RationalFunction(num, dm1 * layer * total_poly)
    return acc


@functools.lru_cache(maxsize=None)
def p_t_value(family: Family, d: int, D: int, i: int, j: int) -> Fraction:
    """Exact P_t(i, j) at a concrete degree d >= 2.

    Evaluates the per-layer sums of the row kernel at d, over the classes
    realizable there, under the d = 2 intersection criteria exactly when
    d == 2 (they differ for De Bruijn).
    """
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    if d < 2:
        raise ValueError(f"degree d must be >= 2, got {d}")
    total = Fraction(0)
    for layer, num in _transition_sums(family, D, i, d).get(j, {}).items():
        total += Fraction(num.evaluate(d), layer.evaluate(d))
    return total / ((d - 1) * vertex_count_poly(family, D).evaluate(d))


def p_t(
    family: Family, D: int, i: int, j: int, regime: Regime = SYMBOLIC_D_GE_3
) -> RationalFunction:
    """P_t(i, j), class-weighted, in the requested regime.

    The symbolic form carries d >= 3 validity; see p_t_value for concrete
    degrees (d = 2 uses the d = 2 criteria).
    """
    if not 1 <= i <= j <= D:
        raise InvalidRange(f"need 1 <= i <= j <= D, got i={i}, j={j}, D={D}")
    d = _concrete_degree(regime)
    if d is None:
        return _p_t_symbolic(family, D, i, j)
    return RationalFunction.from_fraction(p_t_value(family, d, D, i, j))


# ---------------------------------------------------------------------------
# probability tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityTable:
    """Input (key = i) or transition (key = (i, j)) probabilities for one family and D."""

    family: Family
    D: int
    kind: str  # "input" or "transition"
    regime: Regime
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

    def to_json(self) -> dict:
        keyed = {
            (str(k) if isinstance(k, int) else f"{k[0]},{k[1]}"): v.to_json()
            for k, v in self.entries.items()
        }
        return {
            "family": str(self.family),
            "D": self.D,
            "kind": self.kind,
            "regime": str(self.regime),
            "entries": keyed,
        }


def input_table(family: Family, D: int) -> ProbabilityTable:
    entries = {i: p_in(family, D, i) for i in range(1, D + 1)}
    return ProbabilityTable(family, D, "input", SYMBOLIC_ALL_D, entries)


def transition_table(family: Family, D: int, regime: Regime = SYMBOLIC_D_GE_3) -> ProbabilityTable:
    entries = {
        (i, j): p_t(family, D, i, j, regime)
        for i in range(1, D + 1)
        for j in range(i, D + 1)
    }
    return ProbabilityTable(family, D, "transition", regime, entries)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticProbe:
    """Large-degree behavior of the probabilities at one probe degree.

    pin_scaled = P_in(i) * d^(D-i) tends to 1; pt_to_diameter = P_t(i, D)
    tends to 1; max_pt_intermediate bounds P_t(i, j), j < D, by 1/d.
    """

    family: Family
    D: int
    i: int
    d_probe: int
    pin_scaled: Fraction
    pt_to_diameter: Fraction
    max_pt_intermediate: Optional[Fraction]


def asymptotic_check(family: Family, D: int, i: int, d_probe: int) -> AsymptoticProbe:
    if d_probe < 2:
        raise InvalidRange(f"probe degree must be >= 2, got {d_probe}")
    pin_scaled = p_in(family, D, i).evaluate(d_probe) * d_probe ** (D - i)
    pt_diam = p_t_value(family, d_probe, D, i, D)
    intermediates = [p_t_value(family, d_probe, D, i, j) for j in range(i, D)]
    return AsymptoticProbe(
        family=family,
        D=D,
        i=i,
        d_probe=d_probe,
        pin_scaled=pin_scaled,
        pt_to_diameter=pt_diam,
        max_pt_intermediate=max(intermediates) if intermediates else None,
    )


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

    start maps distances 1 .. D to probabilities summing to 1 (default: the
    input probabilities at the chain's degree). Raises ChainDiverges at
    deflection probability 1, where state D becomes absorbing.
    """
    if chain.deflect_prob == 1:
        raise ChainDiverges("deflection probability 1 never absorbs (P_t(D, D) = 1)")
    hops = hitting_times(chain)
    if start is None:
        start = chain.start_from_input_probabilities()
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
