"""Closed-form distance-layer combinatorics.

Everything here compares symbols of the vertex words; no vertex set is ever
materialized. Write S_i(v) for the set reachable from v by some walk of length
i, S_i*(v) for the set at distance exactly i, and pi_k(v) for the shortest
period of the suffix v_{k+1} .. v_D (``suffix_periods``). Below the diameter,
S_k(v) lies in S_j(v') exactly when v_{k+1} .. v_{D-(j-k)} = v'_{j+1} .. v'_D,
and otherwise the two are disjoint. The two key facts:

  * |S_i*(v)| = d^i - sum a_k d^k with a_k = 1 exactly when i = k + pi_k(v),
    except k = D - 1 for Kautz: S_k(v) lies in S_j(v), j < D, exactly when
    v_{k+1} .. v_D has period j - k, and at i = D a suffix without a proper
    period has first symbol != last symbol, the Kautz containment rule.
  * For w adjacent from v, j0 = i - 1 + pi(v_{i+1} .. v_D w_D) is the one
    forward index with S_i*(v) cap S_j0*(w) nonempty: S_i(v) lies in S_j(w),
    i <= j < D, exactly when that word has period j + 1 - i.

Every cardinality is d^i - sum a_k d^k with small a_k, held as a bit mask by
``LayerPolynomial``. ``layer_poly_eval`` works on (family, D, v);
``intersection_report_eval`` builds all D reports of one arc from all that they
read of it: both words' suffix periods, v's layer masks, which its caller
computes once per vertex, and the bits ``same`` where v holds w's last symbol.
Arcs with equal arguments thus share their reports, which name no word. Its
``d2_rules`` picks the d = 2 criteria (De Bruijn only) over the d >= 3 ones.
``layer_star_poly`` and ``intersection_report`` take (params, ...), read the
regime off params.d, check adjacency and compute those facts themselves.
Both spellings stay: ``bench/spans.py`` times each, and the acceptance tests
import the params ones. Every other predicate here reads one of the four.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, NotASuccessor
from .graphs import Family, GraphParams, Vertex, is_successor
from .polynomials import IntPolynomial


# ---------------------------------------------------------------------------
# suffix periods
# ---------------------------------------------------------------------------


def suffix_periods(v: Vertex) -> Tuple[int, ...]:
    """pi[k], the shortest period of the suffix v[k:], for every k, in O(D).

    One border (KMP failure) array of the reversed word, whose prefixes are the
    reversed suffixes; a word of length m with longest proper border b has
    shortest period m - b.
    """
    r = v[::-1]
    D = len(r)
    border = [0] * (D + 1)  # border[m]: longest proper border of r[:m]
    b = 0
    for m in range(1, D):
        while b and r[m] != r[b]:
            b = border[b]
        if r[m] == r[b]:
            b += 1
        border[m + 1] = b
    return tuple(D - k - border[D - k] for k in range(D))


# ---------------------------------------------------------------------------
# layer cardinality polynomial
# ---------------------------------------------------------------------------


class LayerPolynomial(NamedTuple):
    """d^top - sum of d^k over the set bits k of mask - lead * d^(top-1).

    ``from_mask`` drops the bits k >= top and folds bit top - 1 into lead (0, 1,
    or 2 in a forward intersection), so equal polynomials give equal tuples.
    """

    top: int
    mask: int
    lead: int

    @classmethod
    def from_mask(cls, top: int, mask: int, lead: int = 0) -> "LayerPolynomial":
        if not top:
            return cls(0, 0, 0)
        return cls(top, mask & ((1 << (top - 1)) - 1), lead + (mask >> (top - 1) & 1))

    def coefficient(self, k: int) -> int:
        """The (nonnegative) sub-coefficient of d^k."""
        if k == self.top - 1:
            return self.lead
        return self.mask >> k & 1 if k >= 0 else 0

    def to_poly(self) -> IntPolynomial:
        return IntPolynomial([-self.coefficient(k) for k in range(self.top)] + [1])

    def evaluate(self, d: int) -> int:
        value, power, mask = d**self.top, 1, self.mask
        while mask:  # minus d^k for each set bit k
            if mask & 1:
                value -= power
            mask, power = mask >> 1, power * d
        return value - self.lead * d ** (self.top - 1) if self.top else value

    def __str__(self) -> str:
        return self.to_poly().format()

    def to_json(self) -> list:
        return self.to_poly().to_json()


def layer_masks(family: Family, D: int, pi: Sequence[int]) -> List[int]:
    """masks[i], i = 0 .. D, holds the bits a_k of |S_i*| = d^i - sum a_k d^k for suffix
    periods pi: a_k = 1 exactly when i = k + pi[k], except that k = D - 1 never counts
    for Kautz."""
    masks = [0] * (D + 1)
    for k, p in enumerate(pi[: D - 1] if family is Family.KAUTZ else pi):
        masks[k + p] |= 1 << k
    return masks


def layer_star_poly(params: GraphParams, v: Vertex, i: int) -> LayerPolynomial:
    """|S_i*(v)| as a polynomial in d; i = 0 gives the constant 1."""
    return layer_poly_eval(params.family, params.D, v, i)


def layer_poly_eval(family: Family, D: int, v: Vertex, i: int) -> LayerPolynomial:
    if not 0 <= i <= D:
        raise IndexOutOfRange(f"layer index {i} outside [0, {D}]")
    return LayerPolynomial.from_mask(i, layer_masks(family, D, suffix_periods(v))[i])


# ---------------------------------------------------------------------------
# intersection emptiness and the unique forward index
# ---------------------------------------------------------------------------


def intersection_nonempty(params: GraphParams, v: Vertex, w: Vertex, i: int, j: int) -> bool:
    """S_i*(v) cap S_j*(w) != empty for w adjacent from v and i - 1 <= j <= D."""
    report = intersection_report(params, v, w, i)
    if not i - 1 <= j <= params.D:
        raise IndexOutOfRange(f"need i-1 <= j <= D, got j={j}")
    return report.back is not None if j == i - 1 else j == report.forward_j


def unique_j0(params: GraphParams, v: Vertex, w: Vertex, i: int) -> Optional[int]:
    """The unique j0 in [i, D] with S_i*(v) cap S_j0*(w) nonempty, or None."""
    return intersection_report(params, v, w, i).forward_j


# ---------------------------------------------------------------------------
# intersection cardinality polynomials
# ---------------------------------------------------------------------------


class IntersectionCase(Enum):
    SPLIT = "split"  # back and forward both nonempty; cardinalities split the layer
    FORWARD_ONLY = "forward-only"  # back empty, forward at j0 = i equals the layer
    BACK_ONLY = "back-only"  # no forward j; back equals the layer (d = 2 De Bruijn only)


class IntersectionReport(NamedTuple):
    """Cardinality polynomials of S_i*(v) cap S_j*(w) for one arc v -> w and one i.

    back is |S_i*(v) cap S_{i-1}*(w)| and forward is |S_i*(v) cap S_{j0}*(w)|,
    each None when the corresponding set is empty. In the SPLIT case
    back + forward equals the layer polynomial of S_i*(v).
    """

    i: int
    case: IntersectionCase
    back: Optional[LayerPolynomial]
    forward_j: Optional[int]
    forward: Optional[LayerPolynomial]


def forward_rule(
    family: Family, D: int, i: int, a: int, same: int, pi_v: Sequence[int], pi_w: Sequence[int]
) -> Tuple[int, int, int]:
    """(j0, m, t) with |S_i*(v) cap S_j0*(w)| = d^i - sum_{k<i-1} m_k d^k - t d^(i-1) under
    the d >= 3 criteria, for w = v[1:] + x, v's layer mask a at i and same = the bits p
    with v[p] = x. j0 = i - 1 + pi_w[i-1], as w[i-1:] = v[i:] + x. With v_i .. v_D = x
    (De Bruijn) the forward set is the layer; else the bits k of a with v_{D-i+k+1} = x
    go to the back set, and t = a_{i-1} + 1."""
    low, top = a & ((1 << (i - 1)) - 1), a >> (i - 1)
    if family is Family.DEBRUIJN and pi_v[i - 1] == 1 and same >> (D - 1) & 1:
        return i - 1 + pi_w[i - 1], low, top
    return i - 1 + pi_w[i - 1], low & ~(same >> (D - i)), top + 1


def intersection_report_eval(
    family: Family, D: int, pi_v: Sequence[int], pi_w: Sequence[int], masks: List[int], same: int, d2_rules: bool
) -> List[IntersectionReport]:
    """The reports for i = 1 .. D (index i - 1) for w adjacent from v, from the suffix periods
    pi_v, pi_w of v, w, v's layer masks and the bits p with v[p] = w[-1]; d2_rules selects the
    d = 2 criteria, else d >= 3. Where v_i = ... = v_D, exactly for i >= tail (De Bruijn only),
    S_i*(v) cap S_{i-1}*(w) is empty if v_D = w_D (bit D - 1 of same), at any degree; else at
    d = 2 there is no forward j at all."""
    tail = pi_v.index(1) + 1 if family is Family.DEBRUIJN else D + 1
    reports = []
    for i, a in enumerate(masks[1:], 1):
        j0, m, t = forward_rule(family, D, i, a, same, pi_v, pi_w)
        forward = LayerPolynomial.from_mask(i, m, t)
        if i >= tail and same >> (D - 1) & 1:
            assert j0 == i, "empty back intersection forces a forward intersection at j = i"
            reports.append(IntersectionReport(i, IntersectionCase.FORWARD_ONLY, None, i, forward))
        elif i >= tail and d2_rules:
            # a_{i-1} = 1 lets the full layer d^i - d^{i-1} - ... be rewritten with leading term d^{i-1}
            back = LayerPolynomial.from_mask(i - 1, a)
            reports.append(IntersectionReport(i, IntersectionCase.BACK_ONLY, back, None, None))
        else:
            back = LayerPolynomial.from_mask(i - 1, a & ~m)  # from_mask(i - 1, .) keeps bits k < i - 1
            reports.append(IntersectionReport(i, IntersectionCase.SPLIT, back, j0, forward))
    return reports


def intersection_report(params: GraphParams, v: Vertex, w: Vertex, i: int) -> IntersectionReport:
    """Classify and return the intersection cardinality polynomials for one arc."""
    if not is_successor(params, v, w):
        raise NotASuccessor(f"{w} is not adjacent from {v}")
    if not 1 <= i <= params.D:
        raise IndexOutOfRange(f"need 1 <= i <= D, got i={i}")
    family, D, pi_v = params.family, params.D, suffix_periods(v)
    same = sum(1 << p for p, y in enumerate(v) if y == w[-1])
    masks = layer_masks(family, D, pi_v)
    return intersection_report_eval(family, D, pi_v, suffix_periods(w), masks, same, params.d == 2)[i - 1]


def intersection_poly_at(report: IntersectionReport, j: int) -> IntPolynomial:
    """|S_i*(v) cap S_j*(w)| as a polynomial, zero where the intersection is empty."""
    if j == report.i - 1:
        return report.back.to_poly() if report.back is not None else IntPolynomial.zero()
    if report.forward_j is not None and j == report.forward_j:
        return report.forward.to_poly()
    return IntPolynomial.zero()
