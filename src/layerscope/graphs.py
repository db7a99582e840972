"""De Bruijn and Kautz digraphs in sequence representation.

A vertex of B(d, D) is a word of D symbols over an alphabet of size d; a vertex
of K(d, D) is a word of D symbols over an alphabet of size d + 1 in which
consecutive symbols differ. In both families v1 v2 ... vD is adjacent to the d
vertices v2 ... vD x (for K, x != vD). Distance has a closed form: d(v, z) is
the smallest k such that the last D - k symbols of v equal the first D - k
symbols of z, and the shortest path between two vertices is unique.

Vertices are plain tuples of ints; symbols are 0 .. alphabet_size - 1.
All functions are pure and all returned collections are in deterministic
(lexicographic / ascending-symbol) order.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import List, NamedTuple, Tuple

from .errors import KautzRepeat, LengthMismatch, SymbolOutOfRange, TooLarge

Vertex = Tuple[int, ...]

APSP_CAP = 2**28  # bytes of all-pairs distances, one per ordered pair


class Family(Enum):
    DEBRUIJN = "B"
    KAUTZ = "K"

    @classmethod
    def parse(cls, text: str) -> "Family":
        key = text.strip().upper()
        if key in ("B", "DEBRUIJN", "DE_BRUIJN"):
            return cls.DEBRUIJN
        if key in ("K", "KAUTZ"):
            return cls.KAUTZ
        raise ValueError(f"unknown family {text!r} (expected 'B' or 'K')")

    def __str__(self) -> str:
        return self.value


def alphabet_size(family: Family, d: int) -> int:
    """Symbols a vertex word draws from: d for De Bruijn, d + 1 for Kautz."""
    return d if family is Family.DEBRUIJN else d + 1


class _Params(NamedTuple):
    family: Family
    d: int
    D: int


class GraphParams(_Params):
    """Family plus degree d >= 2 and diameter D >= 1."""

    __slots__ = ()

    def __new__(cls, family: Family, d: int, D: int):
        if d < 2:
            raise ValueError(f"degree d must be >= 2, got {d}")
        if D < 1:
            raise ValueError(f"diameter D must be >= 1, got {D}")
        return super().__new__(cls, family, d, D)

    @property
    def alphabet_size(self) -> int:
        return alphabet_size(self.family, self.d)

    @property
    def vertex_count(self) -> int:
        n = self.d**self.D
        if self.family is Family.KAUTZ:
            n += self.d ** (self.D - 1)
        return n

    def __str__(self) -> str:
        return f"{self.family}({self.d},{self.D})"


def vertex_count_poly(family: Family, D: int):
    """|V| as a polynomial in d: d^D for De Bruijn, d^D + d^(D-1) for Kautz."""
    from .polynomials import IntPolynomial

    p = IntPolynomial.monomial(D)
    if family is Family.KAUTZ:
        p = p + IntPolynomial.monomial(D - 1)
    return p


def validate_vertex(params: GraphParams, raw) -> Vertex:
    """Check length, symbol range and the Kautz no-repeat rule; returns the vertex tuple."""
    v = tuple(int(s) for s in raw)
    if len(v) != params.D:
        raise LengthMismatch(f"expected {params.D} symbols, got {len(v)}")
    size = params.alphabet_size
    for s in v:
        if not 0 <= s < size:
            raise SymbolOutOfRange(f"symbol {s} outside [0, {size})")
    if params.family is Family.KAUTZ:
        for a, b in zip(v, v[1:]):
            if a == b:
                raise KautzRepeat(f"consecutive equal symbols in Kautz vertex {format_vertex(params, v)}")
    return v


def successors(params: GraphParams, v: Vertex) -> List[Vertex]:
    """The d vertices v2 ... vD x, ascending in the appended symbol x."""
    shifted = v[1:]
    if params.family is Family.DEBRUIJN:
        return [shifted + (x,) for x in range(params.alphabet_size)]
    last = v[-1]
    return [shifted + (x,) for x in range(params.alphabet_size) if x != last]


def is_successor(params: GraphParams, v: Vertex, w: Vertex) -> bool:
    if len(w) != params.D or w[: params.D - 1] != v[1:]:
        return False
    if params.family is Family.DEBRUIJN:
        return True
    return w[-1] != v[-1]


def distance(params: GraphParams, v: Vertex, z: Vertex) -> int:
    """Smallest k in [0, D] with v[k:] == z[:D-k].

    k = D (empty overlap) is always a valid stopping point: in B a walk of
    length D exists between any two vertices, and in K the k = D walk needs
    z1 != vD, which holds whenever k = D - 1 did not already match.
    """
    D = params.D
    for k in range(D + 1):
        if v[k:] == z[: D - k]:
            return k
    raise AssertionError("unreachable: k = D always matches")


def distance_row(params: GraphParams, v: Vertex) -> bytearray:
    """`distance` from v to every vertex, one byte each in build_explicit id order.

    The z with z[:D-k] == v[k:] are the d^k ids from rank(v[k:]) * d^k (rank: base d
    for B; for K the first symbol, then digits s - (s > prev)). Writing k = D-1
    down to 0 over its block leaves the smallest matching k."""
    d, D = params.d, params.D
    kautz = params.family is Family.KAUTZ
    row = bytearray([D]) * params.vertex_count
    for k in range(D - 1, -1, -1):
        rank = v[k]
        for prev, s in zip(v[k:], v[k + 1 :]):
            rank = rank * d + s - (kautz and s > prev)
        row[rank * d**k : (rank + 1) * d**k] = bytes([k]) * d**k
    return row


def landing_row(params: GraphParams, z: Vertex) -> bytes:
    """Entry (r-1)*(d-1) + k: the distance to z after a packet at distance r >= 1 takes the k-th of
    its d - 1 out-links off the shortest path (`successors` order). Its word ends with z[:m], m = D - r,
    so appending x lands at D - step[m][x], the longest prefix of z ending z[:m] + (x,): z's
    Knuth-Morris-Pratt automaton. K skips x = z[m-1] too; at m = 0 that is unknown, but all land at D."""
    d, D, kautz = params.d, params.D, params.family is Family.KAUTZ
    step, border, blocks = [], 0, []
    for m, s in enumerate(z):
        step.append(step[border][:] if m else [0] * params.alphabet_size)
        xs = [x for x in range(params.alphabet_size) if x != s and not (kautz and m and x == z[m - 1])]
        blocks.append(bytes(D - step[m][x] for x in xs[: d - 1]))
        step[m][s], border = m + 1, step[border][s] if m else 0
    return b"".join(reversed(blocks))  # r = 1 .. D


class ExplicitDigraph:
    """Materialized vertex and adjacency lists for one concrete (d, D): succ[i] lists the vertex ids
    adjacent from vertices[i], index maps a vertex tuple to its id. Immutable after construction, so
    safe for concurrent reads, and equal only to itself: never hashed or compared by value."""

    __slots__ = ("params", "vertices", "succ", "index")

    def __init__(self, params: GraphParams, vertices: Tuple[Vertex, ...], succ: tuple, index: dict):
        for name, value in zip(self.__slots__, (params, vertices, succ, index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to {name!r}: ExplicitDigraph is immutable")

    __delattr__ = __setattr__  # value defaults, so del g.name raises too


def _enumerate_vertices(params: GraphParams) -> List[Vertex]:
    """All valid vertices in lexicographic order, extended one symbol per level."""
    size, kautz = params.alphabet_size, params.family is Family.KAUTZ
    words = [(s,) for s in range(size)]
    for _ in range(params.D - 1):
        words = [w + (x,) for w in words for x in range(size) if not (kautz and x == w[-1])]
    return words


def build_explicit(params: GraphParams) -> ExplicitDigraph:
    """Materialize the digraph. Every caller goes on to n^2 distance bytes (BFS table or walk
    rows), so graphs above APSP_CAP raise TooLarge before any vertex is enumerated."""
    n = params.vertex_count
    if n**2 > APSP_CAP:
        raise TooLarge(f"{params} needs n^2 = {n**2:,} bytes, above the APSP cap of {APSP_CAP:,}")
    vertices = tuple(_enumerate_vertices(params))
    assert len(vertices) == n
    index = {v: i for i, v in enumerate(vertices)}
    succ = tuple(tuple(index[w] for w in successors(params, v)) for v in vertices)
    return ExplicitDigraph(params=params, vertices=vertices, succ=succ, index=index)


def bfs_distances(g: ExplicitDigraph, source_id: int) -> bytearray:
    """Distances from one source over the explicit adjacency, as a byte per vertex."""
    dist = bytearray(b"\xff" * len(g.vertices))
    dist[source_id] = 0
    queue = deque([source_id])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.succ[u]:
            if dist[w] == 255:
                dist[w] = du + 1
                queue.append(w)
    return dist


def format_vertex(params: GraphParams, v: Vertex) -> str:
    """Symbols joined bare for alphabets up to 10 symbols, '.'-separated beyond."""
    if params.alphabet_size <= 10:
        return "".join(str(s) for s in v)
    return ".".join(str(s) for s in v)


def split_symbols(text: str) -> List[int]:
    """The symbols of a word written bare (0102) or '.'-separated (0.1.10)."""
    if "." in text:
        return [int(part) for part in text.split(".")]
    return [int(ch) for ch in text]

