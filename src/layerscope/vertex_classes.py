"""Vertex classes under relabeling of the symbol alphabet.

Two vertices are equivalent when some permutation of the alphabet maps one
word to the other. Each class is identified by its restricted-growth pattern
(first symbol 0, each new symbol one larger than the maximum so far). The
number of classes depends only on the family and D, and the size of a class
with s distinct symbols is a falling factorial in d:

    De Bruijn:  d (d-1) ... (d-s+1)
    Kautz:      (d+1) d (d-1) ... (d-s+2)

which correctly evaluates to 0 whenever the concrete alphabet is too small.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import AlphabetTooSmall, TooLarge
from .graphs import Family, GraphParams, Vertex
from .polynomials import IntPolynomial

Pattern = Tuple[int, ...]

# enumerate_classes refuses to build more classes than this
CLASS_CAP = 1_000_000


def canonical_pattern(v: Vertex) -> Pattern:
    """Rename symbols by first occurrence: gamma alpha gamma beta -> 0 1 0 2."""
    names: Dict[int, int] = {}
    out = []
    for s in v:
        if s not in names:
            names[s] = len(names)
        out.append(names[s])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def class_cardinality_poly(family: Family, s: int) -> IntPolynomial:
    """Number of vertices sharing one pattern with s distinct symbols, as a polynomial in d."""
    start = 0 if family is Family.DEBRUIJN else 1
    poly = IntPolynomial.one()
    for t in range(s):
        # factor (d + start - t)
        poly = poly * IntPolynomial((start - t, 1))
    return poly


@dataclass(frozen=True, slots=True)
class VertexClass:
    pattern: Pattern
    family: Family
    cardinality: IntPolynomial

    @property
    def s(self) -> int:
        """Number of distinct symbols in the pattern."""
        return max(self.pattern) + 1

    def label(self) -> str:
        if self.s <= 10:
            return "".join(str(c) for c in self.pattern)
        return ".".join(str(c) for c in self.pattern)

    def to_json(self) -> dict:
        return {"pattern": self.label(), "s": self.s, "cardinality": self.cardinality.to_json()}


def _patterns(family: Family, D: int) -> List[Pattern]:
    kautz = family is Family.KAUTZ
    out: List[Pattern] = []
    word = [0] * D

    def extend(pos: int, used: int) -> None:
        if pos == D:
            out.append(tuple(word))
            return
        for s in range(used + 1):
            if kautz and s == word[pos - 1]:
                continue
            word[pos] = s
            extend(pos + 1, used if s < used else used + 1)

    word[0] = 0
    extend(1, 1)
    return out


def class_count(family: Family, D: int) -> int:
    """Number of classes, Bell(D) for De Bruijn and Bell(D - 1) for Kautz, from
    the Bell triangle."""
    row = [1]
    for _ in range(D if family is Family.DEBRUIJN else D - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@functools.lru_cache(maxsize=None)
def enumerate_classes(family: Family, D: int) -> Tuple[VertexClass, ...]:
    """All classes for the family and diameter, in lexicographic pattern order.

    Patterns with more symbols than a given concrete alphabet are included;
    their cardinality polynomial vanishes there. The result is cached per
    (family, D) and shared by every caller, hence a tuple. More than
    CLASS_CAP classes raise TooLarge before any is built.
    """
    if D < 1:
        raise ValueError(f"diameter D must be >= 1, got {D}")
    count = class_count(family, D)
    if count > CLASS_CAP:
        raise TooLarge(f"{family}(d,{D}) has {count:,} vertex classes, above the cap of {CLASS_CAP:,}")
    return tuple(
        VertexClass(
            pattern=p,
            family=family,
            cardinality=class_cardinality_poly(family, max(p) + 1),
        )
        for p in _patterns(family, D)
    )


def n_s_counts(family: Family, D: int) -> Dict[int, int]:
    """Histogram: number of classes for each symbol count s."""
    return dict(sorted(Counter(c.s for c in enumerate_classes(family, D)).items()))


def classes_csv_rows(family: Family, D: int) -> List[List[str]]:
    """Rows (pattern, s, cardinality polynomial) for CSV export."""
    return [[c.label(), str(c.s), str(c.cardinality)] for c in enumerate_classes(family, D)]


def representative(c: VertexClass, params: GraphParams) -> Vertex:
    """The pattern read as a vertex over symbols 0 .. s-1."""
    if c.s > params.alphabet_size:
        raise AlphabetTooSmall(
            f"pattern {c.label()} needs {c.s} symbols, alphabet has {params.alphabet_size}"
        )
    return c.pattern


@functools.lru_cache(maxsize=None)
def _classes_within(family: Family, D: int, alphabet: int) -> Tuple[VertexClass, ...]:
    return tuple(c for c in enumerate_classes(family, D) if c.s <= alphabet)


def classes_realizable(family: Family, D: int, d: int) -> List[VertexClass]:
    """Classes with at least one vertex at concrete degree d, in a new list.

    The filtered classes are cached per (family, D, alphabet size).
    """
    return list(_classes_within(family, D, d if family is Family.DEBRUIJN else d + 1))
