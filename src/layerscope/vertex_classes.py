"""Vertex classes under relabeling of the symbol alphabet.

Two vertices are equivalent when some permutation of the alphabet maps one
word to the other. Each class is identified by its restricted-growth pattern
(first symbol 0, each new symbol one larger than the maximum so far). The
number of classes depends only on the family and D, and the size of a class
with s distinct symbols is a falling factorial in d:

    De Bruijn:  d (d-1) ... (d-s+1)
    Kautz:      (d+1) d (d-1) ... (d-s+2)

which is 0 whenever the concrete alphabet is too small.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import TooLarge
from .graphs import Family, Vertex, alphabet_size
from .polynomials import IntPolynomial

Pattern = Tuple[int, ...]

# enumerate_classes builds at most this many classes, and the P_in search visits at most this many border arrays
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


class VertexClass(NamedTuple):
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


def _patterns(family: Family, D: int, alphabet: int) -> List[Pattern]:
    kautz = family is Family.KAUTZ
    out: List[Pattern] = []
    word = [0] * D

    def extend(pos: int, used: int) -> None:
        if pos == D:
            out.append(tuple(word))
            return
        for s in range(min(used + 1, alphabet)):
            if kautz and s == word[pos - 1]:
                continue
            word[pos] = s
            extend(pos + 1, used if s < used else used + 1)

    word[0] = 0
    extend(1, 1)
    return out


def class_count(family: Family, D: int, alphabet: Optional[int] = None) -> int:
    """Number of classes with at most alphabet symbols (default: all of them, Bell(D)
    for De Bruijn and Bell(D - 1) for Kautz), counted by the number of symbols used."""
    repeat_free = family is Family.KAUTZ  # a Kautz word never repeats its last symbol
    ways = {1: 1}  # prefixes of the current length by their number of symbols
    for _ in range(D - 1):
        nxt: Counter = Counter()
        for used, count in ways.items():
            nxt[used] += (used - repeat_free) * count
            if alphabet is None or used < alphabet:
                nxt[used + 1] += count
        ways = nxt
    return sum(ways.values())


def enumerate_classes(family: Family, D: int, alphabet: Optional[int] = None) -> Tuple[VertexClass, ...]:
    """The classes with at most alphabet symbols (default: all), in lexicographic pattern order.

    The result is cached per (family, D, bound), any bound >= D being no bound,
    and shared by every caller, hence a tuple. More than CLASS_CAP classes raise
    TooLarge before any is built.
    """
    if D < 1:
        raise ValueError(f"diameter D must be >= 1, got {D}")
    return _build_classes(family, D, D if alphabet is None else min(alphabet, D))


@functools.lru_cache(maxsize=None)
def _build_classes(family: Family, D: int, alphabet: int) -> Tuple[VertexClass, ...]:
    count = class_count(family, D, alphabet)
    if count > CLASS_CAP:
        bound = "" if alphabet == D else f" with at most {alphabet} symbols"
        raise TooLarge(f"{family}(d,{D}) has {count:,} vertex classes{bound}, above the cap of {CLASS_CAP:,}")
    return tuple(
        VertexClass(p, family, class_cardinality_poly(family, max(p) + 1)) for p in _patterns(family, D, alphabet)
    )


def classes_realizable(family: Family, D: int, d: int) -> List[VertexClass]:
    """Classes with at least one vertex at concrete degree d >= 2, in a new list. No package code calls it: the
    class sums and verify pass enumerate_classes a class bound. It stays for bench/spans.py's realizable ratio."""
    if d < 2:
        raise ValueError(f"degree d must be >= 2, got {d}")
    return list(enumerate_classes(family, D, alphabet_size(family, d)))
