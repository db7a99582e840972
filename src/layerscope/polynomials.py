"""Exact integer-coefficient polynomials in the degree d, and canonical rational functions.

Everything here is exact: coefficients are Python ints (arbitrary precision) and
evaluation returns `fractions.Fraction`. Rational functions are kept in a canonical
form so that two equal functions always compare and print identically:

  * numerator and denominator share no polynomial factor,
  * gcd of the integer contents is 1,
  * the denominator has a positive leading coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PoleAtValue, ZeroDenominator


class IntPolynomial:
    """Dense univariate polynomial over the integers.

    Coefficients are stored ascending by power (`coeffs[k]` multiplies d^k) with
    trailing zeros stripped; the zero polynomial has an empty coefficient tuple.
    Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int) -> "IntPolynomial":
        return cls((0,) * power + (1,))

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x) :
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- content / gcd machinery ---------------------------------------

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; sign of coefficients is preserved."""
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial(tuple(a // c for a in self.coeffs))

    def divides_exactly(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division self / divisor; raises if the division has a remainder."""
        q, r = _divmod_int(self, divisor)
        if r is None or not r.is_zero:
            raise ArithmeticError("polynomial division is not exact")
        return q

    # -- formatting -----------------------------------------------------

    def format(self) -> str:
        """Human-readable form with descending powers, e.g. 'd^4 - d^2 - 1'."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                term = str(mag)
            elif power == 1:
                term = "d" if mag == 1 else f"{mag}*d"
            else:
                term = f"d^{power}" if mag == 1 else f"{mag}*d^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    @property
    def term_count(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"IntPolynomial({self.format()!r})"

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        return cls(tuple(int(c) for c in coeffs))


def _divmod_int(num: IntPolynomial, den: IntPolynomial):
    """Long division over Q restricted to integer quotients.

    Returns (q, r) with num = q*den + r when every quotient coefficient is an
    integer, else (None, None).
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num.coeffs)
    dlead = den.leading
    ddeg = den.degree
    q = [0] * max(len(r) - ddeg, 0)
    for k in range(len(r) - 1, ddeg - 1, -1):
        if r[k] == 0:
            continue
        if r[k] % dlead != 0:
            return None, None
        f = r[k] // dlead
        q[k - ddeg] = f
        for t, c in enumerate(den.coeffs):
            r[k - ddeg + t] -= f * c
    return IntPolynomial(q), IntPolynomial(r)


def _unpack(value: int, bits: int) -> IntPolynomial:
    """The polynomial with value `value` at 2^bits and coefficients in [-2^(bits-1), 2^(bits-1)),
    from balanced base-2^bits digits: inverts `evaluate(1 << bits)` when every |c| < 2^(bits-1)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        value = (value - c) >> bits
    return IntPolynomial(digits)


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder of a by b: rem(lc(b)^(deg a - deg b + 1) * a, b), exact over Z by that scale."""
    return _divmod_int(a * b.leading ** (a.degree - b.degree + 1), b)[1]


def _heu_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """GCDHEU on primitive a, b of degree >= 1: their gcd up to sign, or None.

    Evaluates both at an integer xi, takes the integer gcd h of the values and
    reads a candidate g back from the balanced base-xi digits of h. With
    xi >= 2 min(|a|, |b|) + 2 (max-norms), g is the gcd whenever its primitive
    part divides a and b exactly (Char, Geddes and Gonnet, J. Symbolic Comput.
    7, 1989, Thm. 1), so a returned g is never a guess. Else xi grows by
    73794 xi^(1/4) / 27011, as in SymPy's `dup_zz_heu_gcd`, up to six tries:
    the paper's fixed factor 73794/27011 gives up on some inputs of degree
    364-389 in the B(d,9) table, which this rule settles within four points.
    """
    xi = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 2
    for _ in range(6):
        # the smaller-norm input has no root at xi (Cauchy bound), so h > 0
        h = math.gcd(a.evaluate(xi), b.evaluate(xi))
        digits = []
        while h:
            c = h % xi
            if c > xi // 2:
                c -= xi
            digits.append(c)
            h = (h - c) // xi
        g = IntPolynomial(digits).primitive()
        # the remainder is None when a quotient coefficient is not an integer
        if all(_divmod_int(p, g)[1] == IntPolynomial.zero() for p in (a, b)):
            return g
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial gcd with positive leading coefficient.

    Two non-constant inputs go first to the heuristic gcd `_heu_gcd`
    (GCDHEU): one big-integer gcd of the values at xi >= 2 min(|a|, |b|) + 2,
    whose candidate is accepted only when it divides both inputs exactly, which
    proves it is the gcd. When it gives up, or an input is zero or constant,
    the primitive pseudo-remainder sequence runs, so all arithmetic stays in Z.
    Integer contents are ignored: gcd(2d, 4) is 1, not 2.
    """
    if a.is_zero and b.is_zero:
        return IntPolynomial.zero()
    a = a.primitive()
    b = b.primitive()
    g = _heu_gcd(a, b) if a.degree > 0 and b.degree > 0 else None
    if g is None:
        while not b.is_zero:
            if a.degree < b.degree:
                a, b = b, a
                continue
            a, b = b, _pseudo_rem(a, b).primitive()
        g = a
    if g.leading < 0:
        g = -g
    return g


class RationalFunction:
    """Quotient of two IntPolynomials in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPolynomial, den: IntPolynomial):
        """Build and canonicalize num/den; raises ZeroDenominator when den = 0."""
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", IntPolynomial.zero())
            object.__setattr__(self, "den", IntPolynomial.one())
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divides_exactly(g)
            den = den.divides_exactly(g)
        c = math.gcd(num.content(), den.content())
        if c > 1:
            num = IntPolynomial(tuple(a // c for a in num.coeffs))
            den = IntPolynomial(tuple(a // c for a in den.coeffs))
        if den.leading < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RationalFunction":
        return cls(IntPolynomial.constant(n), IntPolynomial.one())

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls.from_int(0)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls.from_int(1)

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- evaluation / formatting ----------------------------------------

    def evaluate(self, d_value: int) -> Fraction:
        """Exact value at an integer d; raises PoleAtValue when the canonical denominator vanishes."""
        dv = self.den.evaluate(d_value)
        if dv == 0:
            raise PoleAtValue(f"denominator vanishes at d={d_value}")
        return Fraction(self.num.evaluate(d_value), dv)

    def format(self) -> str:
        """Canonical display form, e.g. '(d - 1) / d^3' or 'd^2 - 1'."""
        if self.den == IntPolynomial.one():
            return self.num.format()
        num_s = self.num.format()
        den_s = self.den.format()
        if self.num.term_count > 1:
            num_s = f"({num_s})"
        if self.den.term_count > 1:
            den_s = f"({den_s})"
        return f"{num_s} / {den_s}"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RationalFunction({self.format()!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(IntPolynomial.from_json(data["num"]), IntPolynomial.from_json(data["den"]))
