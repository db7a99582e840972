"""Exact polynomial and rational-function arithmetic."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscope import polynomials
from layerscope.errors import PoleAtValue, ZeroDenominator
from layerscope.polynomials import IntPolynomial, RationalFunction, _divmod_int, _unpack, poly_gcd

P = IntPolynomial


def poly(*descending):
    return P(tuple(reversed(descending)))


def test_add_sub_mul_basics():
    d2m1 = poly(1, 0, -1)  # d^2 - 1
    assert d2m1 + P.one() == poly(1, 0, 0)
    assert poly(1, -1) * poly(1, 1) == d2m1
    # (d^4 - d) - (d^3 - d) = d^4 - d^3
    assert poly(1, 0, 0, -1, 0) - poly(1, 0, -1, 0) == poly(1, -1, 0, 0, 0)


def test_trailing_zeros_stripped_and_zero():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P((0, 0)).is_zero
    assert P(()).degree == -1
    assert (P((1,)) - P((1,))).is_zero


def test_evaluate_horner():
    p = poly(2, -3, 0, 5)  # 2d^3 - 3d^2 + 5
    assert p.evaluate(4) == 2 * 64 - 3 * 16 + 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(2, 8) - Fraction(3, 4) + 5


def test_format_descending():
    assert str(poly(1, 0, -1)) == "d^2 - 1"
    assert str(poly(1, -1, 0, 0, 0)) == "d^4 - d^3"
    assert str(P.zero()) == "0"
    assert str(poly(-2, 3)) == "-2*d + 3"
    assert str(P.one()) == "1"


def test_poly_gcd_primitive():
    a = poly(1, 0, -1)  # (d-1)(d+1)
    b = poly(1, -2, 1)  # (d-1)^2
    assert poly_gcd(a, b)[0] == poly(1, -1)
    # contents are ignored
    assert poly_gcd(poly(2, 0), poly(4))[0] == P.one()
    assert poly_gcd(P.zero(), b)[0] == b


def _prs_gcd(a, b):
    """poly_gcd with the heuristic giving up: the pseudo-remainder sequence alone."""
    with mock.patch.object(polynomials, "_heu_gcd", lambda a, b: None):
        return poly_gcd(a, b)


def test_poly_gcd_fallback_keeps_the_primitive_answers():
    a = poly(1, 0, -1)
    b = poly(1, -2, 1)
    assert _prs_gcd(a, b)[0] == poly(1, -1)
    assert _prs_gcd(poly(2, 0), poly(4))[0] == P.one()
    assert _prs_gcd(P.zero(), b)[0] == b


def test_poly_gcd_heuristic_outgrows_a_large_spurious_factor(monkeypatch):
    # a/g and b/g are squares of four consecutive-integer products, so their
    # values share at least 4!^2 at every point: the first candidate is wrong,
    # and a fixed growth factor 73794/27011 would give up after six points
    def no_fallback(a, b):
        raise AssertionError("the pseudo-remainder fallback ran")

    monkeypatch.setattr(polynomials, "_pseudo_rem", no_fallback)
    d, g = P.monomial(1), poly(1, 2)

    def four_from(k):
        out = P.one()
        for i in range(k, k + 4):
            out = out * (d - P.constant(i))
        return out

    a, b = four_from(0), four_from(4)
    assert poly_gcd(g * a * a, g * b * b)[0] == g


@pytest.mark.parametrize(
    "a, b, points",
    [
        # gcd 1 each time, but the first evaluation points share a factor
        # whose base-xi digits read as a polynomial that divides neither input
        (poly(1, -1, 0, 1), poly(1, 1, 1), 2),
        (poly(-1, -3, -3), poly(-3, -2), 3),
        (poly(2, 0, -2, 0), poly(4, 0, 1, 1, 3), 4),
    ],
)
def test_poly_gcd_heuristic_retries_at_a_larger_point(monkeypatch, a, b, points):
    evaluated = []
    evaluate = P.evaluate
    monkeypatch.setattr(P, "evaluate", lambda p, x: evaluated.append(x) or evaluate(p, x))
    assert poly_gcd(a, b)[0] == P.one() == _prs_gcd(a, b)[0]
    assert len(evaluated) == 2 * points and len(set(evaluated)) == points


def test_rf_canonical_cancellation():
    rf = RationalFunction(poly(1, 0, -1), poly(1, -1))
    assert rf == RationalFunction(poly(1, 1), P.one())
    assert rf.format() == "d + 1"
    # content reduction: 2d / 4 -> d / 2
    assert RationalFunction(poly(2, 0), poly(4)).format() == "d / 2"
    # (d^4 - d^3) / (d^4 - d) -> d^2 / (d^2 + d + 1)
    rf = RationalFunction(poly(1, -1, 0, 0, 0), poly(1, 0, 0, -1, 0))
    assert rf.format() == "d^2 / (d^2 + d + 1)"


def test_rf_sign_normalization():
    rf = RationalFunction(poly(1), poly(-1, 0))  # 1 / (-d)
    assert rf.den.leading > 0
    assert rf.format() == "-1 / d"


def test_rf_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RationalFunction(P.one(), P.zero())


def test_rf_field_ops_and_identities():
    a = RationalFunction(poly(1, 2), poly(1, 0, 1))
    zero = RationalFunction.zero()
    one = RationalFunction.one()
    assert a + zero == a
    assert a * one == a
    assert a * (one / a) == one
    assert a - a == zero
    assert zero.format() == "0"


def test_rf_chain_reproduces_known_simplification():
    # (1/(d-1)) * ((d^4-d^3)/(d^4-d)) * (1 - (d^3-d)/(d^4-d))
    #   = d^4 / (d^5 + d^4 + d^3 - d^2 - d - 1)
    dm1 = RationalFunction(P.one(), poly(1, -1))
    left = RationalFunction(poly(1, -1, 0, 0, 0), poly(1, 0, 0, -1, 0))
    right = RationalFunction.one() - RationalFunction(poly(1, 0, -1, 0), poly(1, 0, 0, -1, 0))
    out = dm1 * left * right
    assert out.format() == "d^4 / (d^5 + d^4 + d^3 - d^2 - d - 1)"


def test_rf_eval_exact_and_pole():
    rf = RationalFunction(poly(1, 0, 0, 0, -1), poly(1, 1, 0, 0, -1, 0, 0))
    # (d^4 - 1) / (d^6 + d^5 - d^2) at d = 2 -> 15/92
    assert rf.evaluate(2) == Fraction(15, 92)
    assert RationalFunction(P.monomial(1), P.one()).evaluate(3) == 3
    # cancellation removes the apparent pole of (d^2-1)/(d-1) at d = 1
    assert RationalFunction(poly(1, 0, -1), poly(1, -1)).evaluate(1) == 2
    with pytest.raises(PoleAtValue):
        RationalFunction(P.one(), poly(1, -2)).evaluate(2)


def test_format_parenthesization():
    assert RationalFunction(P.monomial(1), poly(1, 1, 0, 0, -1)).format() == "d / (d^4 + d^3 - 1)"
    assert RationalFunction(poly(1, -1), poly(1, 0, 0, 0)).format() == "(d - 1) / d^3"


def test_json_round_trip():
    rf = RationalFunction(poly(1, 0, -2, 1), poly(3, 0, 0, 0, -1))
    again = RationalFunction.from_json(rf.to_json())
    assert again == rf


def test_random_ring_and_eval_properties():
    rng = random.Random(20240811)

    def rand_poly():
        return P(tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 6))))

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        x = rng.randint(-5, 5)
        assert (a * b + c).evaluate(x) == a.evaluate(x) * b.evaluate(x) + c.evaluate(x)


def test_random_rf_canonicalization_stable():
    rng = random.Random(7)

    def rand_poly(nonzero=False):
        while True:
            p = P(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5))))
            if not nonzero or not p.is_zero:
                return p

    for _ in range(120):
        num, den = rand_poly(), rand_poly(nonzero=True)
        rf = RationalFunction(num, den)
        # canonicalization is idempotent
        assert RationalFunction(rf.num, rf.den) == rf
        # evaluation agrees with the raw quotient wherever defined
        for x in (2, 3, 5):
            if den.evaluate(x) != 0 and rf.den.evaluate(x) != 0:
                assert rf.evaluate(x) == Fraction(num.evaluate(x), den.evaluate(x))
        # arithmetic results come back canonical as well
        s = rf + rf
        assert RationalFunction(s.num, s.den) == s


# properties on random polynomials, derandomized and without an example database
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_polys = st.lists(st.integers(-6, 6), max_size=6).map(P)
_nonzero = _polys.filter(lambda p: not p.is_zero)


@_PROPERTY
@given(_polys, _nonzero, _nonzero)
def test_rf_canonical_form_ignores_common_factor(num, den, factor):
    rf = RationalFunction(num, den)
    scaled = RationalFunction(num * factor, den * factor)
    assert scaled == rf and scaled.format() == rf.format()


@_PROPERTY
@given(_polys, _nonzero)
def test_rf_json_round_trip_keeps_value_and_hash(num, den):
    rf = RationalFunction(num, den)
    again = RationalFunction.from_json(rf.to_json())
    assert again == rf and hash(again) == hash(rf)


@_PROPERTY
@given(_polys, _nonzero, st.integers(-8, 8))
def test_rf_evaluate_matches_raw_quotient(num, den, x):
    if den.evaluate(x) != 0:
        assert RationalFunction(num, den).evaluate(x) == Fraction(num.evaluate(x), den.evaluate(x))


_factors = st.lists(st.integers(-9, 9), max_size=5).map(P)  # zero and constants included
_contents = st.integers(-6, 6).filter(bool)


@_PROPERTY
@given(_factors, _factors, _factors, _contents, _contents)
def test_poly_gcd_matches_pseudo_remainder_reference(a, b, g, ka, kb):
    # common factor g, contents ka, kb and leading coefficients of either sign
    a, b = a * g * ka, b * g * kb
    got = poly_gcd(a, b)[0]
    assert got == _prs_gcd(a, b)[0]
    if not (a.is_zero and b.is_zero):
        assert got.leading > 0 and got.content() == 1
        for p in (a, b):
            assert _divmod_int(p, got)[1] == P.zero()
        if not g.is_zero:
            assert _divmod_int(got, g.primitive())[1] == P.zero()


@_PROPERTY
@given(_factors, _factors, _factors, _contents, _contents)
def test_poly_gcd_returns_the_cofactors_of_the_primitive_parts(a, b, g, ka, kb):
    a, b = a * g * ka, b * g * kb
    got = poly_gcd(a, b)
    g, ra, rb = got
    assert g * ra == a.primitive() and g * rb == b.primitive()
    if not (a.is_zero and b.is_zero):
        assert poly_gcd(ra, rb)[0] == P.one()
    # the heuristic's proof quotients and the fallback's exact divisions agree
    assert got == _prs_gcd(a, b)


def _divide_then_content(num, den):
    """Reference canonical form: divide num and den by their gcd, then by the gcd of their
    contents, then make den's leading coefficient positive."""
    if num.is_zero:
        return P.zero(), P.one()
    g = _prs_gcd(num, den)[0]
    num, den = _divmod_int(num, g)[0], _divmod_int(den, g)[0]
    c = math.gcd(num.content(), den.content())
    num, den = P(x // c for x in num.coeffs), P(x // c for x in den.coeffs)
    return (-num, -den) if den.leading < 0 else (num, den)


@_PROPERTY
@given(_factors, _factors.filter(bool), _factors, _contents, _contents)
def test_rf_matches_the_divide_then_content_reference(num, den, g, kn, kd):
    num, den = num * g * kn, den * (g or P.one()) * kd
    rf = RationalFunction(num, den)
    assert (rf.num, rf.den) == _divide_then_content(num, den)


def test_rf_divides_by_a_shared_factor_once(monkeypatch):
    calls = []
    for name in ("poly_gcd", "_divmod_int"):
        fn = getattr(polynomials, name)
        monkeypatch.setattr(polynomials, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rf = RationalFunction(poly(1, 0, -1), poly(1, -1))  # (d - 1)(d + 1) / (d - 1)
    # the gcd's own proof divides each side once; nothing divides again
    assert calls == ["poly_gcd", "_divmod_int", "_divmod_int"]
    assert (rf.num, rf.den) == (poly(1, 1), P.one())


# Kronecker substitution: packing is evaluate(1 << bits), unpacking reads balanced digits
_coeff_lists = st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80)), max_size=10)


@_PROPERTY
@given(_coeff_lists, st.integers(0, 3), st.integers(0, 40))
def test_unpack_inverts_packing_below_half_the_base(coeffs, trailing_zeros, slack):
    coeffs = coeffs + [0] * trailing_zeros
    bits = max(map(abs, coeffs), default=0).bit_length() + 1 + slack  # 2^(bits - 1) > max |c|
    assert _unpack(P(coeffs).evaluate(1 << bits), bits) == P(coeffs)
    assert _unpack(0, bits) == P.zero()


def test_unpack_needs_coefficients_below_half_the_base():
    # a coefficient of 2^(bits - 1) reads back as -2^(bits - 1) with a carry into the next digit
    bits = 8
    coeffs = (3, -5, 1 << (bits - 1))
    assert _unpack(P(coeffs).evaluate(1 << bits), bits) == P((3, -5, -(1 << (bits - 1)), 1)) != P(coeffs)
