"""Exception types shared across the package."""


class LayerscopeError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(LayerscopeError):
    """Vertex sequence does not have exactly D symbols."""


class SymbolOutOfRange(LayerscopeError):
    """Vertex symbol is outside the alphabet."""


class KautzRepeat(LayerscopeError):
    """Two consecutive symbols of a Kautz vertex are equal."""


class TooLarge(LayerscopeError):
    """A computation exceeds a resource cap (n^2 distance bytes, vertex classes, border arrays or walk hops)."""


class IndexOutOfRange(LayerscopeError):
    """Layer or intersection index outside its legal range."""


class NotASuccessor(LayerscopeError):
    """Second vertex is not adjacent from the first."""


class ZeroDenominator(LayerscopeError):
    """Rational function with zero denominator."""


class PoleAtValue(LayerscopeError):
    """Denominator vanishes at the evaluation point."""


class AlphabetTooSmall(LayerscopeError):
    """Class pattern needs more symbols than the alphabet provides."""


class InvalidRange(LayerscopeError):
    """Probability indices (i, j) outside 1 <= i <= j <= D."""


class ChainDiverges(LayerscopeError):
    """Absorption time of the deflection chain is infinite (deflection probability 1)."""
