"""Exact distance-layer analysis of De Bruijn and Kautz digraphs.

Closed-form layer and intersection cardinalities (polynomials in the degree d),
exact deflection-routing probabilities (rational functions of d), a brute-force
oracle for cross-validation, and a small absorbing-chain evaluator.
"""

from .errors import (
    AlphabetTooSmall,
    ChainDiverges,
    IndexOutOfRange,
    InvalidRange,
    KautzRepeat,
    LayerscopeError,
    LengthMismatch,
    NotASuccessor,
    PoleAtValue,
    SymbolOutOfRange,
    TooLarge,
    ZeroDenominator,
)
from .graphs import (
    ExplicitDigraph,
    Family,
    GraphParams,
    Vertex,
    build_explicit,
    distance,
    format_vertex,
    successors,
    validate_vertex,
)
from .layers import (
    IntersectionCase,
    IntersectionReport,
    LayerPolynomial,
    intersection_nonempty,
    intersection_report,
    layer_star_poly,
    unique_j0,
)
from .polynomials import IntPolynomial, RationalFunction
from .probabilities import (
    DeflectionChain,
    ProbabilityTable,
    build_chain,
    expected_hops,
    hitting_times,
    input_table,
    mean_distance,
    p_in,
    p_in_value,
    p_t,
    p_t_conditional,
    p_t_value,
    transition_table,
)
from .vertex_classes import (
    Pattern,
    VertexClass,
    canonical_pattern,
    enumerate_classes,
)

__version__ = "0.1.0"
