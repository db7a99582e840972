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
    RegimeRequired,
    SameVertex,
    SymbolOutOfRange,
    TooLarge,
    VertexNotInGraph,
    ZeroDenominator,
)
from .graphs import (
    DEFAULT_VERTEX_CAP,
    ExplicitDigraph,
    Family,
    GraphParams,
    Vertex,
    bfs_layers,
    build_explicit,
    distance,
    format_vertex,
    parse_vertex,
    shortest_path,
    successors,
    validate_vertex,
)
from .layers import (
    IntersectionCase,
    IntersectionReport,
    LayerPolynomial,
    gamma_plus,
    gamma_star,
    intersection_nonempty,
    intersection_report,
    layer_star_poly,
    s_contains,
    s_ki_nonempty,
    unique_j0,
)
from .polynomials import IntPolynomial, RationalFunction
from .probabilities import (
    SYMBOLIC_ALL_D,
    SYMBOLIC_D_GE_3,
    AsymptoticProbe,
    DeflectionChain,
    ProbabilityTable,
    asymptotic_check,
    build_chain,
    expected_hops,
    hitting_times,
    input_table,
    mean_distance,
    p_in,
    p_in_conditional,
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
    n_s_counts,
    representative,
)

__version__ = "0.1.0"
