"""Exact arithmetic for the Kostka semigroup.

Pairs of partitions (lambda, mu) with K(lambda, mu) > 0 form the
lattice points of a rational cone in 2r coordinates.  This package
computes canonical 0/1 matrices for such pairs, reducibility
certificates (by column subsets, by a planar arc graph, and by complete
decomposition search), Hilbert bases and extremal rays at small rank,
subset-sum reduction instances, generalized Catalan sequence
statistics, and Littlewood-Richardson coefficients for a family of
wide triples.
"""

from .errors import (
    AssertionFailure,
    InconsistentExtremalityTests,
    InvalidInstance,
    InvalidPair,
    InvalidPartition,
    InvalidSequence,
    InvalidTriple,
    KostkaError,
    LengthCapExceeded,
    MalformedStarMatrix,
    NotAWitness,
    RankCapExceeded,
    RefusedInput,
    ShapeError,
    SizeCapExceeded,
    WidthCapExceeded,
)
from .partitions import (
    KostkaPair,
    Partition,
    as_partition,
    conjugate,
    dominates,
    in_kostka_cone,
    kostka_count,
    kostka_positive,
    parse_partition,
)
from .ryser import (
    CanonicalMatrix,
    DeleteColumn,
    ShapeSequence,
    ShortenAndDelete,
    ShortenRightmost,
    StarMatrix,
    fixing_chain,
    matrix_reducible,
    ryser_canonical,
    shape_sequence,
    split_pair,
    star_matrix,
)
from .kgr import (
    FastReduction,
    KgrGraph,
    SubtreeWitness,
    Vertex,
    build_graph,
    fast_reducibility,
    find_conservative_subtree,
    is_connected,
    verify_subtree,
)
from .cone import (
    AuditReport,
    BasisCatalog,
    RaySpec,
    decompose,
    extremal_rays,
    hilbert_basis,
    is_extremal,
    load_catalog,
    primitive_point,
    width_bound_audit,
)
from .sequences import (
    CatalanSeq,
    catalan_reducible,
    cost,
    kim_theorem_check,
)
from .subsetsum import (
    SubsetSumInstance,
    reduce_to_kostka,
    reduction_equivalence_check,
    subset_sum_oracle,
)
from .lr import (
    LrTriple,
    counterexample_family,
    growth_table,
    lr_coefficient,
    verify_counterexample,
)

__version__ = "0.1.0"
