"""Exact enumeration and unimodular classification of empty Delta-modular simplices."""

from .atlas import (
    enumerate_atlas,
    eq1_bound,
    normalized_from_dict,
    normalized_to_dict,
    read_atlas,
    record_from_dict,
    record_to_dict,
    system_from_dict,
    system_to_dict,
    write_atlas,
)
from .corner_ilp import (
    CornerSolution,
    GroupTable,
    corner_minimum,
    corner_minimum_excluding_vertex,
    count_minimum_attainers,
    group_table,
)
from .enumeration import (
    FAMILY_EMPTY,
    FAMILY_LATTICE,
    CandidateRecord,
    EmptyRange,
    c0_candidates,
    divisor_tuples,
    enumerate_H,
    enumerate_c,
    enumerate_h,
)
from .equivalence import (
    EquivalenceResult,
    EquivalentSet,
    check_equivalence,
    dedup_families,
    equivalent_normalized_set,
    reduced_permutations,
)
from .errors import (
    DeltaSimplexError,
    InvalidSystemError,
    InvariantViolation,
    NotASimplexError,
    PreconditionError,
    RankError,
    ScaleExceededError,
    ShapeError,
    SingularityError,
)
from .exact_linalg import (
    adjugate,
    det,
    hnf,
    identity,
    is_unimodular,
    matrix,
    solve_rational,
    unimodular_inverse,
    vector,
)
from .normal_form import (
    NormalizedSystem,
    canonical_key,
    key_tuple,
    normalize,
    primitivize,
    reduce_rhs,
    validate_normalized,
)
from .simplex_model import (
    AffineUnimodularMap,
    InequalitySystem,
    SimplexMeta,
    apply_map,
    compose,
    count_integer_points_bruteforce,
    inverse,
    validate_simplex,
)

__version__ = "0.1.0"
