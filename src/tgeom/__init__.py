"""T-geometry over finite σ-spaces.

A σ-space is a finite point set together with a world function: a real
value for every ordered point pair, zero on the diagonal. This package
builds and validates such spaces (explicit tables, Euclidean coordinate
grids, grids with deleted points), computes the scalar product of
anchored point-pair vectors, decides vector equivalence, performs the
linear operations that exist in every space, and exhaustively solves
general linear combinations, including surveys of how point deletion
erodes linearity while the minimal structure survives.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ChainMismatch,
    DimensionMismatch,
    DuplicateEntry,
    DuplicateLabel,
    EmptySpace,
    InvalidLabel,
    InvalidTolerance,
    MissingEntry,
    NonFiniteValue,
    NonzeroDiagonal,
    NotGuaranteed,
    OracleLimitExceeded,
    SearchLimitExceeded,
    TableParseError,
    TgeomError,
    UnknownPoint,
)
from .space import (
    DEFAULT_TOLERANCE,
    GridSpec,
    PointId,
    SigmaSpace,
    as_table,
    build_coordinate_space,
    build_finite_table,
    build_grid_space,
    euclidean_sigma,
    grid_label,
    is_symmetric,
    perturb_table,
)
from .vectors import (
    ALL_IDENTITIES,
    IDENTITY_CHECK_LIMIT,
    IdentityReport,
    IdentityViolation,
    Vector,
    norm_squared,
    scalar_product,
    verify_identities,
)
from .equivalence import (
    ClassPartition,
    Counterexample,
    EquivalenceWitness,
    equivalence_classes,
    equivalent,
)
from .linear import (
    SEARCH_LIMIT,
    Coefficients,
    CombinationResult,
    GuaranteedCase,
    SurveyReport,
    SurveyRow,
    chain_sum,
    construct_guaranteed,
    guaranteed_case,
    negate,
    solve_combination,
    survey_linearity,
)
from .oracle import (
    ORACLE_LIMIT,
    brute_force_equivalent,
    brute_force_solve,
    euclid_dot_oracle,
)
from .tablefile import (
    ParsedTable,
    format_space,
    load_space,
    parse_table_file,
    parse_table_text,
    save_space,
    space_from_parsed,
    validation_problems,
)
