"""Exact stability weights and local semi-simplicity for quiver representations.

The package decides whether a direct sum of quiver representations admits a
common stability weight (equivalently, is locally semi-simple), checks
King's numerical criterion against a finite-field subrepresentation oracle,
and on tame quivers synthesizes weights constructively from tube data.  All
arithmetic is exact over the rationals.
"""

from .catalog import CATALOG_NAMES, load
from .jsonio import Bundle, InputError, load_bundle, parse_bundle
from .linalg import InconsistentSystem, Mat, kernel_basis, rref, solve_linear
from .quiver import (
    Quiver,
    QuiverClass,
    classify,
    coxeter_matrix,
    defect,
    defect_weight,
    euler_form,
    tits_form,
    weight_from_dimvec,
)
from .reps import (
    BadPrime,
    Representation,
    are_isomorphic,
    direct_sum,
    end_algebra,
    ext1_dim,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_schur,
    radical_dim,
    reduce_mod_p,
    simple_rep,
)
from .stability import (
    DEFAULT_BUDGET,
    DEFAULT_PRIMES,
    BudgetExceeded,
    FeasibilityProblem,
    StabilityReport,
    SubrepDimSet,
    check_stability,
    common_weight,
    find_weight,
    is_locally_semisimple,
    subrep_dimvectors,
    subrep_dimvectors_union,
)
from .synthesis import (
    SchurSequence,
    SequenceValidationError,
    Tube,
    TubeCatalog,
    TubePosition,
    TubeSystem,
    assemble_tube_system,
    build_ext_quiver,
    check_orthogonality_structurally,
    exceptional_order,
    locate_in_tube,
    maximal_extension,
    regular_subrep_dims,
    shift_sigma,
    solve_tube_system,
    synthesize_weight,
    validate_catalog,
    validate_sequence,
)

__version__ = "0.1.0"
