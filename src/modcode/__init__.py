"""Isometry extension toolkit for linear codes over matrix-module alphabets.

Exact linear algebra over prime fields, canonical subspace lattices, codes
parametrized by homomorphism tuples, the indicator-sum isometry criterion
with constructive monomial extension, character-sum duality checks, forging
of minimum-length unextendable isometries with a branch-and-bound minimality
proof, and MDS extension verification.
"""

from .budget import DEFAULT_SUBSPACE_BUDGET, DEFAULT_VECTOR_BUDGET
from .codes import (
    Alphabet,
    Code,
    Hom,
    ModuleSpace,
    MonomialMap,
    Submodule,
    Unextendable,
    alphabet_has_extension_property,
    apply_monomial,
    covering_by_proper_submodules,
    extend_to_monomial,
    extend_to_monomials,
    hamming_weight,
    is_cyclic_submodule,
    is_isometry_bruteforce,
    is_isometry_criterion,
    is_trivial_solution,
    kernel_tuple,
    satisfies_isometry_equation,
)
from .errors import (
    DimensionMismatchError,
    DomainRejectionError,
    EnumerationBudgetError,
    ModcodeError,
    NotACoverError,
    NotAnIsometryError,
    RankInfeasibleError,
    ZeroCodeError,
)
from .forge import (
    IncidenceSystem,
    SearchResult,
    SolutionPair,
    counterexample_length,
    hom_with_kernel,
    incidence_matrix,
    inclusion_exclusion_solution,
    min_nontrivial_length,
    minimal_counterexample,
    solution_to_codes,
)
from .fourier import (
    fourier_of_indicator,
    image_kernel_duality_check,
    orthogonal_submodule,
    pairing,
    verify_dual_equation,
)
from .io import load_code, save_code
from .linalg import (
    Subspace,
    cauchy_identities_check,
    contains,
    count_subspaces_containing,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    orthogonal,
    rref,
    rref_stack,
    row_kernel,
    subspace_lattice,
    subspace_sum,
)
from .mds import (
    MdsReport,
    TheoremViolation,
    exhaustive_isometry_scan,
    is_mds,
    mds_extension_check,
    min_distance,
    theorem_violations,
)

__version__ = "0.1.0"
