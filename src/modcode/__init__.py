"""Isometry extension toolkit for linear codes over matrix-module alphabets.

Exact linear algebra over prime fields, canonical subspace lattices, codes
parametrized by homomorphism tuples, the indicator-sum isometry criterion
with constructive monomial extension, character-sum duality checks, forging
of minimum-length unextendable isometries with a branch-and-bound minimality
proof, and MDS extension verification.

The names below are re-exported from their submodules on first access
(PEP 562), so importing one submodule, such as the command-line front end,
loads only what that submodule needs.
"""

from importlib import import_module

_EXPORTS = {
    "budget": ("DEFAULT_SUBSPACE_BUDGET", "DEFAULT_VECTOR_BUDGET"),
    "codes": (
        "Alphabet",
        "Code",
        "Hom",
        "ModuleSpace",
        "MonomialMap",
        "Submodule",
        "Unextendable",
        "apply_monomial",
        "extend_to_monomial",
        "is_isometry_bruteforce",
        "is_isometry_criterion",
        "kernel_tuple",
    ),
    "errors": (
        "DimensionMismatchError",
        "DomainRejectionError",
        "EnumerationBudgetError",
        "ModcodeError",
        "NotAnIsometryError",
        "RankInfeasibleError",
        "ZeroCodeError",
    ),
    "forge": (
        "IncidenceSystem",
        "SearchResult",
        "counterexample_length",
        "incidence_matrix",
        "min_nontrivial_length",
        "minimal_counterexample",
        "solution_to_codes",
    ),
    "fourier": ("verify_dual_equation",),
    "io": ("load_code", "save_code"),
    "linalg": (
        "Subspace",
        "cauchy_identities_check",
        "contains",
        "enumerate_subspaces",
        "gaussian_binomial",
        "orthogonal",
        "rref",
        "row_kernel",
        "subspace_lattice",
    ),
    "mds": (
        "MdsReport",
        "TheoremViolation",
        "exhaustive_isometry_scan",
        "is_mds",
        "isometry_census",
        "mds_extension_check",
        "min_distance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())
