"""Singleton bound, MDS detection and the MDS extension theorem checker.

A code attains the Singleton bound when |C| = |A|^(n - d + 1); the exponent
kappa = n - d + 1 is the code dimension.  Equivalently every kappa-subset of
columns is an information set, which at the kernel level means every column
is surjective and every kappa column kernels intersect trivially.

For MDS codes of dimension different from 2 every Hamming isometry extends
to a monomial map.  The checker verifies the theorem instead of assuming it:
a TheoremViolation result is a defect signal, never a domain outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import budget
from .codes import (
    Code,
    MonomialMap,
    Unextendable,
    codeword_weights,
    extend_to_monomial,
    is_isometry_criterion,
    kernel_support_multiset,
    module_elements,
)
from .errors import DomainRejectionError, NotAnIsometryError, ZeroCodeError
from .linalg import Subspace, intersect, matrix_rank


@dataclass(frozen=True)
class MdsReport:
    """Verdict of the MDS check, with a failing column subset if any."""

    n: int
    d: int
    kappa: int
    is_mds: bool
    witnesses: tuple[int, ...] | None


@dataclass(frozen=True)
class TheoremViolation:
    """An MDS isometry whose kernel multisets differ; must never occur."""

    lambda_only: tuple
    mu_only: tuple


def min_distance(code: Code) -> int:
    """Minimum Hamming weight over nonzero codewords, by enumeration."""
    weights = codeword_weights(code)
    nonzero = weights[weights > 0]
    if nonzero.size == 0:
        raise ZeroCodeError("the code has no nonzero codeword")
    return int(nonzero.min())


def code_cardinality(code: Code) -> int:
    """|C| = |W| / |Ker lambda|, computed from the joint kernel support."""
    sp = code.space
    joint = Subspace.full(sp.q, sp.t)
    for col in code.columns:
        joint = intersect(joint, col.kernel().support)
    return sp.q ** (sp.m * (sp.t - joint.dim))


def is_mds(code: Code) -> MdsReport:
    """MDS detection via the kernel conditions, cross-checked by cardinality.

    Conditions: every column is surjective (generator rank k) and every
    kappa-subset of column kernels intersects trivially.  The verdict must
    agree with the Singleton equality |C| = |A|^kappa.
    """
    sp = code.space
    q, k = sp.q, code.alphabet.k
    if code_cardinality(code) != sp.size:
        raise DomainRejectionError("the parametrization is not injective")
    d = min_distance(code)
    n = code.length
    kappa = n - d + 1
    supports = [col.kernel().support for col in code.columns]

    verdict = True
    witnesses: tuple[int, ...] | None = None
    for i, col in enumerate(code.columns):
        if matrix_rank(col.matrix, q) != k:
            verdict = False
            witnesses = (i,)
            break
    if verdict:
        for subset in itertools.combinations(range(n), kappa):
            meet = Subspace.full(q, sp.t)
            for i in subset:
                meet = intersect(meet, supports[i])
            if meet.dim != 0:
                verdict = False
                witnesses = subset
                break

    cardinality_mds = code_cardinality(code) == code.alphabet.size**kappa
    if verdict != cardinality_mds:
        raise AssertionError("kernel-condition MDS verdict disagrees with cardinality")
    return MdsReport(n=n, d=d, kappa=kappa, is_mds=verdict, witnesses=witnesses)


def _check_theorem_scope(code: Code) -> None:
    report = is_mds(code)
    if not report.is_mds:
        raise DomainRejectionError("the source code is not MDS")
    if report.kappa == 2:
        raise DomainRejectionError("MDS dimension 2 is outside the theorem's scope")


def _theorem_outcome(lam: Code, mu: Code):
    if not is_isometry_criterion(lam, mu):
        raise NotAnIsometryError("the codes are not Hamming-isometric")
    result = extend_to_monomial(lam, mu)
    if isinstance(result, Unextendable):
        return TheoremViolation(result.lambda_only, result.mu_only)
    return result


def mds_extension_check(lam: Code, mu: Code):
    """Extend an isometry of an MDS code, verifying the extension theorem.

    Preconditions (violations are errors, not theorem violations): lam is
    MDS with dimension kappa != 2 and the pair is a Hamming isometry.
    Returns the monomial map; a TheoremViolation result would mean the
    kernel multisets differ, which the theorem rules out.
    """
    _check_theorem_scope(lam)
    return _theorem_outcome(lam, mu)


def theorem_violations(code: Code, images) -> list[TheoremViolation]:
    """Run :func:`mds_extension_check` on many images of one MDS code.

    The MDS preconditions on ``code`` are checked once, not per image; each
    image still gets the kernel-count criterion and the monomial-map
    construction.  Images that the criterion rejects are skipped.  Returns
    the violations found, which the theorem says is always an empty list.
    """
    _check_theorem_scope(code)
    violations = []
    for mu in images:
        try:
            outcome = _theorem_outcome(code, mu)
        except NotAnIsometryError:
            continue
        if isinstance(outcome, TheoremViolation):
            violations.append(outcome)
    return violations


def all_generator_matrices(q: int, t: int, k: int) -> list[np.ndarray]:
    count = q ** (t * k)
    budget.check_vectors(count, "generator matrix enumeration")
    flat = np.array(list(itertools.product(range(q), repeat=t * k)), dtype=np.int64)
    return [row.reshape(t, k) for row in flat]


def exhaustive_isometry_scan(code: Code) -> list[tuple[Code, bool]]:
    """Enumerate every candidate image code and classify the isometries.

    Ranges over all homomorphism tuples of the same length, keeps those that
    are Hamming isometries of the input (by brute force over the source
    module) and reports whether each one is extendable (equal kernel
    multisets).  Tiny instances only.
    """
    sp = code.space
    q, t, k, n = sp.q, sp.t, code.alphabet.k, code.length
    budget.check_vectors(q ** (t * k * n), "isometry scan enumeration")
    candidates = all_generator_matrices(q, t, k)
    E = module_elements(q, sp.m, t)
    # Per-candidate nonzero-block indicator over all source elements.
    indicators = []
    for G in candidates:
        Y = np.tensordot(E, G, axes=([2], [0])) % q
        indicators.append(Y.reshape(Y.shape[0], -1).any(axis=1).astype(np.int64))
    target = codeword_weights(code)
    lam_kernels = kernel_support_multiset(code)

    results: list[tuple[Code, bool]] = []
    for combo in itertools.product(range(len(candidates)), repeat=n):
        weights = sum(indicators[i] for i in combo)
        if not np.array_equal(weights, target):
            continue
        mu = Code(code.alphabet, sp, [candidates[i] for i in combo])
        extendable = kernel_support_multiset(mu) == lam_kernels
        results.append((mu, extendable))
    return results
