"""Singleton bound, MDS detection and the MDS extension theorem checker.

A code attains the Singleton bound when |C| = |A|^(n - d + 1); the exponent
kappa = n - d + 1 is the code dimension.  On an injective code a source
element X with X G_i = 0 on kappa columns has weight at most d - 1, so X = 0:
every kappa-column block [G_i] has rank t <= kappa k.  Every kappa-subset is
therefore an information set iff t = kappa k, the Singleton equality itself,
so the equality alone decides MDS.

For MDS codes of dimension different from 2 every Hamming isometry extends
to a monomial map.  The checker verifies the theorem instead of assuming it:
a TheoremViolation result is a defect signal, never a domain outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget
from .codes import (
    Code,
    Hom,
    Unextendable,
    codeword_weights,
    extend_to_monomial,
    extend_to_monomials,
    hom_kernels,
    # Not called here, but the traced replay in bench/traced.py probes them
    # under this module's name.
    is_isometry_criterion,  # noqa: F401
    kernel_support_multiset,  # noqa: F401
    module_elements,
)
from .errors import DomainRejectionError, ZeroCodeError
from .linalg import matrix_rank


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
    """|C| = q^(m r), with r the rank of the t x nk concatenation [G_1 | ... | G_n]."""
    sp = code.space
    joint = np.concatenate([col.matrix for col in code.columns], axis=1)
    return sp.q ** (sp.m * matrix_rank(joint, sp.q))


def is_mds(code: Code) -> MdsReport:
    """MDS detection by the Singleton equality |C| = |A|^kappa.

    Every kappa-column block of an injective code has rank t, so all
    kappa-subsets are information sets iff t = kappa k, which is the
    equality; each column then sits in a block of full column rank, so it is
    surjective.  A non-MDS code's witness is its first non-surjective
    column, else the first kappa-subset (0, ..., kappa - 1), which fails like
    every other.
    """
    sp = code.space
    cardinality = code_cardinality(code)
    if cardinality != sp.size:
        raise DomainRejectionError("the parametrization is not injective")
    d = min_distance(code)
    n = code.length
    kappa = n - d + 1
    witnesses = None
    if cardinality != code.alphabet.size**kappa:
        k = code.alphabet.k
        witnesses = next(
            ((i,) for i, col in enumerate(code.columns) if matrix_rank(col.matrix, sp.q) != k),
            tuple(range(kappa)),
        )
    return MdsReport(n=n, d=d, kappa=kappa, is_mds=witnesses is None, witnesses=witnesses)


def _check_theorem_scope(code: Code) -> None:
    report = is_mds(code)
    if not report.is_mds:
        raise DomainRejectionError("the source code is not MDS")
    if report.kappa == 2:
        raise DomainRejectionError("MDS dimension 2 is outside the theorem's scope")


def mds_extension_check(lam: Code, mu: Code):
    """Extend an isometry of an MDS code, verifying the extension theorem.

    Preconditions (violations are errors, not theorem violations): lam is
    MDS with dimension kappa != 2 and the pair is a Hamming isometry.
    Returns the monomial map; a TheoremViolation result would mean the
    kernel multisets differ, which the theorem rules out.
    """
    _check_theorem_scope(lam)
    result = extend_to_monomial(lam, mu)
    if isinstance(result, Unextendable):
        return TheoremViolation(result.lambda_only, result.mu_only)
    return result


def theorem_violations(code: Code, images) -> list[TheoremViolation]:
    """Run :func:`mds_extension_check` on many images of one MDS code.

    The MDS preconditions on ``code`` are checked once, not per image; each
    image still gets the kernel-count criterion and the monomial-map
    construction, all in one :func:`extend_to_monomials` call.  Images that
    the criterion rejects are skipped.  Returns the violations found, which
    the theorem says is always an empty list.
    """
    _check_theorem_scope(code)
    return [
        TheoremViolation(result.lambda_only, result.mu_only)
        for result in extend_to_monomials(code, images)
        if isinstance(result, Unextendable)
    ]


def exhaustive_isometry_scan(code: Code) -> list[tuple[Code, bool]]:
    """Enumerate every candidate image code and classify the isometries.

    Ranges over all homomorphism tuples of the same length, keeps those that
    are Hamming isometries of the input (by brute force: the weight vector
    over the source module equals the input's at every element) and reports
    whether each one is extendable (equal kernel multisets).

    The c^n tuples of c candidate generators are matched in the middle: the
    weight sums of the c^(n//2) left halves are looked up in a table of
    ``target - s`` over the sums ``s`` of the c^(n - n//2) right halves, so
    memory is O(c^ceil(n/2) |E|) for the |E| source elements, never c^n |E|.
    Matches come out in ``itertools.product`` order.  Tiny instances only.
    """
    sp = code.space
    q, t, k, n = sp.q, sp.t, code.alphabet.k, code.length
    budget.check_vectors(q ** (t * k * n), "isometry scan enumeration")
    candidates = module_elements(q, t, k)
    # One Hom per candidate, shared by every match, so each candidate kernel
    # is computed once, all in one batched elimination, and gets a support id.
    homs = [Hom(sp, code.alphabet, G) for G in candidates]
    ids: dict = {}
    candidate_ids = np.array([ids.setdefault(K.support, len(ids)) for K in hom_kernels(homs)])
    E = module_elements(q, sp.m, t)
    # indicators[c, e] = 1 when source element e has a nonzero block under candidate c.
    Y = np.tensordot(candidates, E, axes=([1], [2])) % q
    indicators = Y.any(axis=(1, 3)).astype(np.int64)
    target = codeword_weights(code)

    def half_sums(length: int) -> np.ndarray:
        """Weight sums of all candidate tuples of this length, in product order."""
        sums = np.zeros((1, E.shape[0]), dtype=np.int64)
        for _ in range(length):
            sums = (sums[:, None, :] + indicators[None, :, :]).reshape(-1, E.shape[0])
        return sums

    left = n // 2
    wanted: dict[bytes, list[int]] = {}
    for j, row in enumerate(target - half_sums(n - left)):
        wanted.setdefault(row.tobytes(), []).append(j)
    width = len(candidates) ** (n - left)
    matches = [
        i * width + j
        for i, row in enumerate(half_sums(left))
        for j in wanted.get(row.tobytes(), ())
    ]
    combos = np.array(np.unravel_index(matches, (len(candidates),) * n), dtype=np.int64).T

    # A match extends iff its kernel-support ids have the code's histogram.
    s = len(ids)
    own = np.bincount([ids[K.support] for K in hom_kernels(code.columns)], minlength=s)
    cells = np.arange(len(combos))[:, None] * s + candidate_ids[combos]
    histograms = np.bincount(cells.ravel(), minlength=len(combos) * s).reshape(-1, s)
    extendable = (histograms == own).all(axis=1)
    return [
        (Code(code.alphabet, sp, [homs[c] for c in combo]), bool(ok))
        for combo, ok in zip(combos.tolist(), extendable)
    ]
