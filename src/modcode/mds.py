"""Minimum distance, MDS detection and the MDS extension theorem checker.

The minimum distance d is read off the points of PG(t-1, q) that the column
kernels hold, with no source element listed.  A code attains the Singleton
bound when |C| = |A|^kappa, kappa = n - d + 1.  On an injective code a source
element X with X G_i = 0 on kappa columns has weight at most d - 1, so X = 0:
every kappa-column block [G_i] has rank t <= kappa k.  Every kappa-subset is
therefore an information set iff t = kappa k, the Singleton equality itself,
so the equality alone decides MDS.

For MDS codes of dimension different from 2 every Hamming isometry extends
to a monomial map.  The package verifies the theorem instead of assuming it.
:func:`isometry_census` counts the isometric images of a code exactly by
their multisets of column kernels, and an image extends iff it has the
code's own multiset, so the theorem holds for the code iff its census has
one class.  :func:`mds_extension_check` decides one image pair.  A
TheoremViolation is a defect signal, never a domain outcome.  The
brute-force scan over every generator tuple (:func:`exhaustive_isometry_scan`)
is kept as the census's reference.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from math import comb, prod
from operator import add, sub

from . import budget
from .codes import (
    Code,
    Unextendable,
    codeword_weights,
    extend_to_monomial,
    # Not called here, but the traced replay in bench/traced.py probes it
    # under this module's name.
    is_isometry_criterion,  # noqa: F401
    kernel_support_multiset,
    module_elements,
    support_difference,
    vanishing_columns,
)
from .errors import DomainRejectionError, NotAnIsometryError, ZeroCodeError
from .linalg import (
    Record,
    enumerate_subspaces,
    integer_points,
    matrix_rank,
    members,
    number_row_kernels,
    supports_at_points,
)


class MdsReport(Record):
    """Verdict of the MDS check, with a failing column subset if any."""

    __slots__ = ("n", "d", "kappa", "is_mds", "witnesses")


class TheoremViolation(Unextendable):
    """An MDS isometry whose kernel multisets differ, read as an Unextendable; must never occur."""

    __slots__ = ()


def min_distance(code: Code) -> int:
    """Minimum Hamming weight over nonzero codewords, read off the column kernels.

    The codeword of X vanishes at the held(R) columns whose kernel holds
    R = rowspace(X).  Every point p of R has held(p) >= held(R), and when
    held(R) < n some p lies outside a kernel, so held(p) < n.  A point is the
    row space of a rank-one X, so d = n - max{held(p) : held(p) < n} over the
    points p of PG(t-1, q), indexed over the distinct kernels only.
    """
    q, t, n = code.space.q, code.space.t, code.length
    kernels, ids = number_row_kernels(code.generators, q, t)
    columns = Counter(ids)
    held = [sum(columns[j] for j in members(bits)) for bits in supports_at_points(q, t, kernels)]
    nonzero = [n - h for h in held if h < n]
    if not nonzero:
        raise ZeroCodeError("the code has no nonzero codeword")
    return min(nonzero)


def is_mds(code: Code) -> MdsReport:
    """MDS detection by the Singleton equality |C| = |A|^kappa, compared as ranks.

    |C| = q^(m r), with r the rank of the t x nk concatenation
    [G_1 | ... | G_n], so the code is injective iff r = t, and then the
    equality is t = kappa k.  Each column of an MDS code sits in a block of
    full column rank, so it is surjective.  A non-MDS code's witness is its
    first non-surjective column, else the first kappa-subset
    (0, ..., kappa - 1), which fails like every other.
    """
    sp = code.space
    joint = [tuple(chain.from_iterable(rows)) for rows in zip(*code.generators)]
    if matrix_rank(joint, sp.q) != sp.t:
        raise DomainRejectionError("the parametrization is not injective")
    n, d, k = code.length, min_distance(code), code.alphabet.k
    kappa = n - d + 1
    witnesses = None
    if sp.t != kappa * k:
        witnesses = next(((i,) for i, G in enumerate(code.generators) if matrix_rank(G, sp.q) != k),
                         tuple(range(kappa)))
    return MdsReport(n, d, kappa, witnesses is None, witnesses)


def mds_extension_check(lam: Code, mu: Code):
    """The monomial map extending an isometry of an MDS code, or a TheoremViolation.

    Preconditions are errors, not violations: lam must be MDS with kappa != 2
    by :func:`is_mds`, and :func:`extend_to_monomial` raises
    NotAnIsometryError when the kernel-count criterion rejects mu.
    """
    report = is_mds(lam)
    if not report.is_mds:
        raise DomainRejectionError("the source code is not MDS")
    if report.kappa == 2:
        raise DomainRejectionError("MDS dimension 2 is outside the theorem's scope")
    result = extend_to_monomial(lam, mu)
    if isinstance(result, Unextendable):
        return TheoremViolation(result.lambda_only, result.mu_only)
    return result


class IsometryCensus(Record):
    """The isometric images of a code, grouped by their multiset of column kernels.

    ``supports`` are the candidate kernels, the subspaces of F_q^t of codim
    <= min(k, t).  Each class is a kernel multiset y, its counts in supports
    order, and ``counts`` holds the number of generator tuples of each.
    Class ``own`` is the code's own multiset: its images are the ones that
    extend to a monomial map.
    """

    __slots__ = ("supports", "classes", "counts", "own")

    @property
    def isometries(self) -> int:
        return sum(self.counts)

    @property
    def unextendable(self) -> int:
        return self.isometries - self.counts[self.own]


def isometry_census(code: Code) -> IsometryCensus:
    """Every isometric image of a code, counted exactly by kernel multiset.

    The weight of a codeword is n minus the number of columns whose kernel
    holds the row space of its source element, a subspace of dim <= min(m, t).
    So a tuple of generators is an isometric image iff its kernel multiset y
    over the candidates satisfies Z y = b = Z y_code, with Z the incidence of
    those subspaces in the candidates; the zero subspace's row is sum(y) = n.

    The y >= 0 are found by one :func:`~modcode.linalg.integer_points` pass
    over the candidates in order of decreasing dimension, from base y_code,
    its nodes charged to the vector budget.

    Only candidates inside the union U of the code's own kernels carry
    weight.  With b = Z y_code, a lattice row R with b_R = 0 reads
    sum_{S >= R} y_S = 0, and as y >= 0 it forces y_S = 0 for every
    candidate S containing R.  A candidate that holds a point p outside U
    contains the row R = p, and b_R = 0 as no kernel of the code holds p.

    At kappa = 2 the census can have a second class.  Over M_{1x2}(F_q),
    t = 4, the kernels of an MDS code with kappa = 2 are pairwise skew lines
    of PG(3, q).  When they contain a regulus, replace it by its opposite
    regulus: both cover the same points, each point once, so every point,
    and with it every codeword weight, keeps its count of kernels, while
    the kernel multiset changes.  That image is an unextendable isometry.

    Class y stands for prod_i C(y_1 + ... + y_i, y_i) * prod_S N_S^y_S
    tuples: the binomials, over the candidates in order, multiply out to the
    multinomial n!/prod y_S! without building n!, and
    N_S = prod_{i < codim S} (q^k - q^i) counts the t x k matrices with row
    kernel S.  One ``balanced_rows`` call re-decides every class against the
    code, and a class it rejects raises NotAnIsometryError.
    """
    sp = code.space
    q, t, k = sp.q, sp.t, code.alphabet.k
    candidates = [S for d in reversed(range(t - min(k, t), t + 1))
                  for S in enumerate_subspaces(q, t, d)]
    columns = kernel_support_multiset(code)
    own = [columns[S] for S in candidates]
    classes = []
    nodes, exhausted = integer_points(sp.lattice.containment(candidates), own,
                                      lambda y: classes.append(tuple(y)))
    if not exhausted:
        budget.check_vectors(nodes, "isometry census (one vector per search node)")
    own = tuple(own)
    W = [[a - b for a, b in zip(c, own)] for c in classes]
    for i, ok in enumerate(sp.lattice.balanced_rows(candidates, W)):
        if not ok:
            raise NotAnIsometryError(f"the kernel-count criterion rejects census class {i}")
    with_kernel = [prod(q**k - q**i for i in range(t - S.dim)) for S in candidates]
    counts = [prod(map(comb, accumulate(c), c)) * prod(map(pow, with_kernel, c)) for c in classes]
    return IsometryCensus(tuple(candidates), tuple(classes), tuple(counts),
                          classes.index(own))


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
    budget.check_vectors(lambda: q ** (t * k * n), "isometry scan enumeration",
                         power=(q, t * k * n))
    candidates = module_elements(q, t, k)
    # The code's kernels and every candidate's, numbered at once.
    supports, ids = number_row_kernels(code.generators + candidates, q, t)
    killed = vanishing_columns(sp, supports, ids[n:])
    # indicators[c][e] = 1 when source element e has a nonzero block under candidate c.
    indicators = [tuple(1 ^ bits >> c & 1 for bits in killed) for c in range(len(candidates))]

    def half(length: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Every candidate tuple of this length with its weight sums, in product order."""
        out = [((), (0,) * len(killed))]
        for _ in range(length):
            out = [(combo + (c,), tuple(map(add, sums, w)))
                   for combo, sums in out for c, w in enumerate(indicators)]
        return out

    target = codeword_weights(code)
    left = n // 2
    wanted: dict[tuple, list] = {}
    for combo, sums in half(n - left):
        wanted.setdefault(tuple(map(sub, target, sums)), []).append(combo)
    results = []
    for head, sums in half(left):
        for tail in wanted.get(sums, ()):
            combo = head + tail
            # A match extends iff it has the code's kernel multiset: a zero row of W.
            row = support_difference(ids[:n] + [ids[n + c] for c in combo], n, len(supports))
            results.append((Code._unchecked(code.alphabet, sp, tuple(candidates[c] for c in combo)),
                            not any(row)))
    return results
