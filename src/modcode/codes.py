"""Codes over matrix-module alphabets.

The ring is the full matrix ring of m x m matrices over F_q and the alphabet
is the module of m x k matrices.  A code of length n is parametrized by a
source module W of m x t matrices together with n homomorphisms, each given
by a t x k generator G acting on the right: X -> X G.

Submodules of W correspond to subspaces of F_q^t through their row support:
the submodule attached to a subspace S is the set of matrices whose row space
lies inside S.  This encoding turns the isometry equation into finitely many
integer containment counts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import index

from . import budget
from .errors import DimensionMismatchError, NotAnIsometryError
from .linalg import (
    Record,
    as_matrix,
    check_prime,
    check_subspace_of,
    complete_basis,
    mat_mul,
    matrix_rank,
    number_row_kernels,
    projective_points,
    row_kernel,
    rref,
    subspace_lattice,
    supports_at_points,
)


def _check_exact(q: int, *dims: int) -> None:
    """Reject a modulus beyond the documented domain of int64 product sums.

    Every product sum in the package adds at most max(m, t, k) products of
    two residues, and (q - 1)^2 * max(m, t, k) < 2^63 bounds them all.
    """
    if (q - 1) ** 2 * max(dims) >= 2**63:
        raise DimensionMismatchError(
            f"q={q} is too large for exact int64 arithmetic at dimension {max(dims)}"
        )


class MatrixModule(Record):
    """The module of m x n matrices over F_q; n, the third field, is at least ``least``."""

    __slots__ = ()
    least = 0

    def _check(self):
        try:
            q, m, n = map(index, self._values())
        except TypeError as exc:
            raise ValueError(f"module parameters must be integers: {exc}") from exc
        # The bound first: trial division of a huge modulus would not end.
        _check_exact(q, m, n)
        check_prime(q)
        if m < 1:
            raise ValueError(f"need m >= 1, got {m}")
        if n < self.least:
            raise ValueError(f"need {self._fields[2]} >= {self.least}, got {n}")


class Alphabet(MatrixModule):
    """The alphabet of m x k matrices over F_q, a module over m x m matrices."""

    __slots__ = ("q", "m", "k")
    least = 1


class ModuleSpace(MatrixModule):
    """The source module W of m x t matrices over F_q."""

    __slots__ = ("q", "m", "t")

    @property
    def lattice(self):
        """The subspaces of dim <= min(m, t) on which the isometry equation is posed."""
        return subspace_lattice(self.q, self.t, min(self.m, self.t))


class Submodule(Record):
    """A submodule of a ModuleSpace, encoded by its row-support subspace.

    The underlying element set is { X : rowspace(X) <= support }, of
    cardinality q**(m * support.dim).
    """

    __slots__ = ("space", "support")

    def _check(self):
        check_subspace_of(self.support, self.space.q, self.space.t)


class Hom(Record):
    """A module homomorphism W -> A given by a t x k generator matrix."""

    __slots__ = ("space", "alphabet", "matrix")

    def _check(self):
        space, alphabet = self.space, self.alphabet
        if space.q != alphabet.q or space.m != alphabet.m:
            raise DimensionMismatchError("source and target live over different rings")
        G = as_matrix(self.matrix, space.q)
        if len(G) != space.t or any(len(row) != alphabet.k for row in G):
            raise DimensionMismatchError(f"generator must be {space.t}x{alphabet.k}")
        object.__setattr__(self, "matrix", G)

    def kernel(self) -> Submodule:
        """The kernel submodule, computed afresh on every call."""
        return Submodule(self.space, row_kernel(self.matrix, self.space.q))


class Code(Record):
    """A length-n code parametrized by n homomorphisms with common source.

    The code holds its n t x k generator matrices as one tuple of row
    tuples, given as any nested sequence; each is checked and reduced by
    ``Hom``.  ``columns`` are the matching Hom objects, built on each
    access.  ``_unchecked`` takes a tuple of generators already reduced mod q.
    """

    __slots__ = ("alphabet", "space", "generators")

    def _check(self):
        try:
            generators = tuple(self.generators)
        except TypeError as exc:
            raise DimensionMismatchError(f"generators must be a sequence: {exc}") from exc
        if not generators:
            raise ValueError("a code needs at least one column")
        G = tuple(Hom(self.space, self.alphabet, M).matrix for M in generators)
        object.__setattr__(self, "generators", G)

    @property
    def columns(self) -> tuple[Hom, ...]:
        return tuple(Hom._unchecked(self.space, self.alphabet, G) for G in self.generators)

    @property
    def length(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return f"Code(n={self.length}, {self.alphabet}, t={self.space.t})"


class MonomialMap(Record):
    """A coordinate permutation plus per-coordinate alphabet automorphisms.

    Automorphisms act by right multiplication with invertible k x k matrices.
    Column i of the image code is column permutation[i] of the source code
    composed with automorphisms[i].
    """

    __slots__ = ("permutation", "automorphisms", "q")

    def _check(self):
        check_prime(self.q)
        try:
            perm, autos = tuple(map(index, self.permutation)), tuple(self.automorphisms)
        except TypeError as exc:
            raise DimensionMismatchError(f"expected sequences of ints and matrices: {exc}") from exc
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("permutation must be a bijection of range(n)")
        if len(autos) != len(perm):
            raise DimensionMismatchError("need one automorphism per coordinate")
        frozen = []
        for P in autos:
            P = as_matrix(P, self.q)
            if any(len(row) != len(P) for row in P) or matrix_rank(P, self.q) != len(P):
                raise ValueError("automorphisms must be invertible square matrices")
            frozen.append(P)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "automorphisms", tuple(frozen))


class Unextendable(Record):
    """Witness that no monomial map exists: the kernel-multiset difference."""

    __slots__ = ("lambda_only", "mu_only")


def kernel_tuple(code: Code) -> tuple[Submodule, ...]:
    """Column kernels of a code, in column order; equal kernels share one Submodule."""
    supports, ids = number_row_kernels(code.generators, code.space.q, code.space.t)
    kernels = [Submodule(code.space, S) for S in supports]
    return tuple(kernels[i] for i in ids)


def kernel_support_multiset(code: Code) -> Counter:
    """The multiset of a code's column kernels, as a Counter of their supports."""
    supports, ids = number_row_kernels(code.generators, code.space.q, code.space.t)
    return Counter({supports[j]: count for j, count in Counter(ids).items()})


def _check_module_elements(q: int, m: int, t: int) -> None:
    budget.check_vectors(lambda: q ** (m * t), "module element enumeration", power=(q, m * t))


@budget.cached
def module_elements(q: int, m: int, t: int) -> tuple:
    """All m x t matrices over F_q, as row tuples, in ``itertools.product`` order."""
    _check_module_elements(q, m, t)
    return tuple(
        tuple(entries[i * t : (i + 1) * t] for i in range(m))
        for entries in itertools.product(range(q), repeat=m * t)
    )


def vanishing_columns(space: ModuleSpace, supports, ids) -> list[int]:
    """For every source element, the bitset of the columns that vanish at it.

    Column c has row kernel ``supports[ids[c]]``; entry e belongs to
    ``module_elements(q, m, t)[e]``.  X G = 0 exactly when every row x_i of
    X lies in the row kernel of G, so with killed(v) the bitset of the
    columns whose kernel holds the vector v, read off the kernels' point
    bitsets, the columns vanishing at X are the AND of killed(x_i) over its
    rows.  The rows are folded in by m list products.

    killed(v) is listed in ``itertools.product`` order of v.  Every nonzero
    v is a p for exactly one point p and one nonzero a, so p's bitset goes
    at the number of a p; the zero vector lies in every kernel.
    """
    q, m, t = space.q, space.m, space.t
    _check_module_elements(q, m, t)
    at_point = supports_at_points(q, t, [supports[j] for j in ids])
    every = (1 << len(ids)) - 1
    place = [q ** (t - 1 - i) for i in range(t)]
    killed_by = [every] * q**t
    for p, bits in zip(projective_points(q, t), at_point):
        for a in range(1, q):
            killed_by[sum(a * x % q * w for x, w in zip(p, place))] = bits
    killed = [every]
    for _ in range(m):
        killed = [a & b for a in killed for b in killed_by]
    return killed


def codeword_weights(code: Code) -> list[int]:
    """Hamming weight of the codeword of every source element, in module_elements order.

    wt(X) is the length minus the number of columns that vanish at X.
    """
    sp = code.space
    killed = vanishing_columns(sp, *number_row_kernels(code.generators, sp.q, sp.t))
    return [code.length - bits.bit_count() for bits in killed]


def is_isometry_bruteforce(lam: Code, mu: Code) -> bool:
    """Exhaustive oracle: weights agree at every element of the source module."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return codeword_weights(lam) == codeword_weights(mu)


def support_difference(ids, n: int, width: int) -> list[int]:
    """The kernel-count difference of two codes over one support numbering.

    ``ids`` holds the support id, in range(width), of every column kernel of
    a code V of length n and then of every column kernel of a code U.  Entry
    j of the returned row is the count of support j among V minus that among
    U.  F_q^t has id width - 1: the weight of a codeword is the length minus
    the kernel indicator sum, so the last entry also counts a length
    difference as that many full-space kernels on the shorter side.
    """
    W = [0] * width
    for j in ids[:n]:
        W[j] += 1
    for j in ids[n:]:
        W[j] -= 1
    W[-1] += len(ids) - 2 * n
    return W


def _count_difference(lam: Code, mu: Code):
    """The support numbering of lam and mu and their count difference.

    Returns ``(supports, ids, W, isometric)``: one numbering of the kernels
    of both codes, the :func:`support_difference` row W of lam against mu,
    and the kernel-count criterion of that row.
    """
    supports, ids = number_row_kernels(lam.generators + mu.generators, lam.space.q, lam.space.t)
    W = support_difference(ids, lam.length, len(supports))
    return supports, ids, W, lam.space.lattice.balanced_rows(supports, [W])[0]


def is_isometry_criterion(lam: Code, mu: Code) -> bool:
    """Decide whether two codes are Hamming-isometric via kernel counts."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return _count_difference(lam, mu)[3]


def transport_automorphisms(Gs, Hs, q: int, k: int) -> list:
    """Invertible P_i with G_i P_i = H_i, for t x k pairs with equal row kernels.

    F_G completes the greedy independent rows of G with unit vectors to a
    basis of F_q^k, and F_H does the same for H, whose independent rows sit
    at the same indices.  P = F_G^-1 F_H, the right block of the RREF of
    [F_G | F_H], maps a basis of rowspace(G) to the matching rows of H and a
    complement to a complement: the semisimple splitting argument made
    concrete.  Both frames are bases of F_q^k, so P is invertible once the
    left block has pivots 0..k-1; a left block without them fails loudly.
    """
    out = []
    solved: dict = {}  # equal pairs share one automorphism
    for G, H in zip(Gs, Hs):
        if (G, H) in solved:
            out.append(solved[G, H])
            continue
        frames = zip(complete_basis(G, q, k), complete_basis(H, q, k))
        R, _, pivots = rref([tuple(f) + tuple(h) for f, h in frames], q)
        P = tuple(row[k:] for row in R)
        if pivots[:k] != list(range(k)):
            raise AssertionError("transport automorphism is singular")
        if mat_mul(G, P, q) != H:
            raise AssertionError("transport automorphism failed; kernels were not equal")
        out.append(P)
        solved[G, H] = P
    return out


def extend_to_monomial(lam: Code, mu: Code):
    """Extend the isometry sending lam to mu, or report it unextendable.

    One :func:`_count_difference` call numbers the kernels of both codes and
    decides the kernel-count criterion; a pair it rejects raises
    NotAnIsometryError.  An isometry of lam's length extends iff its count
    difference is zero outside the full-space entry, and then the result is
    a MonomialMap whose application to lam reproduces mu column by column:
    the columns pair up by support and one transport call finds every
    automorphism.  Otherwise it is an Unextendable value carrying the
    kernel-multiset difference.
    """
    if mu.space != lam.space or mu.alphabet != lam.alphabet:
        raise DimensionMismatchError("codes must share their source module and alphabet")
    sp, n = lam.space, lam.length
    supports, ids, row, isometric = _count_difference(lam, mu)
    if not isometric:
        raise NotAnIsometryError("the codes are not Hamming-isometric")
    if mu.length != n or any(row[:-1]):
        # The witness is the raw multiset difference, without the length padding.
        row[-1] += n - mu.length
        by_key = sorted(range(len(supports)), key=lambda j: supports[j].sort_key())
        return Unextendable(
            tuple((supports[j], row[j]) for j in by_key if row[j] > 0),
            tuple((supports[j], -row[j]) for j in by_key if row[j] < 0),
        )
    # Equal supports pair up in index order: the r-th image column with
    # support j comes from the r-th column of lam with support j.
    by_support: dict[int, list] = {}
    for c in range(n):
        by_support.setdefault(ids[c], []).append(c)
    columns = {j: iter(cs) for j, cs in by_support.items()}
    perm = tuple(next(columns[j]) for j in ids[n:])
    autos = transport_automorphisms([lam.generators[c] for c in perm], mu.generators,
                                    sp.q, lam.alphabet.k)
    # transport_automorphisms found pivots 0..k-1, so each automorphism is invertible.
    return MonomialMap._unchecked(perm, tuple(autos), sp.q)


def apply_monomial(mmap: MonomialMap, code: Code) -> Code:
    """Apply a monomial map, permuting columns and composing automorphisms."""
    if len(mmap.permutation) != code.length:
        raise DimensionMismatchError("monomial map size does not match code length")
    q = code.space.q
    if mmap.q != q:
        raise DimensionMismatchError(f"a monomial map over F_{mmap.q} does not act on F_{q}")
    # mat_mul rejects an automorphism whose size is not k.
    G = tuple(
        mat_mul(code.generators[src], P, q)
        for src, P in zip(mmap.permutation, mmap.automorphisms)
    )
    return Code(code.alphabet, code.space, G)

