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
from dataclasses import dataclass

import numpy as np

from . import budget
from .errors import DimensionMismatchError, NotAnIsometryError
from .linalg import (
    Subspace,
    as_matrix,
    check_prime,
    complete_bases,
    enumerate_subspaces,
    mat_mul,
    matrix_rank,
    row_kernel,
    row_kernel_ids,
    rref_stack,
    subspace_lattice,
)


def _check_exact(q: int, *dims: int) -> None:
    """Reject a modulus for which an int64 product sum could overflow.

    Every product sum in the package adds at most max(m, t, k) products of
    two residues, so (q - 1)^2 * max(m, t, k) < 2^63 keeps them all exact.
    """
    if (q - 1) ** 2 * max(dims) >= 2**63:
        raise DimensionMismatchError(
            f"q={q} is too large for exact int64 arithmetic at dimension {max(dims)}"
        )


@dataclass(frozen=True)
class Alphabet:
    """The alphabet of m x k matrices over F_q, a module over m x m matrices."""

    q: int
    m: int
    k: int

    def __post_init__(self):
        # The bound first: trial division of a huge modulus would not end.
        _check_exact(self.q, self.m, self.k)
        check_prime(self.q)
        if self.m < 1 or self.k < 1:
            raise ValueError("alphabet parameters m and k must be >= 1")

    @property
    def size(self) -> int:
        return self.q ** (self.m * self.k)


@dataclass(frozen=True)
class ModuleSpace:
    """The source module W of m x t matrices over F_q."""

    q: int
    m: int
    t: int

    def __post_init__(self):
        # The bound first: trial division of a huge modulus would not end.
        _check_exact(self.q, self.m, self.t)
        check_prime(self.q)
        if self.m < 1 or self.t < 0:
            raise ValueError("need m >= 1 and t >= 0")

    @property
    def size(self) -> int:
        return self.q ** (self.m * self.t)


@dataclass(frozen=True, slots=True)
class Submodule:
    """A submodule of a ModuleSpace, encoded by its row-support subspace.

    The underlying element set is { X : rowspace(X) <= support }, of
    cardinality q**(m * support.dim).
    """

    space: ModuleSpace
    support: Subspace

    def __post_init__(self):
        if self.support.q != self.space.q or self.support.ambient != self.space.t:
            raise DimensionMismatchError("support must be a subspace of F_q^t")

    @property
    def dim(self) -> int:
        return self.support.dim

    @property
    def size(self) -> int:
        return self.space.q ** (self.space.m * self.support.dim)


class Hom:
    """A module homomorphism W -> A given by a t x k generator matrix."""

    __slots__ = ("space", "alphabet", "matrix")

    def __init__(self, space: ModuleSpace, alphabet: Alphabet, matrix):
        if space.q != alphabet.q or space.m != alphabet.m:
            raise DimensionMismatchError("source and target live over different rings")
        G = as_matrix(matrix, space.q)
        if G.shape != (space.t, alphabet.k):
            raise DimensionMismatchError(
                f"generator must be {space.t}x{alphabet.k}, got {G.shape}"
            )
        G.setflags(write=False)
        for name, value in zip(Hom.__slots__, (space, alphabet, G)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Hom is immutable")

    def kernel(self) -> Submodule:
        """The kernel submodule, computed afresh on every call."""
        return Submodule(self.space, row_kernel(self.matrix, self.space.q))

    def __repr__(self):
        return f"Hom({self.space}, {self.alphabet}, {[list(map(int, r)) for r in self.matrix]})"


class Code:
    """A length-n code parametrized by n homomorphisms with common source.

    The code holds one read-only (n, t, k) stack of generator matrices, given
    as an array-like of n t x k matrices; ``columns`` are the matching Hom
    objects, built on first access.
    """

    __slots__ = ("alphabet", "space", "generators", "_columns")

    def __init__(self, alphabet: Alphabet, space: ModuleSpace, generators):
        if space.q != alphabet.q or space.m != alphabet.m:
            raise DimensionMismatchError("source and target live over different rings")
        if len(generators) == 0:
            raise ValueError("a code needs at least one column")
        try:
            G = np.asarray(generators, dtype=np.int64) % space.q
        except ValueError as exc:
            raise DimensionMismatchError(f"generators have unequal shapes: {exc}") from exc
        if G.shape[1:] != (space.t, alphabet.k):
            raise DimensionMismatchError(
                f"generators must be {space.t}x{alphabet.k}, got {G.shape[1:]}"
            )
        G.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", G)
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    @property
    def columns(self) -> tuple[Hom, ...]:
        if self._columns is None:
            homs = tuple(Hom(self.space, self.alphabet, G) for G in self.generators)
            object.__setattr__(self, "_columns", homs)
        return self._columns

    @property
    def length(self) -> int:
        return len(self.generators)

    def encode(self, X: np.ndarray) -> list[np.ndarray]:
        return list(X @ self.generators % self.space.q)

    def __eq__(self, other):
        return (
            isinstance(other, Code)
            and self.alphabet == other.alphabet
            and self.space == other.space
            and np.array_equal(self.generators, other.generators)
        )

    def __hash__(self):
        return hash((self.alphabet, self.space, self.generators.shape, self.generators.tobytes()))

    def __repr__(self):
        return f"Code(n={self.length}, {self.alphabet}, t={self.space.t})"


@dataclass(frozen=True)
class MonomialMap:
    """A coordinate permutation plus per-coordinate alphabet automorphisms.

    Automorphisms act by right multiplication with invertible k x k matrices.
    Column i of the image code is column permutation[i] of the source code
    composed with automorphisms[i].
    """

    permutation: tuple[int, ...]
    automorphisms: tuple[np.ndarray, ...]
    q: int

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation must be a bijection of range(n)")
        if len(self.automorphisms) != n:
            raise DimensionMismatchError("need one automorphism per coordinate")
        frozen = []
        for P in self.automorphisms:
            P = as_matrix(P, self.q)
            if P.shape[0] != P.shape[1] or matrix_rank(P, self.q) != P.shape[0]:
                raise ValueError("automorphisms must be invertible square matrices")
            P.setflags(write=False)
            frozen.append(P)
        object.__setattr__(self, "automorphisms", tuple(frozen))

    @classmethod
    def _of_invertible(cls, permutation, automorphisms, q: int) -> "MonomialMap":
        """A map from a permutation and read-only automorphisms already proven invertible.

        Skips the per-matrix validation of ``__post_init__``:
        :func:`transport_automorphisms` proves a whole batch invertible at once.
        """
        mmap = object.__new__(cls)
        object.__setattr__(mmap, "permutation", permutation)
        object.__setattr__(mmap, "automorphisms", automorphisms)
        object.__setattr__(mmap, "q", q)
        return mmap

    @classmethod
    def identity(cls, n: int, k: int, q: int) -> "MonomialMap":
        eye = np.eye(k, dtype=np.int64)
        return cls(tuple(range(n)), tuple(eye for _ in range(n)), q)


@dataclass(frozen=True)
class Unextendable:
    """Witness that no monomial map exists: the kernel-multiset difference."""

    lambda_only: tuple[tuple[Subspace, int], ...]
    mu_only: tuple[tuple[Subspace, int], ...]


def hamming_weight(word) -> int:
    """Number of nonzero blocks in a word over the matrix alphabet."""
    shapes = {np.asarray(block).shape for block in word}
    if len(shapes) > 1:
        raise DimensionMismatchError(f"inconsistent block shapes: {shapes}")
    return sum(1 for block in word if np.asarray(block).any())


def kernel_tuple(code: Code) -> tuple[Submodule, ...]:
    """Column kernels of a code, in column order; equal kernels share one Submodule."""
    supports, ids = row_kernel_ids(code.generators, code.space.q)
    kernels = [Submodule(code.space, S) for S in supports]
    return tuple(kernels[i] for i in ids.tolist())


def kernel_support_multiset(code: Code) -> Counter:
    return Counter(K.support for K in kernel_tuple(code))


def _check_module_elements(q: int, m: int, t: int) -> None:
    budget.check_vectors(q ** (m * t), "module element enumeration")


@budget.checked_cache(_check_module_elements)
def module_elements(q: int, m: int, t: int) -> np.ndarray:
    """All m x t matrices over F_q as one (q^(m t), m, t) array."""
    count = q ** (m * t)
    flat = np.array(list(itertools.product(range(q), repeat=m * t)), dtype=np.int64)
    E = flat.reshape(count, m, t)
    E.setflags(write=False)
    return E


def codeword_weights(code: Code) -> np.ndarray:
    """Hamming weight of the codeword of every source element, in one array.

    Entry e belongs to ``module_elements(q, m, t)[e]``.  X G = 0 exactly when
    every row x_i of X lies in the row kernel of G, so
    wt(X) = n - sum over distinct indicators z_c of mult_c * prod_i z_c[x_i],
    with z_c the indicator of the q^t row vectors that a generator kills and
    mult_c the number of generators with that indicator.
    The rows x_1 .. x_(m-1) are folded in by m - 1 outer products and x_0
    by one matmul.  Every partial sum is an integer in [0, n], so the int64
    arithmetic is exact.
    """
    sp = code.space
    q, m, t = sp.q, sp.m, sp.t
    _check_module_elements(q, m, t)
    gens = code.generators
    vectors = module_elements(q, 1, t)[:, 0, :]
    kills = (np.tensordot(gens, vectors, axes=([1], [1])) % q == 0).all(axis=1)
    # Generators with equal row kernels have equal indicators: one row each.
    mult = Counter(row.tobytes() for row in kills)
    z = np.array([np.frombuffer(key, dtype=bool) for key in mult], dtype=np.int64)
    tail = np.array(list(mult.values()), dtype=np.int64)[:, None]
    for _ in range(m - 1):
        tail = (tail[:, :, None] * z[:, None, :]).reshape(len(z), -1)
    return code.length - (z.T @ tail).ravel()


def is_isometry_bruteforce(lam: Code, mu: Code) -> bool:
    """Exhaustive oracle: weights agree at every element of the source module."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return bool(np.array_equal(codeword_weights(lam), codeword_weights(mu)))


def support_difference(ids, lengths, width: int) -> np.ndarray:
    """Count the kernel supports of one code against many.

    ``ids`` holds the support id, in range(width), of every column kernel of
    a code V and then of each code of Us; ``lengths`` holds their lengths.
    Row i of the returned W is the count of each support among V minus that
    among Us[i].  F_q^t has id width - 1: the weight of a codeword is the
    length minus the kernel indicator sum, so the last column also counts a
    length difference as that many full-space kernels on the shorter side.
    """
    n, lengths = lengths[0], np.asarray(lengths[1:], dtype=np.int64)
    cells = np.repeat(np.arange(len(lengths)), lengths) * width + ids[n:]
    W = np.bincount(ids[:n], minlength=width) - np.bincount(
        cells, minlength=len(lengths) * width
    ).reshape(len(lengths), width)
    W[:, -1] += lengths - n
    return W


def kernel_difference(V, U):
    """Number the supports of two nonempty kernel tuples and count their difference.

    Returns ``(space, supports, W)``: the common source module, the distinct
    supports with F_q^t last, and the one-row :func:`support_difference`.
    """
    V, U = tuple(V), tuple(U)
    if not V or not U:
        raise DimensionMismatchError("kernel tuples must be nonempty")
    sp = V[0].space
    if any(K.space != sp for K in V + U):
        raise DimensionMismatchError("kernel tuples must share their source module")
    full = Subspace.full(sp.q, sp.t)
    supports = [*dict.fromkeys(K.support for K in V + U if K.support != full), full]
    index = {S: j for j, S in enumerate(supports)}
    ids = np.array([index[K.support] for K in V + U], dtype=np.int64)
    return sp, supports, support_difference(ids, [len(V), len(U)], len(supports))


def satisfies_isometry_equation(V, U) -> bool:
    """Equality of the two kernel indicator sums, decided by counts.

    Every element of the source module has row space of dimension at most m,
    so equality of the two indicator sums is equivalent to equality of the
    kernel-containment counts at every subspace of dimension <= m.  Kernels
    common to both sides cancel first, so the counts run over the distinct
    supports of the multiset difference only.
    """
    sp, supports, W = kernel_difference(V, U)
    return bool(subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced_rows(supports, W)[0])


def is_isometry_criterion(lam: Code, mu: Code) -> bool:
    """Decide whether two codes are Hamming-isometric via kernel counts."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return satisfies_isometry_equation(kernel_tuple(lam), kernel_tuple(mu))


def transport_automorphisms(Gs, Hs, q: int) -> np.ndarray:
    """Invertible P_i with G_i P_i = H_i, for a stack of t x k pairs with equal row kernels.

    F_G completes the greedy independent rows of G with unit vectors to a
    basis of F_q^k, and F_H does the same for H, whose independent rows sit
    at the same indices.  P = F_G^-1 F_H, the right block of the RREF of
    [F_G | F_H], maps a basis of rowspace(G) to the matching rows of H and a
    complement to a complement: the semisimple splitting argument made
    concrete.  Two batched eliminations serve the whole stack, and a third
    proves every P invertible by a full pivot mask.  The result is read-only.
    """
    Gs = np.asarray(Gs, dtype=np.int64) % q
    Hs = np.asarray(Hs, dtype=np.int64) % q
    n, _, k = Gs.shape
    frames = complete_bases(np.concatenate([Gs, Hs]), q)
    R, _ = rref_stack(np.concatenate([frames[:n], frames[n:]], axis=2), q)
    P = np.ascontiguousarray(R[:, :, k:])
    if ((Gs @ P) % q != Hs).any():
        raise AssertionError("transport automorphism failed; kernels were not equal")
    if not rref_stack(P, q)[1].all():
        raise AssertionError("transport automorphism is singular")
    P.setflags(write=False)
    return P


def extend_to_monomials(lam: Code, mus) -> list:
    """Extend the isometries sending lam to each of many images.

    Returns one entry per image: a MonomialMap whose application to lam
    reproduces the image column by column, an Unextendable value carrying
    the kernel-multiset difference, or None when the kernel-count criterion
    rejects the image.

    All images are decided together on the count difference W of
    :func:`support_difference`, numbered by one :func:`row_kernel_ids` call
    over all the generators.  One containment table and one product
    decide the criterion of every row of W, an image of lam's length that
    passes it extends iff its row is zero outside the full-space column, and
    the automorphisms of all extendable images come from one batched
    transport.
    """
    mus = list(mus)
    for mu in mus:
        if mu.space != lam.space or mu.alphabet != lam.alphabet:
            raise DimensionMismatchError("codes must share their source module and alphabet")
    if not mus:
        return []
    sp, n = lam.space, lam.length
    lengths = np.array([mu.length for mu in mus])
    # The stack stays unnamed, so it is freed before the containment table is built.
    supports, ids = row_kernel_ids(
        np.concatenate([lam.generators, *(mu.generators for mu in mus)]), sp.q
    )
    W = support_difference(ids, [n, *lengths], len(supports))
    isometric = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced_rows(supports, W)
    extendable = isometric & ~W[:, :-1].any(axis=1) & (lengths == n)

    results: list = [None] * len(mus)
    witnesses: dict[bytes, Unextendable] = {}
    by_key = sorted(range(len(supports)), key=lambda j: supports[j].sort_key())
    for i in np.flatnonzero(isometric & ~extendable):
        # The witness is the raw multiset difference, without the length padding.
        d = W[i].copy()
        d[-1] += n - lengths[i]
        if d.tobytes() not in witnesses:
            witnesses[d.tobytes()] = Unextendable(
                tuple((supports[j], int(d[j])) for j in by_key if d[j] > 0),
                tuple((supports[j], int(-d[j])) for j in by_key if d[j] < 0),
            )
        results[i] = witnesses[d.tobytes()]

    chosen = np.flatnonzero(extendable)
    if chosen.size:
        # Equal supports pair up in index order: the r-th image column with
        # support j comes from the r-th column of lam with support j.
        offsets = n + np.concatenate([[0], np.cumsum(lengths)])[chosen]
        mu_ids = ids[offsets[:, None] + np.arange(n)]
        perms = np.empty_like(mu_ids)
        np.put_along_axis(
            perms, np.argsort(mu_ids, axis=1, kind="stable"), np.argsort(ids[:n], kind="stable"), 1
        )
        k = lam.alphabet.k
        # A sized reshape: with t = 0 the stack is empty and -1 would be ambiguous.
        Gs = lam.generators[perms].reshape(len(chosen) * n, sp.t, k)
        Hs = np.concatenate([mus[i].generators for i in chosen])
        autos = transport_automorphisms(Gs, Hs, sp.q).reshape(-1, n, k, k)
        for i, perm, own in zip(chosen, perms.tolist(), autos):
            results[i] = MonomialMap._of_invertible(tuple(perm), tuple(own), sp.q)
    return results


def extend_to_monomial(lam: Code, mu: Code):
    """Extend the isometry sending lam to mu, or report it unextendable.

    Requires the isometry criterion to hold, else raises NotAnIsometryError.
    Returns a MonomialMap whose application to lam reproduces mu
    column-by-column, or an Unextendable value carrying the kernel-multiset
    difference.
    """
    (result,) = extend_to_monomials(lam, [mu])
    if result is None:
        raise NotAnIsometryError("the codes are not Hamming-isometric")
    return result


def apply_monomial(mmap: MonomialMap, code: Code) -> Code:
    """Apply a monomial map, permuting columns and composing automorphisms."""
    if len(mmap.permutation) != code.length:
        raise DimensionMismatchError("monomial map size does not match code length")
    G = code.generators[list(mmap.permutation)] @ np.array(mmap.automorphisms)
    return Code(code.alphabet, code.space, G % code.space.q)


def alphabet_has_extension_property(alphabet: Alphabet) -> bool:
    """Extension property holds for the matrix-module alphabet iff k <= m."""
    return alphabet.k <= alphabet.m


def is_cyclic_submodule(sub: Submodule) -> bool:
    """A submodule is cyclic iff its support dimension is at most m."""
    return sub.support.dim <= sub.space.m


def covering_by_proper_submodules(sub: Submodule):
    """Cover a non-cyclic submodule by proper nonzero submodules.

    Returns the codimension-1 submodules of the support (every element has
    row space of dimension <= m, hence lies inside some hyperplane of the
    support).  Returns None for cyclic submodules, which admit no cover.
    """
    if is_cyclic_submodule(sub):
        return None
    S = sub.support
    q = sub.space.q
    out = []
    for hyper in enumerate_subspaces(q, S.dim, S.dim - 1):
        rows = mat_mul(hyper.basis, S.basis, q)
        out.append(Submodule(sub.space, Subspace.from_rows(rows, q, S.ambient)))
    out.sort(key=lambda s: s.support.sort_key())
    return out
