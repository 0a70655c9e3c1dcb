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
    row_kernels,
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
        check_prime(self.q)
        if self.m < 1 or self.k < 1:
            raise ValueError("alphabet parameters m and k must be >= 1")
        _check_exact(self.q, self.m, self.k)

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
        check_prime(self.q)
        if self.m < 1 or self.t < 0:
            raise ValueError("need m >= 1 and t >= 0")
        _check_exact(self.q, self.m, self.t)

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

    __slots__ = ("space", "alphabet", "matrix", "_kernel")

    def __init__(self, space: ModuleSpace, alphabet: Alphabet, matrix):
        if space.q != alphabet.q or space.m != alphabet.m:
            raise DimensionMismatchError("source and target live over different rings")
        G = as_matrix(matrix, space.q)
        if G.shape != (space.t, alphabet.k):
            raise DimensionMismatchError(
                f"generator must be {space.t}x{alphabet.k}, got {G.shape}"
            )
        G.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "matrix", G)
        object.__setattr__(self, "_kernel", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hom is immutable")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return mat_mul(X, self.matrix, self.space.q)

    def kernel(self) -> Submodule:
        """The kernel submodule, computed on the first call and then reused."""
        if self._kernel is None:
            kernel = Submodule(self.space, row_kernel(self.matrix, self.space.q))
            object.__setattr__(self, "_kernel", kernel)
        return self._kernel

    def __eq__(self, other):
        return (
            isinstance(other, Hom)
            and self.space == other.space
            and self.alphabet == other.alphabet
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.space, self.alphabet, self.matrix.tobytes()))

    def __repr__(self):
        return f"Hom({self.space}, {self.alphabet}, {[list(map(int, r)) for r in self.matrix]})"


class Code:
    """A length-n code parametrized by n homomorphisms with common source."""

    __slots__ = ("alphabet", "space", "columns")

    def __init__(self, alphabet: Alphabet, space: ModuleSpace, columns):
        cols = tuple(columns)
        if not cols:
            raise ValueError("a code needs at least one column")
        homs = []
        for col in cols:
            hom = col if isinstance(col, Hom) else Hom(space, alphabet, col)
            # Tuple comparison skips __eq__ for the shared space and alphabet objects.
            if (hom.space, hom.alphabet) != (space, alphabet):
                raise DimensionMismatchError("all columns must share source and target")
            homs.append(hom)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "columns", tuple(homs))

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    @property
    def length(self) -> int:
        return len(self.columns)

    def encode(self, X: np.ndarray) -> list[np.ndarray]:
        return [col(X) for col in self.columns]

    def __eq__(self, other):
        return (
            isinstance(other, Code)
            and self.alphabet == other.alphabet
            and self.space == other.space
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.alphabet, self.space, self.columns))

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


def hom_kernels(homs) -> tuple[Submodule, ...]:
    """Kernels of many homomorphisms, in order.

    Every kernel not yet cached is computed in one batched elimination over
    the distinct generator matrices; homomorphisms with equal matrices, and
    equal kernels, share one Submodule.
    """
    homs = tuple(homs)
    groups: dict = {}
    for hom in homs:
        if hom._kernel is None:
            key = (hom.space, hom.alphabet.k)
            groups.setdefault(key, {}).setdefault(hom.matrix.tobytes(), []).append(hom)
    for (space, _), by_matrix in groups.items():
        same = list(by_matrix.values())
        supports = row_kernels([hs[0].matrix for hs in same], space.q)
        shared: dict[Subspace, Submodule] = {}
        for hs, S in zip(same, supports):
            if S not in shared:
                shared[S] = Submodule(space, S)
            for hom in hs:
                object.__setattr__(hom, "_kernel", shared[S])
    return tuple(hom._kernel for hom in homs)


def kernel_tuple(code: Code) -> tuple[Submodule, ...]:
    """Column kernels of a code, in column order."""
    return hom_kernels(code.columns)


def kernel_support_multiset(code: Code) -> Counter:
    return Counter(K.support for K in hom_kernels(code.columns))


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
    gens = np.stack([col.matrix for col in code.columns])
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


def _support_difference(V, U) -> tuple[ModuleSpace, Counter]:
    """The common source module of two nonempty kernel tuples and their support-count difference.

    The weight of a codeword is the length minus the kernel indicator sum, so
    a length difference counts as that many full-space kernels (the kernels
    of zero generators) on the shorter side.
    """
    V, U = tuple(V), tuple(U)
    if not V or not U:
        raise DimensionMismatchError("kernel tuples must be nonempty")
    sp = V[0].space
    if any(sub.space != sp for sub in V + U):
        raise DimensionMismatchError("kernel tuples must share their source module")
    diff = Counter(s.support for s in V)
    diff.subtract(s.support for s in U)
    diff[Subspace.full(sp.q, sp.t)] -= len(V) - len(U)
    return sp, diff


def satisfies_isometry_equation(V, U) -> bool:
    """Equality of the two kernel indicator sums, decided by counts.

    Every element of the source module has row space of dimension at most m,
    so equality of the two indicator sums is equivalent to equality of the
    kernel-containment counts at every subspace of dimension <= m.  Kernels
    common to both sides cancel first, so the counts run over the distinct
    supports of the multiset difference only.
    """
    sp, diff = _support_difference(V, U)
    return subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced(diff)


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


def _occurrence(ids: np.ndarray, count: int) -> np.ndarray:
    """How many earlier entries along the last axis hold the same id, for ids below count."""
    onehot = ids[..., None] == np.arange(count)
    return (onehot.cumsum(axis=-2) * onehot).sum(axis=-1) - 1


def extend_to_monomials(lam: Code, mus) -> list:
    """Extend the isometries sending lam to each of many images.

    Returns one entry per image: a MonomialMap whose application to lam
    reproduces the image column by column, an Unextendable value carrying
    the kernel-multiset difference, or None when the kernel-count criterion
    rejects the image.

    All images are decided together.  Each distinct kernel support gets an
    integer id, and D[i, j] is the count of support j among the column
    kernels of lam minus that among the column kernels of image i.  One
    containment table and one product decide the criterion of every row of
    D, an image extends iff its row is zero, and the automorphisms of all
    extendable images come from one batched transport.
    """
    mus = list(mus)
    for mu in mus:
        if mu.space != lam.space or mu.alphabet != lam.alphabet:
            raise DimensionMismatchError("codes must share their source module and alphabet")
    if not mus:
        return []
    sp, n = lam.space, lam.length
    kernels = hom_kernels(itertools.chain(lam.columns, *(mu.columns for mu in mus)))
    # Images share their few kernel objects, so ids are looked up once per object.
    ids: dict[Subspace, int] = {}
    distinct = {id(K): K for K in kernels}
    by_object = {key: ids.setdefault(K.support, len(ids)) for key, K in distinct.items()}
    flat = np.array([by_object[id(K)] for K in kernels])
    supports = list(ids)
    lengths = np.array([mu.length for mu in mus])
    rows = np.repeat(np.arange(len(mus)), lengths)
    D = np.bincount(flat[:n], minlength=len(ids)) - np.bincount(
        rows * len(ids) + flat[n:], minlength=len(mus) * len(ids)
    ).reshape(len(mus), len(ids))
    # As in _support_difference, the criterion counts a length difference as
    # full-space kernels on the shorter side.  An image of another length has
    # a nonzero row of D, so it is never extendable.
    W = np.column_stack([D, lengths - n])
    W_supports = supports + [Subspace.full(sp.q, sp.t)]
    isometric = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced_rows(W_supports, W)
    extendable = ~D.any(axis=1)

    results: list = [None] * len(mus)
    witnesses: dict[bytes, Unextendable] = {}
    by_key = sorted(range(len(ids)), key=lambda j: supports[j].sort_key())
    for i in np.flatnonzero(isometric & ~extendable):
        d = D[i]
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
        mu_ids = flat[offsets[:, None] + np.arange(n)]
        source = np.empty((len(ids), n), dtype=np.int64)
        source[flat[:n], _occurrence(flat[:n], len(ids))] = np.arange(n)
        perms = source[mu_ids, _occurrence(mu_ids, len(ids))]
        Gs = np.stack([col.matrix for col in lam.columns])[perms]
        Hs = np.stack([col.matrix for i in chosen for col in mus[i].columns])
        k = lam.alphabet.k
        autos = transport_automorphisms(Gs.reshape(-1, sp.t, k), Hs, sp.q).reshape(-1, n, k, k)
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
    n = code.length
    if len(mmap.permutation) != n:
        raise DimensionMismatchError("monomial map size does not match code length")
    cols = []
    for i in range(n):
        G = code.columns[mmap.permutation[i]].matrix
        cols.append(mat_mul(G, mmap.automorphisms[i], code.space.q))
    return Code(code.alphabet, code.space, cols)


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
