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
    enumerate_subspaces,
    inverse,
    mat_mul,
    matrix_rank,
    row_kernel,
    subspace_lattice,
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
            if hom.space != space or hom.alphabet != alphabet:
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
    def identity(cls, n: int, k: int, q: int) -> "MonomialMap":
        eye = np.eye(k, dtype=np.int64)
        return cls(tuple(range(n)), tuple(eye for _ in range(n)), q)


@dataclass(frozen=True)
class Unextendable:
    """Witness that no monomial map exists: the kernel-multiset difference."""

    lambda_only: tuple[tuple[Subspace, int], ...]
    mu_only: tuple[tuple[Subspace, int], ...]


def matrix_row_support(X, q: int, t: int) -> Subspace:
    """Row space of an m x t matrix as a canonical subspace of F_q^t."""
    return Subspace.from_rows(np.asarray(X, dtype=np.int64), q, t)


def hamming_weight(word) -> int:
    """Number of nonzero blocks in a word over the matrix alphabet."""
    shapes = {np.asarray(block).shape for block in word}
    if len(shapes) > 1:
        raise DimensionMismatchError(f"inconsistent block shapes: {shapes}")
    return sum(1 for block in word if np.asarray(block).any())


def kernel_tuple(code: Code) -> tuple[Submodule, ...]:
    """Column kernels of a code, in column order."""
    return tuple(col.kernel() for col in code.columns)


def kernel_support_multiset(code: Code) -> Counter:
    return Counter(col.kernel().support for col in code.columns)


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
    """Hamming weight of the codeword of every source element, in one array."""
    sp = code.space
    E = module_elements(sp.q, sp.m, sp.t)
    weights = np.zeros(E.shape[0], dtype=np.int64)
    for col in code.columns:
        Y = np.tensordot(E, col.matrix, axes=([2], [0])) % sp.q
        weights += Y.reshape(Y.shape[0], -1).any(axis=1)
    return weights


def is_isometry_bruteforce(lam: Code, mu: Code) -> bool:
    """Exhaustive oracle: weights agree at every element of the source module."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return bool(np.array_equal(codeword_weights(lam), codeword_weights(mu)))


def satisfies_isometry_equation(V, U) -> bool:
    """Equality of the two kernel indicator sums, decided by counts.

    Every element of the source module has row space of dimension at most m,
    so equality of the two indicator sums is equivalent to equality of the
    kernel-containment counts at every subspace of dimension <= m.  Kernels
    common to both sides cancel first, so the counts run over the distinct
    supports of the multiset difference only.
    """
    V = tuple(V)
    U = tuple(U)
    if not V or not U:
        raise DimensionMismatchError("kernel tuples must be nonempty")
    sp = V[0].space
    for sub in V + U:
        if sub.space != sp:
            raise DimensionMismatchError("kernel tuples must share their source module")
    diff = Counter(s.support for s in V)
    diff.subtract(s.support for s in U)
    return subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced(diff)


def is_isometry_criterion(lam: Code, mu: Code) -> bool:
    """Decide whether two codes are Hamming-isometric via kernel counts."""
    if lam.space != mu.space:
        raise DimensionMismatchError("codes must share their source module")
    return satisfies_isometry_equation(kernel_tuple(lam), kernel_tuple(mu))


def is_trivial_solution(V, U) -> bool:
    """Multiset equality of kernel supports (equality up to permutation)."""
    V = tuple(V)
    U = tuple(U)
    if len(V) != len(U):
        raise DimensionMismatchError("kernel tuples must have equal length")
    return Counter(s.support for s in V) == Counter(s.support for s in U)


def _independent_row_indices(G: np.ndarray, q: int) -> list[int]:
    idx: list[int] = []
    for i in range(G.shape[0]):
        if matrix_rank(G[idx + [i]], q) > len(idx):
            idx.append(i)
    return idx


def _extend_to_invertible(B: np.ndarray, q: int, k: int) -> np.ndarray:
    """Stack unit rows under B until the k x k result is invertible."""
    rows = [B[i] for i in range(B.shape[0])]
    rank = len(rows)
    for j in range(k):
        if rank == k:
            break
        e = np.zeros(k, dtype=np.int64)
        e[j] = 1
        candidate = np.array(rows + [e], dtype=np.int64)
        if matrix_rank(candidate, q) > rank:
            rows.append(e)
            rank += 1
    return np.array(rows, dtype=np.int64)


def _transport_automorphism(G: np.ndarray, H: np.ndarray, q: int, k: int) -> np.ndarray:
    """Invertible P with G P = H, given equal row kernels.

    Maps a basis of rowspace(G) to the corresponding rows of H, and a
    complement of rowspace(G) in F_q^k to a complement of rowspace(H); this
    is the semisimple splitting argument made concrete.
    """
    idx = _independent_row_indices(G, q)
    BG = G[idx]
    BH = H[idx]
    FG = _extend_to_invertible(BG, q, k)
    FH = _extend_to_invertible(BH, q, k)
    P = mat_mul(inverse(FG, q), FH, q)
    if not np.array_equal(mat_mul(G, P, q), H % q):
        raise AssertionError("transport automorphism failed; kernels were not equal")
    return P


def extend_to_monomial(lam: Code, mu: Code):
    """Extend the isometry sending lam to mu, or report it unextendable.

    Requires the isometry criterion to hold.  Returns a MonomialMap whose
    application to lam reproduces mu column-by-column, or an Unextendable
    value carrying the kernel-multiset difference.
    """
    if not is_isometry_criterion(lam, mu):
        raise NotAnIsometryError("the codes are not Hamming-isometric")
    v_counter = kernel_support_multiset(lam)
    u_counter = kernel_support_multiset(mu)
    if v_counter != u_counter:
        lam_only = v_counter - u_counter
        mu_only = u_counter - v_counter
        key = Subspace.sort_key
        return Unextendable(
            lambda_only=tuple(sorted(lam_only.items(), key=lambda p: key(p[0]))),
            mu_only=tuple(sorted(mu_only.items(), key=lambda p: key(p[0]))),
        )
    q = lam.space.q
    k = lam.alphabet.k
    n = lam.length

    def order(code: Code) -> list[int]:
        supports = [col.kernel().support for col in code.columns]
        return sorted(range(n), key=lambda i: (supports[i].sort_key(), i))

    lam_order = order(lam)
    mu_order = order(mu)
    perm = [0] * n
    autos: list[np.ndarray] = [None] * n
    for src, dst in zip(lam_order, mu_order):
        perm[dst] = src
        autos[dst] = _transport_automorphism(
            lam.columns[src].matrix, mu.columns[dst].matrix, q, k
        )
    return MonomialMap(tuple(perm), tuple(autos), q)


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
