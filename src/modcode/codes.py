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


def transport_automorphisms(Gs, Hs, q: int) -> np.ndarray:
    """Invertible P_i with G_i P_i = H_i, for a stack of t x k pairs with equal row kernels.

    F_G completes the greedy independent rows of G with unit vectors to a
    basis of F_q^k, and F_H does the same for H, whose independent rows sit
    at the same indices.  P = F_G^-1 F_H, the right block of the RREF of
    [F_G | F_H], maps a basis of rowspace(G) to the matching rows of H and a
    complement to a complement: the semisimple splitting argument made
    concrete.  Two batched eliminations serve the whole stack.
    """
    Gs = np.asarray(Gs, dtype=np.int64) % q
    Hs = np.asarray(Hs, dtype=np.int64) % q
    n, _, k = Gs.shape
    frames = complete_bases(np.concatenate([Gs, Hs]), q)
    R, _ = rref_stack(np.concatenate([frames[:n], frames[n:]], axis=2), q)
    P = R[:, :, k:]
    if ((Gs @ P) % q != Hs).any():
        raise AssertionError("transport automorphism failed; kernels were not equal")
    return P


def _by_support(counter: Counter) -> tuple[tuple[Subspace, int], ...]:
    return tuple(sorted(counter.items(), key=lambda p: p[0].sort_key()))


def _kernel_order(code: Code) -> list[int]:
    """Column indices sorted by kernel support, ties by index."""
    supports = [K.support for K in hom_kernels(code.columns)]
    return sorted(range(code.length), key=lambda i: (supports[i].sort_key(), i))


def extend_to_monomials(lam: Code, mus) -> list:
    """Extend the isometries sending lam to each of many images.

    Returns one entry per image: a MonomialMap whose application to lam
    reproduces the image column by column, an Unextendable value carrying
    the kernel-multiset difference, or None when the kernel-count criterion
    rejects the image.  The column kernels of all codes come from one
    batched elimination and the automorphisms of all extendable images from
    one batched transport.
    """
    mus = list(mus)
    for mu in mus:
        if mu.space != lam.space or mu.alphabet != lam.alphabet:
            raise DimensionMismatchError("codes must share their source module and alphabet")
    hom_kernels(itertools.chain(lam.columns, *(mu.columns for mu in mus)))
    v_counter = kernel_support_multiset(lam)
    lam_order = _kernel_order(lam)
    results: list = []
    Gs: list[np.ndarray] = []
    Hs: list[np.ndarray] = []
    for mu in mus:
        if not is_isometry_criterion(lam, mu):
            results.append(None)
            continue
        u_counter = kernel_support_multiset(mu)
        if v_counter != u_counter:
            results.append(Unextendable(
                _by_support(v_counter - u_counter), _by_support(u_counter - v_counter)
            ))
            continue
        perm = [0] * lam.length
        for src, dst in zip(lam_order, _kernel_order(mu)):
            perm[dst] = src
        results.append(tuple(perm))
        Gs.extend(lam.columns[src].matrix for src in perm)
        Hs.extend(col.matrix for col in mu.columns)
    if Gs:
        autos = iter(transport_automorphisms(Gs, Hs, lam.space.q))
        for i, perm in enumerate(results):
            if isinstance(perm, tuple):
                own = tuple(next(autos) for _ in perm)
                results[i] = MonomialMap(perm, own, lam.space.q)
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
