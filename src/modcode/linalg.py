"""Exact linear algebra over prime fields F_q.

Matrices are plain numpy integer arrays with entries reduced mod q; the
modulus travels alongside as an explicit argument.  Subspaces of F_q^t are
canonicalized by their reduced row-echelon basis, so two equal subspaces are
structurally equal and hashable.

All arithmetic is exact: field operations use Python integer inverses
(q prime) and combinatorial counts use arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import budget
from .errors import DimensionMismatchError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(q: int) -> int:
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    return q


def as_matrix(entries, q: int) -> np.ndarray:
    """Coerce to a 2-d int64 array with entries reduced mod q."""
    M = np.asarray(entries, dtype=np.int64)
    if M.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={M.ndim}")
    return M % q


def rref(M, q: int):
    """Reduced row-echelon form over F_q.

    Returns ``(R, rank, pivots)`` where R is the unique RREF of M, rank is
    the number of nonzero rows and pivots lists the pivot column indices.
    """
    R = as_matrix(M, q).copy()
    n_rows, n_cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = -1
        for i in range(r, n_rows):
            if R[i, c] != 0:
                pivot_row = i
                break
        if pivot_row == -1:
            continue
        if pivot_row != r:
            R[[r, pivot_row]] = R[[pivot_row, r]]
        inv = pow(int(R[r, c]), q - 2, q) if q > 2 else 1
        if inv != 1:
            R[r] = (R[r] * inv) % q
        for i in range(n_rows):
            if i != r and R[i, c] != 0:
                R[i] = (R[i] - R[i, c] * R[r]) % q
        pivots.append(c)
        r += 1
    return R, len(pivots), pivots


# Entries of the largest stack one batched elimination reduces at once;
# taller stacks are reduced in chunks.
_ELIMINATION_CHUNK = 1 << 14
# Below this many matrices the scalar rref is faster: a numpy pass per column
# costs about as much as eliminating several small matrices one by one.
_STACK_MIN = 8


def _inverses(values: np.ndarray, q: int) -> np.ndarray:
    """Inverses mod the prime q of an array of nonzero residues: values^(q-2) by squaring."""
    result = np.ones_like(values)
    e = q - 2
    while e:
        if e & 1:
            result = result * values % q
        values = values * values % q
        e >>= 1
    return result


def rref_stack(A, q: int):
    """Reduced row-echelon form over F_q of every matrix in an (n, r, c) stack.

    Returns ``(R, pivots)``: R holds the RREF of each matrix, bit-identical
    to :func:`rref`, and ``pivots[i, c]`` is True iff column c is a pivot
    column of matrix i.  The loop runs over columns only; every matrix that
    has a pivot in the current column is reduced in the same numpy pass,
    with the exact int64 arithmetic of :func:`rref`.  Stacks of fewer than
    ``_STACK_MIN`` matrices go through :func:`rref` one by one, and stacks of
    more than ``_ELIMINATION_CHUNK`` entries are reduced in chunks.
    """
    R = np.asarray(A, dtype=np.int64) % q
    if R.ndim != 3:
        raise DimensionMismatchError(f"expected an (n, r, c) stack, got ndim={R.ndim}")
    n, n_rows, n_cols = R.shape
    pivots = np.zeros((n, n_cols), dtype=bool)
    if n < _STACK_MIN:
        for i in range(n):
            R[i], _, columns = rref(R[i], q)
            pivots[i, columns] = True
        return R, pivots
    chunk = max(1, _ELIMINATION_CHUNK // max(1, n_rows * n_cols))
    if n > chunk:
        for start in range(0, n, chunk):
            R[start : start + chunk], pivots[start : start + chunk] = rref_stack(
                R[start : start + chunk], q
            )
        return R, pivots
    rank = np.zeros(n, dtype=np.int64)
    every = np.arange(n)
    below = np.arange(n_rows)[None, :]
    for c in range(n_cols):
        candidates = (R[:, :, c] != 0) & (below >= rank[:, None])
        found = candidates.any(axis=1)
        if not found.any():
            continue
        # Matrices without a pivot here get a no-op swap, scale and elimination.
        r = np.minimum(rank, n_rows - 1)
        p = np.where(found, candidates.argmax(axis=1), r)
        top = R[every, p]
        R[every, p] = R[every, r]
        top = top * _inverses(np.where(found, top[:, c], 1), q)[:, None] % q
        R[every, r] = top
        factors = R[:, :, c] * found[:, None]
        factors[every, r] = 0
        tail = R[:, :, c:]
        tail -= factors[:, :, None] * top[:, None, c:]
        tail %= q
        pivots[:, c] = found
        rank += found
    return R, pivots


def matrix_rank(M, q: int) -> int:
    return rref(M, q)[1]


def inverse(M, q: int) -> np.ndarray:
    """Inverse of a square matrix over F_q; raises on singular input."""
    M = as_matrix(M, q)
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatchError("inverse needs a square matrix")
    aug = np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
    R, rank, _ = rref(aug, q)
    if rank < n or not np.array_equal(R[:, :n], np.eye(n, dtype=np.int64)):
        raise ValueError("matrix is singular over F_q")
    return R[:, n:]


class Subspace:
    """A canonical subspace of F_q^t.

    The basis is stored in reduced row-echelon form with no zero rows, so
    equality and hashing are structural.  Instances are immutable.
    """

    __slots__ = ("q", "ambient", "basis", "_key")

    def __init__(self, q: int, ambient: int, basis: np.ndarray):
        # Trusted constructor: basis must already be canonical (RREF, no
        # zero rows).  Use from_rows() for arbitrary spanning sets.
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ambient", ambient)
        b = np.ascontiguousarray(basis, dtype=np.int64)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        # Equality and hashing compare this key, never the arrays.
        object.__setattr__(self, "_key", (q, ambient, b.shape[0], b.tobytes()))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, rows, q: int, ambient: int | None = None) -> "Subspace":
        M = np.asarray(rows, dtype=np.int64)
        if M.ndim == 1:
            M = M.reshape(1, -1)
        if M.size == 0:
            if ambient is None:
                raise DimensionMismatchError("ambient required for an empty spanning set")
            return cls.zero(q, ambient)
        if ambient is None:
            ambient = M.shape[1]
        elif ambient != M.shape[1]:
            raise DimensionMismatchError(f"rows have length {M.shape[1]}, ambient is {ambient}")
        R, rank, _ = rref(M, q)
        return cls(q, ambient, R[:rank])

    @classmethod
    def zero(cls, q: int, ambient: int) -> "Subspace":
        return cls(q, ambient, np.zeros((0, ambient), dtype=np.int64))

    @classmethod
    def full(cls, q: int, ambient: int) -> "Subspace":
        return cls(q, ambient, np.eye(ambient, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def sort_key(self):
        return self._key[2:]

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        rows = [list(map(int, row)) for row in self.basis]
        return f"Subspace(q={self.q}, ambient={self.ambient}, basis={rows})"


def _check_compatible(S: Subspace, T: Subspace) -> None:
    if S.q != T.q or S.ambient != T.ambient:
        raise DimensionMismatchError(
            f"subspaces live in different spaces: F_{S.q}^{S.ambient} vs F_{T.q}^{T.ambient}"
        )


def reduce_against(v: np.ndarray, S: Subspace) -> np.ndarray:
    """Reduce a row vector modulo the (RREF) basis of S."""
    w = v % S.q
    basis = S.basis
    for r in range(basis.shape[0]):
        c = int(np.argmax(basis[r] != 0)) if basis[r].any() else -1
        if c >= 0 and w[c] != 0:
            w = (w - w[c] * basis[r]) % S.q
    return w


def contains(S: Subspace, T: Subspace) -> bool:
    """True iff T is a subspace of S."""
    _check_compatible(S, T)
    if T.dim > S.dim:
        return False
    for row in T.basis:
        if reduce_against(row, S).any():
            return False
    return True


def subspace_sum(S: Subspace, T: Subspace) -> Subspace:
    _check_compatible(S, T)
    stacked = np.concatenate([S.basis, T.basis], axis=0)
    return Subspace.from_rows(stacked, S.q, S.ambient)


def distinct_rows(A) -> tuple[np.ndarray, np.ndarray]:
    """Classes of equal entries of an integer stack, numbered by first appearance.

    Returns ``(first, of_entry)``: the index of the first entry of each class
    and the class of every entry.  Entries are hashed as byte strings in the
    narrowest integer type that holds them all, with no sort.
    """
    A = np.asarray(A)
    flat = A.reshape(len(A), math.prod(A.shape[1:]))
    if flat.size:
        small = np.result_type(np.min_scalar_type(flat.min()), np.min_scalar_type(flat.max()))
        flat = np.ascontiguousarray(flat, dtype=small)
    width = flat.itemsize * flat.shape[1]
    keys = flat.view(np.dtype((np.void, width))).ravel().tolist() if width else [b""] * len(flat)
    classes: dict = {}
    of_entry = np.array([classes.setdefault(key, len(classes)) for key in keys], dtype=np.int64)
    # A new class is one more than every class before it: the running maximum steps there.
    first = np.flatnonzero(np.diff(np.maximum.accumulate(of_entry), prepend=-1))
    return first, of_entry


def row_kernel_ids(Ms, q: int) -> tuple[list[Subspace], np.ndarray]:
    """Number the distinct row kernels of an (n, r, c) stack.

    Returns ``(kernels, ids)``: the distinct row kernels, F_q^r always last,
    and the index of each matrix's kernel among them.  Equal matrices merge
    first.  The kernel is orthogonal to the column space of M, whose key is
    the RREF C of M^T with its columns reversed: one batched elimination of
    the distinct c x r keys.  With P[f, p] the entry at column f of C's row
    with pivot p, row f of I - P is the null vector of C with free
    coordinate f; read with both axes reversed, these rows are the kernel's
    RREF basis, with no further elimination.
    """
    Ms = np.asarray(Ms, dtype=np.int64)
    if Ms.ndim != 3:
        raise DimensionMismatchError(f"expected an (n, r, c) stack, got ndim={Ms.ndim}")
    _, n_rows, n_cols = Ms.shape
    first, of_matrix = distinct_rows(Ms)
    R, pivots = rref_stack(np.ascontiguousarray(Ms[first].transpose(0, 2, 1)[:, :, ::-1]), q)
    # The zero key, of the kernel F_q^r, leads the keys so that F_q^r is always numbered.
    zero = np.zeros((1, n_cols, n_rows), dtype=np.int64)
    first, of_key = distinct_rows(np.concatenate([zero, R]))
    R, pivots = R[first[1:] - 1], pivots[first[1:] - 1]
    # Row i of a key is nonzero iff i < rank, and its pivot is the i-th pivot column.
    j, i = np.nonzero(R.any(axis=2))
    P = np.zeros((len(R), n_rows, n_rows), dtype=np.int64)
    P[j, :, np.nonzero(pivots)[1]] = R[j, i]
    bases = ((np.eye(n_rows, dtype=np.int64) - P) % q)[:, ::-1, ::-1]
    kernels = [Subspace(q, n_rows, B[free]) for B, free in zip(bases, ~pivots[:, ::-1])]
    # Key 0 is the zero key; F_q^r is numbered last.
    return [*kernels, Subspace.full(q, n_rows)], (of_key[1:][of_matrix] - 1) % len(first)


def row_kernel(M, q: int) -> Subspace:
    """Kernel of the row action v -> v M, as a subspace of F_q^rows(M)."""
    kernels, ids = row_kernel_ids(as_matrix(M, q)[None], q)
    return kernels[ids[0]]


def complete_bases(A, q: int) -> np.ndarray:
    """Extend the rows of each matrix in an (n, r, k) stack to a basis of F_q^k.

    Entry i is the k x k matrix of the greedy independent rows of ``A[i]``,
    in order, followed by the greedy unit vectors that complete them.  These
    are the pivot columns of the RREF of ``[A[i]^T | I_k]``.
    """
    A = np.asarray(A, dtype=np.int64) % q
    n, _, k = A.shape
    frames = np.concatenate([A, np.broadcast_to(np.eye(k, dtype=np.int64), (n, k, k))], axis=1)
    _, pivots = rref_stack(frames.transpose(0, 2, 1), q)
    return frames[pivots].reshape(n, k, k)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    _check_compatible(S, T)
    if S.dim == 0 or T.dim == 0:
        return Subspace.zero(S.q, S.ambient)
    stacked = np.concatenate([S.basis, T.basis], axis=0)
    ker = row_kernel(stacked, S.q)
    if ker.dim == 0:
        return Subspace.zero(S.q, S.ambient)
    coeffs = ker.basis[:, : S.dim]
    rows = coeffs @ S.basis % S.q
    return Subspace.from_rows(rows, S.q, S.ambient)


def orthogonal(S: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product on F_q^t."""
    if S.dim == 0:
        return Subspace.full(S.q, S.ambient)
    return row_kernel(S.basis.T, S.q)


def gaussian_binomial(t: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of F_q^t, exactly."""
    if i < 0 or i > t:
        return 0
    num = 1
    den = 1
    for j in range(i):
        num *= q ** (t - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def check_identities_budget(tmax: int, q: int) -> None:
    """Budget the identity checks for t = 1 .. tmax in 64-bit words of exact integers.

    Row t has t + 1 terms q^binom(i,2) C(t,i)_q, each below q^(t^2), so the
    rows up to tmax hold at most sum_t (t + 1) t^2 bit_length(q) bits.
    """
    squares = tmax * (tmax + 1) * (2 * tmax + 1) // 6
    cubes = (tmax * (tmax + 1) // 2) ** 2
    words = q.bit_length() * (cubes + squares) // 64
    budget.check_vectors(words, "q-binomial identity check (one vector per 64-bit word)")


def cauchy_identities_check(t: int, q: int) -> bool:
    """Check the two exact q-binomial sum identities for the given t, q.

    Alternating:  sum_{i=0}^{t-1} (-1)^i q^binom(i,2) C(t,i)_q = (-1)^(t-1) q^binom(t,2)
    Plain:        sum_{i=0}^{t}   q^binom(i,2) C(t,i)_q = prod_{i=0}^{t-1} (1 + q^i)

    Row t of the q-binomials is built term by term,
    C(t,i)_q = C(t,i-1)_q (q^(t-i+1) - 1) / (q^i - 1), and each division is exact.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    check_identities_budget(t, q)
    terms = []  # q^binom(i,2) C(t,i)_q for i = 0 .. t
    binom = power = 1
    for i in range(t + 1):
        terms.append(power * binom)
        binom = binom * (q ** (t - i) - 1) // (q ** (i + 1) - 1)
        power *= q**i
    alternating = sum(term if i % 2 == 0 else -term for i, term in enumerate(terms[:-1]))
    if alternating != (-1) ** (t - 1) * terms[-1]:
        return False
    product = 1
    for i in range(t):
        product *= 1 + q**i
    return sum(terms) == product


def count_subspaces_containing(X: Subspace, i: int) -> int:
    """Number of i-dimensional subspaces of the ambient space containing X."""
    p = X.dim
    t = X.ambient
    if not p <= i <= t:
        raise DimensionMismatchError(f"need dim(X)={p} <= i={i} <= ambient={t}")
    return gaussian_binomial(t - p, i - p, X.q)


def _check_subspace_count(q: int, t: int, d: int) -> None:
    if not 0 <= d <= t:
        raise DimensionMismatchError(f"need 0 <= d={d} <= t={t}")
    budget.check_subspaces(gaussian_binomial(t, d, q))


def _check_subspaces_up_to_dim(q: int, t: int, max_dim: int) -> None:
    for d in range(min(max_dim, t) + 1):
        _check_subspace_count(q, t, d)


@budget.checked_cache(_check_subspace_count)
def enumerate_subspaces(q: int, t: int, d: int) -> tuple[Subspace, ...]:
    """All d-dimensional subspaces of F_q^t, canonical and sorted."""
    if d == 0:
        return (Subspace.zero(q, t),)
    out = []
    for pivots in itertools.combinations(range(t), d):
        pivot_set = set(pivots)
        free_positions = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, t)
            if c not in pivot_set
        ]
        base = np.zeros((d, t), dtype=np.int64)
        for r, c in enumerate(pivots):
            base[r, c] = 1
        for values in itertools.product(range(q), repeat=len(free_positions)):
            M = base.copy()
            for (r, c), v in zip(free_positions, values):
                M[r, c] = v
            out.append(Subspace(q, t, M))
    out.sort(key=Subspace.sort_key)
    assert len(out) == gaussian_binomial(t, d, q)
    return tuple(out)


@budget.checked_cache(_check_subspaces_up_to_dim)
def subspaces_up_to_dim(q: int, t: int, max_dim: int) -> tuple[Subspace, ...]:
    """All subspaces of F_q^t of dimension <= max_dim, sorted canonically."""
    out: list[Subspace] = []
    for d in range(min(max_dim, t) + 1):
        out.extend(enumerate_subspaces(q, t, d))
    return tuple(out)


# Entries of the largest intermediate array one containment pass builds;
# wider tables are computed in column chunks.
_CONTAINMENT_CHUNK = 1 << 14


class SubspaceLattice:
    """The subspaces of F_q^t of dimension <= max_dim, with a vectorized containment test.

    Subspace ``subspaces[i]`` has id ``i``; ids follow the canonical order of
    :func:`subspaces_up_to_dim`, so they are stable across calls.  One
    containment pass decides ``S <= K`` for every lattice subspace S and
    every given support K at once, by the annihilator test: with P_K the
    projection that rebuilds a vector from its pivot coordinates in K's RREF
    basis, v lies in K iff v (P_K - I) = 0 mod q.  So S <= K iff every row
    of S's RREF basis passes.  Those rows are normalised points of
    PG(t-1, q), shared by many subspaces, so the lattice numbers its
    distinct rows once and each is tested once per support.  Use
    :func:`subspace_lattice`, which caches one lattice per (q, t, max_dim).
    """

    def __init__(self, q: int, t: int, max_dim: int):
        self.q = q
        self.t = t
        self.subspaces = subspaces_up_to_dim(q, t, max_dim)
        width = min(max_dim, t)
        # Row bases padded with zero rows, which lie in every subspace.
        bases = np.zeros((len(self.subspaces), width, t), dtype=np.int64)
        for i, S in enumerate(self.subspaces):
            bases[i, : S.dim] = S.basis
        rows = bases.reshape(len(self.subspaces) * width, t)
        first, of_row = distinct_rows(rows)
        self._points = rows[first]
        # Column c lists the point of row c of each subspace's padded basis.
        self._index = of_row.reshape(len(self.subspaces), width).T.copy()

    def __len__(self) -> int:
        return len(self.subspaces)

    def containment(self, supports) -> np.ndarray:
        """Boolean table Z with Z[i, j] iff subspaces[i] lies in supports[j]."""
        supports = list(supports)
        q, t = self.q, self.t
        for K in supports:
            if K.q != q or K.ambient != t:
                raise DimensionMismatchError(
                    f"support lives in F_{K.q}^{K.ambient}, the lattice in F_{q}^{t}"
                )
        # residual[j] = P_K - I for K = supports[j], built per support dimension.
        residual = np.tile(-np.eye(t, dtype=np.int64), (len(supports), 1, 1))
        dims = np.array([K.dim for K in supports], dtype=np.int64)
        for d in set(dims.tolist()) - {0}:
            same = np.flatnonzero(dims == d)
            B = np.stack([supports[j].basis for j in same])
            residual[same[:, None], np.argmax(B != 0, axis=2)] += B
        Z = np.ones((len(self), len(supports)), dtype=bool)
        chunk = max(1, _CONTAINMENT_CHUNK // max(1, self._points.size, len(self)))
        for start in range(0, len(supports), chunk):
            hits = self._points @ residual[start : start + chunk]
            hits %= q
            inside = ~hits.any(axis=2).T
            for column in self._index:
                Z[:, start : start + chunk] &= inside[column]
        return Z

    def balanced_rows(self, supports, W) -> np.ndarray:
        """Row i is True iff sum over j of W[i, j] * [S <= supports[j]] is 0 at every lattice S.

        ``W`` is an integer array of shape (rows, len(supports)).  Supports
        whose column vanishes in every row cancel before the one containment
        table is built, so one table and one product decide every row.  The
        product is exact: no partial sum exceeds max|W| * (columns) in
        absolute value, so it is taken in int64 when that bound is below
        2^63, else in Python ints.
        """
        W = np.asarray(W)
        live = (W != 0).any(axis=0)
        if not live.any():
            return np.ones(W.shape[0], dtype=bool)
        W = W[:, live]
        Z = self.containment(K for K, keep in zip(supports, live) if keep)
        if int(np.abs(W).max()) * W.shape[1] < 2**63:
            sums = Z.astype(np.int64) @ W.astype(np.int64).T
        else:
            sums = Z.astype(object) @ W.astype(object).T
        return ~sums.any(axis=0)


@budget.checked_cache(_check_subspaces_up_to_dim)
def subspace_lattice(q: int, t: int, max_dim: int) -> SubspaceLattice:
    """The shared containment engine for subspaces of F_q^t of dimension <= max_dim."""
    return SubspaceLattice(q, t, max_dim)
