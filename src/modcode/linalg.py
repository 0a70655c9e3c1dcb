"""Exact linear algebra over prime fields F_q.

Matrices are tuples of row tuples of Python ints reduced mod q; the modulus
travels alongside as an explicit argument.  Subspaces of F_q^t are
canonicalized by their reduced row-echelon basis, so two equal subspaces are
structurally equal and hashable.

The points of PG(t-1, q), the lines of F_q^t, are numbered: a point is its
normalized vector (first nonzero entry 1), and points are numbered in the
lexicographic order of those vectors.  A subspace's point set is one int
bitset, so containment is one AND.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import inf
from operator import and_, index, mul

from . import budget
from .errors import DimensionMismatchError


def is_prime(n: int) -> bool:
    """True iff n is a prime integer; a float or any other non-integer is not prime."""
    try:
        n = index(n)
    except TypeError:
        return False
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
    """Return q when it is a prime integer, else raise ValueError.

    A modulus with (q - 1)^2 >= 2^63, outside the exact int64 domain at any
    dimension, raises DimensionMismatchError before the primality test: trial
    division of a huge prime would not end.
    """
    try:
        huge = (index(q) - 1) ** 2 >= 2**63
    except TypeError:
        huge = False
    if huge:
        raise DimensionMismatchError(f"q={q} is too large for exact int64 arithmetic")
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    return q


def as_matrix(entries, q: int) -> tuple[tuple[int, ...], ...]:
    """Coerce a 2-d array-like of integers to a tuple of equal-length row tuples reduced mod q.

    An entry is coerced by ``operator.index``, so a float or a string is
    rejected, never truncated.  The modulus q must be an integer >= 2.
    """
    try:
        if index(q) < 2:
            raise DimensionMismatchError(f"the modulus must be at least 2, got {q}")
        M = tuple(tuple([index(x) % q for x in row]) for row in entries)
    except TypeError as exc:
        raise DimensionMismatchError(f"expected a 2-d matrix of integer entries: {exc}") from exc
    if len({len(row) for row in M}) > 1:
        raise DimensionMismatchError("matrix rows have unequal lengths")
    return M


def mat_mul(A, B, q: int) -> tuple[tuple[int, ...], ...]:
    """The product A B over F_q of two matrices given as row tuples; B has at least one row."""
    if any(len(row) != len(B) for row in A):
        raise DimensionMismatchError(f"inner dimensions differ: a row of A is not {len(B)} long")
    columns = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) % q for col in columns) for row in A)


def rref(M, q: int):
    """Reduced row-echelon form over F_q.

    Returns ``(R, rank, pivots)`` where R is the unique RREF of M (as many
    rows as M, zero rows last), rank is the number of nonzero rows and
    pivots lists the pivot column indices.
    """
    R = list(as_matrix(M, q))
    n_rows = len(R)
    pivots: list[int] = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        for i in range(r, n_rows):
            if R[i][c]:
                break
        else:
            continue
        top = R[i]
        R[i] = R[r]
        if top[c] != 1:
            inv = pow(top[c], -1, q)
            top = [x * inv % q for x in top]
        R[r] = top
        for i, row in enumerate(R):
            f = row[c]
            if f and i != r:
                R[i] = [(x - f * y) % q for x, y in zip(row, top)]
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return tuple(map(tuple, R)), len(pivots), pivots


def matrix_rank(M, q: int) -> int:
    return rref(M, q)[1]


def complete_basis(rows, q: int, k: int) -> list:
    """The greedy independent rows, in order, then the greedy unit vectors: a basis of F_q^k.

    They are the pivot columns of the RREF of the matrix whose columns are
    the rows followed by the unit vectors.
    """
    vectors = as_matrix([*rows, *(tuple(int(i == j) for j in range(k)) for i in range(k))], q)
    return [vectors[p] for p in rref(tuple(zip(*vectors)), q)[2]]


def point_index(v, q: int) -> int:
    """The number of the point of PG(t-1, q) whose normalized vector is v.

    With the leading 1 of v at position t-1-r, the points with a later
    leading entry come first, (q^r - 1)/(q - 1) of them, and v follows at the
    base-q value of its entries after the leading 1.
    """
    lead = next(i for i, x in enumerate(v) if x)
    number = 0
    for x in v[lead + 1 :]:
        number = number * q + x
    r = len(v) - 1 - lead
    return (q**r - 1) // (q - 1) + number


def members(bits: int):
    """The positions of the set bits of a bitset, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Record:
    """An immutable record whose positional fields are its public ``__slots__``.

    A subclass's slots are those it inherits followed by its own ``__slots__``.
    Equality, hashing and the repr use the field values in slot order, and
    ``_check`` validates them once they are set.  A slot whose name starts
    with ``_`` is a cache, not a field; cache slots come last, and
    ``_unchecked`` fills them after the fields (None when not given).
    Assignment raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._slots = sum((vars(c).get("__slots__", ()) for c in reversed(cls.__mro__)), ())
        cls._fields = tuple(name for name in cls._slots if not name.startswith("_"))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes fields {', '.join(self._fields)}")
        for name, value in itertools.zip_longest(self._slots, values):
            object.__setattr__(self, name, value)
        self._check()

    @classmethod
    def _unchecked(cls, *values):
        """A record from fields the caller has already validated; ``_check`` is skipped."""
        record = object.__new__(cls)
        for name, value in itertools.zip_longest(cls._slots, values):
            object.__setattr__(record, name, value)
        return record

    def _check(self) -> None:
        """Validate the fields; a subclass overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        # False, not NotImplemented, for another type: an array would compare elementwise.
        return other is self or type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Subspace(Record):
    """A canonical subspace of F_q^t.

    The basis is a tuple of RREF rows with no zero rows, so equality and
    hashing are structural.  ``points`` is the bitset of the points of
    PG(t-1, q) in the subspace, cached in ``_points`` on first use.  The
    constructor checks that q is prime and that the basis is already
    canonical.
    """

    __slots__ = ("q", "ambient", "basis", "_points")

    def _check(self):
        try:
            ambient = index(self.ambient)
        except TypeError as exc:
            raise DimensionMismatchError(f"ambient must be an integer: {exc}") from exc
        B = as_matrix(self.basis, self.q)
        # Before the elimination, which inverts pivots mod q.
        check_prime(self.q)
        R, rank, _ = rref(B, self.q)
        shaped = ambient >= 0 and all(len(row) == ambient for row in B)
        if not shaped or tuple(map(tuple, self.basis)) != R[:rank]:
            raise DimensionMismatchError(f"a basis must be its own RREF, with no zero rows, "
                                         f"of rows of {ambient} entries in [0, {self.q})")
        object.__setattr__(self, "basis", R[:rank])

    @classmethod
    def from_points(cls, q: int, ambient: int, bits: int) -> "Subspace":
        """The subspace whose point set is the bitset ``bits``, which must be a subspace's.

        Every point of a subspace leads at a pivot of its RREF basis, and the
        basis row with pivot p is the point of least number among those
        leading at p, the points numbered (q^r - 1)/(q - 1) up to
        (q^(r+1) - 1)/(q - 1) with r = ambient - 1 - p.
        """
        points = projective_points(q, ambient)
        basis = []
        for r in reversed(range(ambient)):
            lead = bits & ((1 << q**r) - 1) << (q**r - 1) // (q - 1)
            if lead:
                basis.append(points[(lead & -lead).bit_length() - 1])
        return cls._unchecked(q, ambient, tuple(basis), bits)

    @classmethod
    def zero(cls, q: int, ambient: int) -> "Subspace":
        return cls._unchecked(q, ambient, (), 0)

    @classmethod
    def full(cls, q: int, ambient: int) -> "Subspace":
        eye = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return cls._unchecked(q, ambient, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def points(self) -> int:
        """Bit i is set iff point i of PG(ambient - 1, q) lies in the subspace.

        Every point is b_i + sum_{j > i} a_j b_j for exactly one basis row b_i
        and coefficients a_j: the RREF makes that vector's leading entry the
        1 at b_i's pivot.
        """
        if self._points is None:
            q = self.q
            count = gaussian_binomial(self.dim, 1, q)
            budget.check_subspaces(count, "points of a subspace")
            bits = (1 << count) - 1 if self.dim == self.ambient else 0
            for i, top in enumerate(self.basis if not bits else ()):
                rest = self.basis[i + 1 :]
                for coeffs in itertools.product(range(q), repeat=len(rest)):
                    v = top
                    for a, row in zip(coeffs, rest):
                        if a:
                            v = [(x + a * y) % q for x, y in zip(v, row)]
                    bits |= 1 << point_index(v, q)
            object.__setattr__(self, "_points", bits)
        return self._points

    def sort_key(self):
        return len(self.basis), self.basis

    def __repr__(self) -> str:
        rows = [list(row) for row in self.basis]
        return f"Subspace(q={self.q}, ambient={self.ambient}, basis={rows})"


def check_subspace_of(S: Subspace, q: int, t: int) -> None:
    """Raise DimensionMismatchError unless S is a subspace of F_q^t."""
    if S.q != q or S.ambient != t:
        raise DimensionMismatchError(f"a subspace of F_{S.q}^{S.ambient} does not lie in F_{q}^{t}")


def contains(S: Subspace, T: Subspace) -> bool:
    """True iff T is a subspace of S."""
    check_subspace_of(T, S.q, S.ambient)
    return T.dim <= S.dim and not T.points & ~S.points


def row_kernel(M, q: int) -> Subspace:
    """Kernel of the row action v -> v M, as a subspace of F_q^rows(M).

    The one-matrix case of :func:`number_row_kernels`, so it enumerates the
    points of PG(rows(M) - 1, q) under the subspace budget: a 21 x 1 binary
    matrix, with 2,097,151 points, is refused at the default budget.
    """
    M = as_matrix(M, q)
    kernels, (i,) = number_row_kernels([M], q, len(M))
    return kernels[i]


def orthogonal(S: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product on F_q^t."""
    if S.dim == 0:
        return Subspace.full(S.q, S.ambient)
    return row_kernel(tuple(zip(*S.basis)), S.q)


@budget.cached
def projective_points(q: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The normalized vectors of the points of PG(t-1, q), in point order.

    A point is a line of F_q^t, and its vector is the line's RREF basis row,
    so the points are read off :func:`enumerate_subspaces`, which charges them.
    """
    return tuple(L.basis[0] for L in enumerate_subspaces(q, t, 1)) if t else ()


def number_row_kernels(matrices, q: int, rows: int) -> tuple[list[Subspace], list[int]]:
    """Number the distinct row kernels of a sequence of matrices with ``rows`` rows.

    Returns ``(kernels, ids)``: the distinct row kernels, F_q^rows always
    last, and the index of each matrix's kernel among them.  A matrix's
    kernel is the AND of the hyperplanes c^perp of its columns c, as point
    bitsets; each distinct column's hyperplane and each distinct matrix's
    kernel is computed once, and its basis read off by
    :meth:`Subspace.from_points`.
    """
    points = projective_points(q, rows)
    full = (1 << len(points)) - 1
    planes: dict = {}
    kernel_of: dict = {}
    numbers: dict[int, int] = {}
    ids = []
    for M in matrices:
        bits = kernel_of.get(M)
        if bits is None:
            bits = full
            for c in zip(*M):
                plane = planes.get(c)
                if plane is None:
                    plane = planes[c] = sum(
                        1 << i for i, p in enumerate(points) if not sum(map(mul, p, c)) % q
                    )
                bits &= plane
            kernel_of[M] = bits
        ids.append(numbers.setdefault(bits, len(numbers)) if bits != full else -1)
    kernels = [Subspace.from_points(q, rows, bits) for bits in numbers]
    return [*kernels, Subspace.full(q, rows)], [len(numbers) if j < 0 else j for j in ids]


def supports_at_points(q: int, t: int, supports) -> list[int]:
    """Entry p is the bitset of the j with point p of PG(t-1, q) in supports[j]."""
    at_point = [0] * gaussian_binomial(t, 1, q)
    for j, K in enumerate(supports):
        check_subspace_of(K, q, t)
        for p in members(K.points):
            at_point[p] |= 1 << j
    return at_point


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


@budget.cached
def enumerate_subspaces(q: int, t: int, d: int) -> tuple[Subspace, ...]:
    """All d-dimensional subspaces of F_q^t, canonical and sorted."""
    if not 0 <= d <= t:
        raise DimensionMismatchError(f"need 0 <= d={d} <= t={t}")
    # C(t, d)_q >= q^(d (t - d)).
    budget.check_subspaces(lambda: gaussian_binomial(t, d, q), power=(q, d * (t - d)))
    if d == 0:
        return (Subspace.zero(q, t),)
    out = []
    for pivots in itertools.combinations(range(t), d):
        # The RREF rows with pivot p are free after p outside the pivots; a
        # basis picks one row per pivot.
        rows = [
            list(itertools.product(*(range(q) if c > p and c not in pivots else (int(c == p),)
                                     for c in range(t))))
            for p in pivots
        ]
        out.extend(Subspace._unchecked(q, t, basis) for basis in itertools.product(*rows))
    out.sort(key=Subspace.sort_key)
    assert len(out) == gaussian_binomial(t, d, q)
    return tuple(out)


@budget.cached
def subspaces_up_to_dim(q: int, t: int, max_dim: int) -> tuple[Subspace, ...]:
    """All subspaces of F_q^t of dimension <= max_dim, sorted canonically."""
    out: list[Subspace] = []
    for d in range(min(max_dim, t) + 1):
        out.extend(enumerate_subspaces(q, t, d))
    return tuple(out)


class SubspaceLattice:
    """The subspaces of F_q^t of dimension <= max_dim, with a bitset containment test.

    Subspace ``subspaces[i]`` has id ``i``; ids follow the canonical order of
    :func:`subspaces_up_to_dim`, so they are stable across calls.  S lies in
    a support K iff every row of S's RREF basis, a normalized point of
    PG(t-1, q), is a point of K.  So one pass over the supports' point
    bitsets gives, for each point, the bitset of the supports containing
    it, and the supports containing S are the AND of those of its basis
    rows.  Use :func:`subspace_lattice`, which caches one lattice per
    (q, t, max_dim) and budget.
    """

    def __init__(self, q: int, t: int, max_dim: int):
        self.q = q
        self.t = t
        self.subspaces = subspaces_up_to_dim(q, t, max_dim)
        self._rows = [[point_index(row, q) for row in S.basis] for S in self.subspaces]

    def __len__(self) -> int:
        return len(self.subspaces)

    def containment(self, supports) -> list[int]:
        """Entry i is the bitset of the j with subspaces[i] inside supports[j]."""
        supports = list(supports)
        containing = supports_at_points(self.q, self.t, supports)
        every = (1 << len(supports)) - 1
        return [reduce(and_, (containing[p] for p in rows), every) for rows in self._rows]

    def balanced_rows(self, supports, W) -> list[bool]:
        """Entry i is True iff sum over j of W[i][j] * [S <= supports[j]] is 0 at every lattice S.

        ``W`` is a sequence of integer rows of len(supports) entries.
        Supports whose column vanishes in every row cancel before the one
        containment table is built.  Per row, the live supports are grouped
        by their count w, and the sum at S is sum over w of
        w * |containing(S) & group(w)|, exact in Python ints.  Lattice
        subspaces with equal containing sets are decided once.
        """
        live = [j for j in range(len(supports)) if any(row[j] for row in W)]
        table = set(self.containment(supports[j] for j in live))
        out = []
        for row in W:
            groups: dict[int, int] = {}
            for b, j in enumerate(live):
                if row[j]:
                    groups[row[j]] = groups.get(row[j], 0) | 1 << b
            out.append(not any(
                sum(w * (bits & group).bit_count() for w, group in groups.items())
                for bits in table
            ))
        return out


@budget.cached
def subspace_lattice(q: int, t: int, max_dim: int) -> SubspaceLattice:
    """The shared containment engine for subspaces of F_q^t of dimension <= max_dim."""
    return SubspaceLattice(q, t, max_dim)


def integer_points(rows, base, found, cap=None) -> tuple[int, bool]:
    """Every integer vector y with Z y = Z base, depth first; returns (nodes, exhausted).

    Row r of Z is the bitset ``rows[r]`` of its columns, which are numbered
    in search order, and every column lies in some row.  Equal rows are one
    row, and an empty row, whose equation is 0 = 0, is dropped.  Without a
    ``cap`` the values are y >= 0; with one, an upper bound on the L1 norm
    of y, they are signed.

    The columns are set in order on an explicit stack, so no number of
    columns meets the recursion limit.  A row's residual is its entry of
    Z (base - y) over the columns set so far.  A column that is the last of
    some row is forced to that row's residual, which every row it closes
    must share.  Otherwise its values run
    0, -1, 1, -2, 2, ..., the signed ones up to the L1 room left under the
    cap, the values y >= 0 up to the least residual of the column's rows,
    so that none goes negative.  Under a cap, a value is skipped when it
    leaves a row of its column that is still open with a residual larger
    than the room left after it, as the row's other columns can no longer
    bring it back to zero.

    At each solution ``found(y)`` is called with y, a list the search goes
    on to change; a number it returns becomes the cap from the next node
    on, so a caller may lower it between solutions.  The search charges
    one vector of the budget per node it enters and stops on entering node
    ``budget.vector_budget() + 1``, with exhausted False.
    """
    rows = [bits for bits in dict.fromkeys(rows) if bits]
    rows_of: list[list[int]] = [[] for _ in base]
    closes: list[list[int]] = [[] for _ in base]
    residual = []
    for r, bits in enumerate(rows):
        cols = list(members(bits))
        for j in cols:
            rows_of[j].append(r)
        closes[cols[-1]].append(r)
        residual.append(sum(base[j] for j in cols))
    signed, limit = cap is not None, budget.vector_budget()
    if signed:
        open_rows = [[r for r in rs if r not in last] for rs, last in zip(rows_of, closes)]
    else:
        cap, open_rows = inf, [()] * len(base)

    def signed_values(hi: int):
        yield 0
        for v in range(1, hi + 1):
            yield -v
            yield v

    y = [0] * len(base)
    # One frame per entered column: its position, the L1 norm before it, the
    # room left on entry and the values still to try.  y[pos] holds the value
    # the frame last took from its rows' residuals.
    stack: list = []
    nodes = pos = used = 0
    while True:
        nodes += 1
        if nodes > limit:
            return nodes, False
        if pos == len(y):
            lowered = found(y)
            if lowered is not None:
                cap = lowered
        elif used <= cap:
            slack = cap - used
            closing = closes[pos]
            hi = slack if signed else min(slack, min(residual[r] for r in rows_of[pos]))
            if closing:
                v = residual[closing[0]]
                feasible = abs(v) <= hi and all(residual[r] == v for r in closing)
                values = iter((v,) if feasible else ())
            else:
                values = signed_values(hi) if signed else iter(range(hi + 1))
            stack.append((pos, used, slack, values))
        # Move the deepest frame to its next feasible value; pop spent frames.
        while stack:
            frame_pos, frame_used, slack, values = stack[-1]
            touched = rows_of[frame_pos]
            v = y[frame_pos]
            if v:
                for r in touched:
                    residual[r] += v
            for v in values:
                if v:
                    for r in touched:
                        residual[r] -= v
                room = slack - abs(v)
                if all(abs(residual[r]) <= room for r in open_rows[frame_pos]):
                    break
                if v:
                    for r in touched:
                        residual[r] += v
            else:
                y[frame_pos] = 0
                stack.pop()
                continue
            y[frame_pos] = v
            pos, used = frame_pos + 1, frame_used + abs(v)
            break
        else:
            return nodes, True
