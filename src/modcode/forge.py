"""Construction of nontrivial solutions of the isometry equation.

Two routes are provided:

* the explicit minimum-length unextendable pair for a matrix-module alphabet
  with k > m, of length N = prod_{i=1..m} (1 + q^i);
* an incidence-matrix linearization whose integer kernel vectors are exactly
  the solutions, searched by branch and bound for the minimum-L1 nonzero
  vector, proving minimality at desk scale.
"""

from __future__ import annotations

from . import budget
from .codes import Alphabet, Code, ModuleSpace, Unextendable
from .errors import DomainRejectionError, RankInfeasibleError
from .linalg import (
    Record,
    check_subspace_of,
    enumerate_subspaces,
    integer_points,
    rref,
    subspaces_up_to_dim,
)


def counterexample_length(q: int, m: int) -> int:
    """Length of the minimal unextendable pair: prod_{i=1..m} (1 + q^i)."""
    N = 1
    for i in range(1, m + 1):
        N *= 1 + q**i
    return N


def kernel_generators(space: ModuleSpace, supports, k: int) -> list:
    """Deterministic t x k generators whose row kernels are exactly the given supports.

    With F the basis of F_q^t formed by the basis B of S followed by the
    greedy unit vectors e_u, u in U, that complete it, G = F^-1 maps the
    completing rows of F to the first t - dim(S) unit rows of F_q^k and S
    to zero.  So row u_l of G is the l-th unit row.  The other coordinates
    N are the column basis of B that greedy from the right picks (by
    matroid duality, the complement of the greedy U): the pivots of the
    RREF R of B with its columns reversed.  R G = 0 then gives
    G[n] = -(R[n][u] for u in U) on the row of R with pivot n.
    Infeasible when the required rank exceeds k.
    """
    supports = list(supports)
    t, q = space.t, space.q
    for S in supports:
        check_subspace_of(S, q, t)
        if t - S.dim > k:
            raise RankInfeasibleError(
                f"kernel of codimension {t - S.dim} needs k >= {t - S.dim}, got {k}"
            )
    out = []
    for S in supports:
        R, _, pivots = rref([b[::-1] for b in S.basis], q)
        others = [t - 1 - p for p in pivots]
        units = [u for u in range(t) if u not in others]
        G = [None] * t
        for l, u in enumerate(units):
            G[u] = tuple(int(j == l) for j in range(k))
        padding = (0,) * (k - len(units))
        for row, n in zip(R, others):
            G[n] = tuple(-row[t - 1 - u] % q for u in units) + padding
        out.append(tuple(G))
    return out


def minimal_counterexample(q: int, m: int, k: int) -> tuple[Code, Code]:
    """The minimum-length unextendable isometric pair for k > m.

    Works in the source module of m x (m+1) matrices.  For each subspace of
    F_q^(m+1) of codimension j, a column with that kernel support is added
    with multiplicity q^binom(j,2): to the first code when j is even, to the
    second when j is odd.  Both codes have length prod_{i=1..m} (1 + q^i);
    the first contains exactly one zero column and the second none, so the
    pair is an unextendable Hamming isometry.  Each side is realized as in
    :func:`solution_to_codes`, without its balance check: the caller decides
    the pair once, with ``extend_to_monomial``.
    """
    t = m + 1
    space = ModuleSpace(q, m, t)
    # Before the domain check, so that k < 1 is an input error.
    alphabet = Alphabet(q, m, k)
    if k <= m:
        raise DomainRejectionError(
            f"k={k} <= m={m}: the alphabet has the extension property, no counterexample exists"
        )
    supports = subspaces_up_to_dim(q, t, t)
    N = counterexample_length(q, m)
    # The pair's 2N generators of t x k entries, charged before any is allocated.
    budget.check_vectors(2 * N * t * k, "forged pair (one vector per generator entry)")
    sides: tuple[list, list] = ([], [])
    for S in supports:
        j = t - S.dim
        sides[j % 2].append((S, q ** (j * (j - 1) // 2)))
    lam, mu = (Code._unchecked(alphabet, space, _realize(space, side, k)) for side in sides)
    assert lam.length == mu.length == N
    return lam, mu


class IncidenceSystem(Record):
    """Containment system linearizing the isometry equation.

    Rows are the evaluation points (subspaces of dimension <= m), columns the
    candidate kernel supports (all subspaces unless restricted) in search
    order: by decreasing dimension, canonical within one.  Z[r] is the
    bitset of the columns that contain rows[r].  Integer vectors in the
    kernel of Z are exactly the solution pairs: positive entries form one
    side, negative entries the other.
    """

    __slots__ = ("rows", "cols", "Z")


def incidence_matrix(q: int, m: int, t: int, max_col_dim: int | None = None) -> IncidenceSystem:
    """Build the containment system for subspaces of F_q^t."""
    rows = ModuleSpace(q, m, t).lattice  # rejects q, m and t outside the exact domain
    if max_col_dim is None:
        max_col_dim = t
    cols = tuple(S for d in reversed(range(min(max_col_dim, t) + 1))
                 for S in enumerate_subspaces(q, t, d))
    budget.check_subspaces(len(rows) * len(cols), "incidence matrix construction")
    return IncidenceSystem(rows.subspaces, cols, tuple(rows.containment(cols)))


class SearchResult(Record):
    """Outcome of the minimum-L1 kernel search.

    min_length is half the L1 norm of the best witness (one side's length);
    both are None when no nonzero kernel vector exists within the bound.
    exhausted is True when the search provably covered every candidate.
    """

    __slots__ = ("min_length", "witness", "exhausted", "system")


def min_nontrivial_length(
    q: int,
    m: int,
    t: int,
    length_bound: int,
    max_col_dim: int | None = None,
) -> SearchResult:
    """Minimum one-side length of a nontrivial solution, by branch and bound.

    Searches the nonzero integer vectors in the kernel of the containment
    system with L1 norm at most 2 * length_bound: one signed
    :func:`~modcode.linalg.integer_points` pass over its columns, from base
    0, with its cap lowered to each better witness's L1 norm.  Each search
    node is charged to the vector budget; when the budget stops the search,
    it reports the best witness found so far with exhausted False.  Only an
    exhausted search breaks ties between optimal witnesses, by the
    lexicographically smallest assignment in search order.  The witness is
    re-decided with ``balanced_rows`` before it is returned.
    """
    if t < 1 or length_bound < 1:
        raise ValueError("need t >= 1 and length_bound >= 1")
    system = incidence_matrix(q, m, t, max_col_dim=max_col_dim)
    best = None

    def keep(y):
        nonlocal best
        used = sum(map(abs, y))
        if used and (best is None or (used, y) < best):
            best = used, y.copy()
            return used

    _, exhausted = integer_points(system.Z, [0] * len(system.cols), keep, 2 * length_bound)
    if best is None:
        return SearchResult(None, None, exhausted, system)
    if not ModuleSpace(q, m, t).lattice.balanced_rows(system.cols, [best[1]])[0]:
        raise AssertionError("search produced a vector outside the kernel")
    return SearchResult(best[0] // 2, tuple(best[1]), exhausted, system)


def _realize(space: ModuleSpace, side, k: int) -> tuple:
    """The generators of one side of a kernel difference: c copies of a generator per (S, c)."""
    G = kernel_generators(space, [S for S, _ in side], k)
    return tuple(g for g, (_, c) in zip(G, side) for _ in range(c))


def solution_to_codes(space: ModuleSpace, diff: Unextendable, k: int) -> tuple[Code, Code]:
    """Realize a kernel difference as two codes with those kernel multisets.

    The difference is checked first: every subspace lies in F_q^t, every
    count is positive, the sides have equal totals, and the containment
    counts agree at every subspace of dimension <= m, which is equivalent to
    the isometry equation on the module of m x t matrices.  The sides may
    share a subspace.
    """
    sides = diff.lambda_only, diff.mu_only
    for side in sides:
        for S, c in side:
            check_subspace_of(S, space.q, space.t)
            if c <= 0:
                raise ValueError("multiplicities must be positive")
    if sum(c for _, c in diff.lambda_only) != sum(c for _, c in diff.mu_only):
        raise ValueError("the two sides must have equal total multiplicity")
    weights = [[c for _, c in diff.lambda_only] + [-c for _, c in diff.mu_only]]
    if not space.lattice.balanced_rows([S for S, _ in diff.lambda_only + diff.mu_only], weights)[0]:
        raise ValueError("the pair does not satisfy the isometry equation")
    alphabet = Alphabet(space.q, space.m, k)
    return tuple(Code(alphabet, space, _realize(space, side, k)) for side in sides)
