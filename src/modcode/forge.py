"""Construction of nontrivial solutions of the isometry equation.

Three routes are provided:

* inclusion-exclusion over a covering of a non-cyclic submodule, which
  produces a nontrivial solution with 2^(r-1) terms per side;
* the explicit minimum-length unextendable pair for a matrix-module alphabet
  with k > m, of length N = prod_{i=1..m} (1 + q^i);
* an incidence-matrix linearization whose integer kernel vectors are exactly
  the solutions, searched by branch and bound for the minimum-L1 nonzero
  vector, proving minimality at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import budget
from .codes import Alphabet, Code, ModuleSpace, Submodule
from .errors import (
    DimensionMismatchError,
    DomainRejectionError,
    NotACoverError,
    RankInfeasibleError,
)
from .linalg import (
    Subspace,
    complete_bases,
    contains,
    intersect,
    rref_stack,
    subspace_lattice,
    subspaces_up_to_dim,
)


def counterexample_length(q: int, m: int) -> int:
    """Length of the minimal unextendable pair: prod_{i=1..m} (1 + q^i)."""
    N = 1
    for i in range(1, m + 1):
        N *= 1 + q**i
    return N


@dataclass(frozen=True)
class SolutionPair:
    """Two weighted multisets of subspaces satisfying the isometry equation.

    Validated on construction: containment counts agree at every subspace of
    dimension <= m, which is equivalent to the functional equation on the
    module of m x t matrices.
    """

    space: ModuleSpace
    V: tuple[tuple[Subspace, int], ...]
    U: tuple[tuple[Subspace, int], ...]

    def __post_init__(self):
        for side in (self.V, self.U):
            for S, mult in side:
                if S.q != self.space.q or S.ambient != self.space.t:
                    raise DimensionMismatchError("supports must be subspaces of F_q^t")
                if mult <= 0:
                    raise ValueError("multiplicities must be positive")
        if self.length(self.V) != self.length(self.U):
            raise ValueError("the two sides must have equal total multiplicity")
        # Object entries keep multiplicities of any size exact.
        weights = np.array([[c for _, c in self.V] + [-c for _, c in self.U]], dtype=object)
        sp = self.space
        lattice = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t))
        if not lattice.balanced_rows([K for K, _ in self.V + self.U], weights)[0]:
            raise ValueError("the pair does not satisfy the isometry equation")

    @staticmethod
    def length(side) -> int:
        return sum(mult for _, mult in side)

    @classmethod
    def from_counters(cls, space: ModuleSpace, V: Counter, U: Counter) -> "SolutionPair":
        def canon(counter: Counter):
            return tuple(sorted(counter.items(), key=lambda p: p[0].sort_key()))

        return cls(space, canon(V), canon(U))


def inclusion_exclusion_solution(module: Submodule, covering) -> SolutionPair:
    """Nontrivial solution from a covering of a module by proper submodules.

    Intersections over even-size index subsets land on one side, odd-size on
    the other; the empty intersection is the module itself, so the covered
    module appears only on the even side and the solution is nontrivial.
    """
    covering = list(covering)
    if not covering:
        raise NotACoverError("a covering needs at least one submodule")
    sp = module.space
    for E in covering:
        if E.space != sp:
            raise DimensionMismatchError("covering submodules must share the module space")
        if E.support.dim == 0:
            raise NotACoverError("covering submodules must be nonzero")
        if E.support == module.support or not contains(module.support, E.support):
            raise NotACoverError("covering submodules must be proper submodules")
    _verify_cover(module, covering)

    r = len(covering)
    even: Counter = Counter()
    odd: Counter = Counter()
    for mask in range(1 << r):
        support = module.support
        bits = 0
        for i in range(r):
            if mask >> i & 1:
                bits += 1
                support = intersect(support, covering[i].support)
        (even if bits % 2 == 0 else odd)[support] += 1
    return SolutionPair.from_counters(sp, even, odd)


def _verify_cover(module: Submodule, covering) -> None:
    """Check that the row space of every module element lies in some covering support."""
    # Those row spaces are exactly the subspaces of the support of dimension <= m.
    sp = module.space
    lattice = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t))
    Z = lattice.containment([module.support] + [E.support for E in covering])
    if (Z[:, 0] & ~Z[:, 1:].any(axis=1)).any():
        raise NotACoverError("an element of the module escapes every covering submodule")


def kernel_generators(space: ModuleSpace, supports, k: int) -> np.ndarray:
    """A stack of deterministic t x k generators whose row kernels are exactly the given supports.

    With F the basis of F_q^t formed by the basis of S followed by the
    greedy unit vectors that complete it, G = F^-1 maps the completing rows
    of F to the first t - dim(S) unit rows of F_q^k and S to zero.  Supports
    of equal dimension share two batched eliminations.  Infeasible when the
    required rank exceeds k.
    """
    supports = list(supports)
    t, q = space.t, space.q
    for S in supports:
        if S.q != q or S.ambient != t:
            raise DimensionMismatchError("kernel must be a subspace of F_q^t")
        if t - S.dim > k:
            raise RankInfeasibleError(
                f"kernel of codimension {t - S.dim} needs k >= {t - S.dim}, got {k}"
            )
    G = np.zeros((len(supports), t, k), dtype=np.int64)
    for d in sorted({S.dim for S in supports}):
        same = [i for i, S in enumerate(supports) if S.dim == d]
        F = complete_bases([supports[i].basis for i in same], q)
        eye = np.broadcast_to(np.eye(t, dtype=np.int64), F.shape)
        R, _ = rref_stack(np.concatenate([F, eye], axis=2), q)
        G[same, :, : t - d] = R[:, :, t + d :]
    return G


def minimal_counterexample(q: int, m: int, k: int) -> tuple[Code, Code]:
    """The minimum-length unextendable isometric pair for k > m.

    Works in the source module of m x (m+1) matrices.  For each subspace of
    F_q^(m+1) of codimension j, a column with that kernel support is added
    with multiplicity q^binom(j,2): to the first code when j is even, to the
    second when j is odd.  Both codes have length prod_{i=1..m} (1 + q^i);
    the first contains exactly one zero column and the second none, so the
    pair is an unextendable Hamming isometry.
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
    G = kernel_generators(space, supports, k)
    codim = [t - S.dim for S in supports]
    # Python ints: a multiplicity beyond int64 must fail, not wrap around.
    mult = np.array([q ** (j * (j - 1) // 2) for j in codim])
    even = np.array(codim) % 2 == 0
    lam = Code(alphabet, space, np.repeat(G[even], mult[even], axis=0))
    mu = Code(alphabet, space, np.repeat(G[~even], mult[~even], axis=0))
    assert lam.length == mu.length == N
    return lam, mu


@dataclass(frozen=True)
class IncidenceSystem:
    """Containment matrix linearizing the isometry equation.

    Rows are the evaluation points (subspaces of dimension <= m), columns the
    candidate kernel supports (all subspaces unless restricted), and
    Z[r, c] = 1 iff row subspace is contained in column subspace.  Integer
    vectors in the kernel of Z are exactly the solution pairs: positive
    entries form one side, negative entries the other.
    """

    rows: tuple[Subspace, ...]
    cols: tuple[Subspace, ...]
    Z: np.ndarray


def incidence_matrix(q: int, m: int, t: int, max_col_dim: int | None = None) -> IncidenceSystem:
    """Build the containment system for subspaces of F_q^t."""
    ModuleSpace(q, m, t)  # rejects q, m and t outside the exact domain
    rows = subspace_lattice(q, t, min(m, t))
    if max_col_dim is None:
        max_col_dim = t
    cols = subspaces_up_to_dim(q, t, min(max_col_dim, t))
    budget.check_subspaces(len(rows) * len(cols), "incidence matrix construction")
    Z = rows.containment(cols).astype(np.int8)
    Z.setflags(write=False)
    return IncidenceSystem(rows.subspaces, cols, Z)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the minimum-L1 kernel search.

    min_length is half the L1 norm of the best witness (one side's length);
    both are None when no nonzero kernel vector exists within the bound.
    exhausted is True when the search provably covered every candidate.
    """

    min_length: int | None
    witness: np.ndarray | None
    exhausted: bool
    system: IncidenceSystem


# Search nodes min_nontrivial_length visits before it stops with exhausted False.
NODE_BUDGET = 20_000_000


def min_nontrivial_length(
    q: int,
    m: int,
    t: int,
    length_bound: int,
    max_col_dim: int | None = None,
) -> SearchResult:
    """Minimum one-side length of a nontrivial solution, by branch and bound.

    Searches nonzero integer vectors in the kernel of the containment matrix
    with L1 norm at most 2 * length_bound.  Columns are processed in order of
    decreasing subspace dimension; whenever the column being assigned is the
    last remaining column containing some evaluation row, its value is forced
    by that row's partial sum, which collapses the search.  Ties between
    optimal witnesses are broken by the lexicographically smallest assignment
    in search order.  The search runs on an explicit stack of columns, so its
    depth is not bounded by the recursion limit; after NODE_BUDGET nodes it
    stops and reports the best witness found so far with exhausted False.
    """
    if t < 1 or length_bound < 1:
        raise ValueError("need t >= 1 and length_bound >= 1")
    system = incidence_matrix(q, m, t, max_col_dim=max_col_dim)
    n_rows, n_cols = system.Z.shape
    order = sorted(range(n_cols), key=lambda j: (-system.cols[j].dim, system.cols[j].sort_key()))
    Z = system.Z

    rows_of_col = [np.flatnonzero(Z[:, j]).tolist() for j in order]
    last_col_of_row = [-1] * n_rows
    for pos, j in enumerate(order):
        for r in rows_of_col[pos]:
            last_col_of_row[r] = pos
    open_rows = [
        [r for r in rows if last_col_of_row[r] > pos] for pos, rows in enumerate(rows_of_col)
    ]
    closes_at = [[] for _ in range(n_cols)]
    for r, pos in enumerate(last_col_of_row):
        if pos >= 0:
            closes_at[pos].append(r)

    def candidate_values(limit: int):
        yield 0
        for v in range(1, limit + 1):
            yield -v
            yield v

    l1_cap = 2 * length_bound
    partial = [0] * n_rows
    assignment = [0] * n_cols
    best_l1 = best_vec = None
    # One frame per entered column: its position, the L1 used before it, the
    # slack fixed on entry and the values still to try.  assignment[pos]
    # holds the value the frame last added to the partial row sums.
    stack: list = []
    nodes = pos = used = 0
    while True:
        # Enter the node at column position pos with L1 norm used so far.
        nodes += 1
        if nodes > NODE_BUDGET:
            break
        if pos == n_cols:
            if used and (best_l1 is None or (used, assignment) < (best_l1, best_vec)):
                best_l1, best_vec = used, assignment.copy()
        else:
            slack = l1_cap - used if best_l1 is None else min(l1_cap, best_l1) - used
            closing = closes_at[pos]
            if slack >= 0:
                if not closing:
                    stack.append((pos, used, slack, candidate_values(slack)))
                else:
                    forced = -partial[closing[0]]
                    if abs(forced) <= slack and all(-partial[r] == forced for r in closing[1:]):
                        stack.append((pos, used, slack, iter((forced,))))
        # Move the deepest frame to its next feasible value; pop spent frames.
        while stack:
            frame_pos, frame_used, slack, values = stack[-1]
            touched = rows_of_col[frame_pos]
            v = assignment[frame_pos]
            if v:
                for r in touched:
                    partial[r] -= v
            for v in values:
                if v:
                    for r in touched:
                        partial[r] += v
                # An open row's remaining columns can absorb at most the leftover
                # L1 budget, so a partial sum beyond it can never return to zero.
                room = slack - abs(v)
                if all(abs(partial[r]) <= room for r in open_rows[frame_pos]):
                    break
                if v:
                    for r in touched:
                        partial[r] -= v
            else:
                assignment[frame_pos] = 0
                stack.pop()
                continue
            assignment[frame_pos] = v
            pos, used = frame_pos + 1, frame_used + abs(v)
            break
        else:
            break

    exhausted = nodes <= NODE_BUDGET
    if best_l1 is None:
        return SearchResult(None, None, exhausted, system)
    witness = np.zeros(n_cols, dtype=np.int64)
    witness[order] = best_vec
    if (Z.astype(np.int64) @ witness).any():
        raise AssertionError("search produced a vector outside the kernel")
    return SearchResult(best_l1 // 2, witness, exhausted, system)


def solution_to_codes(sol: SolutionPair, k: int) -> tuple[Code, Code]:
    """Realize a solution pair as two codes with the prescribed kernel tuples."""
    space = sol.space
    alphabet = Alphabet(space.q, space.m, k)
    G = kernel_generators(space, [S for S, _ in sol.V + sol.U], k)
    mult = [c for _, c in sol.V + sol.U]
    lam = Code(alphabet, space, np.repeat(G[: len(sol.V)], mult[: len(sol.V)], axis=0))
    mu = Code(alphabet, space, np.repeat(G[len(sol.V) :], mult[len(sol.V) :], axis=0))
    return lam, mu
