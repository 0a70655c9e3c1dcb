"""Exact additive character sums over matrix modules.

The character group of the module of m x t matrices is identified with the
module itself through the trace pairing <X, Y> = trace(X Y^T) mod q.  A
character sum is never evaluated in floating point: the summands are bucketed
by pairing residue into a length-q integer vector (one count per power of a
primitive q-th root of unity).  The only facts the theory needs -- "the sum
equals the submodule size" versus "the sum vanishes" -- are decided exactly
from those counts.
"""

from __future__ import annotations

from operator import mul

from . import budget
from .codes import Submodule, module_elements, support_difference
from .errors import DimensionMismatchError
from .linalg import Subspace, as_matrix, orthogonal, subspace_lattice


def fourier_of_indicator(sub: Submodule, Y) -> tuple[int, ...]:
    """Character sum of the submodule indicator at the character of Y.

    Returns q counts: counts[j] is the number of submodule elements whose
    pairing with Y equals j.  The value is |submodule| at index 0 (all other
    counts zero) when the pairing vanishes on the submodule, and the balanced
    all-equal pattern (a vanishing root sum) otherwise.
    """
    q, m, t = sub.space.q, sub.space.m, sub.space.t
    Y = as_matrix(Y, q)
    if len(Y) != m or any(len(row) != t for row in Y):
        raise DimensionMismatchError(f"character index must be {m} x {t}")
    S = sub.support
    # An element is A S for an m x dim coefficient matrix A, and
    # <A S, Y> = sum over i, r of A[i][r] (S_r . Y_i).
    dots = [[sum(map(mul, b, y)) for y in Y] for b in S.basis]
    counts = [0] * q
    for A in module_elements(q, m, S.dim):
        counts[sum(a * dots[r][i] for i, row in enumerate(A) for r, a in enumerate(row)) % q] += 1
    return tuple(counts)


def verify_dual_equation(V, U) -> bool:
    """Check the size-weighted dual indicator equation of two nonempty kernel tuples.

    The dual equation is an equality of functions on the character module,
    whose elements all have row space of dimension at most m, so it is
    decided by the weighted containment counts at every subspace of
    dimension <= m: the sums of |V_i| over i with T inside the orthogonal
    support of V_i must agree between the two tuples.  The tuples' supports
    are numbered here, F_q^t last, for the one-row :func:`support_difference`
    (a length difference counts as full-space kernels).  The size |V_i| =
    q^(m dim) depends only on the support, so supports common to both sides
    cancel first and each remaining orthogonal support carries its count
    difference times that size, an exact integer whose 64-bit words are
    charged to the vector budget before any is built.
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
    (W,) = support_difference([index[K.support] for K in V + U], [len(V), len(U)], len(supports))
    live = [j for j, w in enumerate(W) if w]
    bits = sum(sp.m * supports[j].dim for j in live) * sp.q.bit_length()
    budget.check_vectors(bits // 64, "dual equation weights (one vector per 64-bit word)")
    weights = [[W[j] * sp.q ** (sp.m * supports[j].dim) for j in live]]
    lattice = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t))
    return bool(lattice.balanced_rows([orthogonal(supports[j]) for j in live], weights)[0])
