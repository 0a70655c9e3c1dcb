"""The dual form of the isometry equation, decided exactly.

The character group of the module of m x t matrices is identified with the
module itself through the trace pairing <X, Y> = trace(X Y^T) mod q.  The
character sum of a submodule indicator collapses to the submodule size on
the annihilator and vanishes off it, so the Fourier transform of the
isometry equation is an equality of size-weighted indicators of orthogonal
supports, decided by exact integer containment counts.
"""

from __future__ import annotations

from . import budget
from .codes import support_difference
from .errors import DimensionMismatchError
from .linalg import Subspace, orthogonal


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
    W = support_difference([index[K.support] for K in V + U], len(V), len(supports))
    live = [j for j, w in enumerate(W) if w]
    bits = sum(sp.m * supports[j].dim for j in live) * sp.q.bit_length()
    budget.check_vectors(bits // 64, "dual equation weights (one vector per 64-bit word)")
    weights = [[W[j] * sp.q ** (sp.m * supports[j].dim) for j in live]]
    return bool(sp.lattice.balanced_rows([orthogonal(supports[j]) for j in live], weights)[0])
