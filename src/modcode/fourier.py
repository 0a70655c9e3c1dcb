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

import numpy as np

from .codes import Submodule, kernel_difference, module_elements
from .errors import DimensionMismatchError
from .linalg import orthogonal, subspace_lattice


def fourier_of_indicator(sub: Submodule, Y) -> tuple[int, ...]:
    """Character sum of the submodule indicator at the character of Y.

    Returns q counts: counts[j] is the number of submodule elements whose
    pairing with Y equals j.  The value is |submodule| at index 0 (all other
    counts zero) when the pairing vanishes on the submodule, and the balanced
    all-equal pattern (a vanishing root sum) otherwise.
    """
    q = sub.space.q
    Y = np.asarray(Y, dtype=np.int64)
    if Y.shape != (sub.space.m, sub.space.t):
        raise DimensionMismatchError(f"character index must be m x t, got {Y.shape}")
    S = sub.support
    elements = module_elements(q, sub.space.m, S.dim) @ S.basis % q
    residues = (elements * Y).sum(axis=(1, 2)) % q
    counts = np.bincount(residues, minlength=q)
    return tuple(int(c) for c in counts)


def orthogonal_submodule(sub: Submodule) -> Submodule:
    """The annihilator submodule under the trace pairing.

    Its support is the dot-product orthogonal of the input support, so sizes
    multiply to the size of the whole module and double orthogonal is the
    identity.
    """
    return Submodule(sub.space, orthogonal(sub.support))


def verify_dual_equation(V, U) -> bool:
    """Check the size-weighted dual indicator equation.

    The dual equation is an equality of functions on the character module,
    whose elements all have row space of dimension at most m, so it is
    decided by the weighted containment counts at every subspace of
    dimension <= m: the sums of |V_i| over i with T inside the orthogonal
    support of V_i must agree between the two tuples.  The size |V_i| =
    q^(m dim) depends only on the support, so supports common to both sides
    cancel first and each remaining orthogonal support carries its count
    difference times that size, an exact integer however large.
    """
    sp, supports, W = kernel_difference(V, U)
    live = np.flatnonzero(W[0])
    weights = np.array([[int(W[0, j]) * sp.q ** (sp.m * supports[j].dim) for j in live]],
                       dtype=object)
    lattice = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t))
    return bool(lattice.balanced_rows([orthogonal(supports[j]) for j in live], weights)[0])
