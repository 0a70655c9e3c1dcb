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

from collections import Counter

import numpy as np

from .codes import Hom, Submodule, module_elements
from .errors import DimensionMismatchError
from .linalg import Subspace, orthogonal, subspace_lattice


def pairing(X, Y, q: int) -> int:
    """Trace pairing trace(X Y^T) mod q; bilinear and non-degenerate."""
    X = np.asarray(X, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.int64)
    if X.shape != Y.shape:
        raise DimensionMismatchError(f"pairing shapes differ: {X.shape} vs {Y.shape}")
    return int((X * Y).sum()) % q


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
    weights = {orthogonal(K): c * sp.q ** (sp.m * K.dim) for K, c in diff.items() if c}
    return subspace_lattice(sp.q, sp.t, min(sp.m, sp.t)).balanced(weights)


def image_kernel_duality_check(h: Hom) -> bool:
    """Verify that the orthogonal of the kernel support is the column space.

    Under the trace pairing the dual of a hom X -> X G acts by Y -> Y G^T, so
    the image of the dual hom is the submodule supported on the column space
    of G; it must equal the orthogonal of the kernel support.
    """
    q = h.space.q
    kernel_support = h.kernel().support
    column_space = Subspace.from_rows(h.matrix.T, q, h.space.t)
    return orthogonal(kernel_support) == column_space
