"""Independent references that tests compare the package with.

Nothing in the package uses them: each states a classical fact directly, so
that a test can check the package's machinery against it.
"""

from __future__ import annotations

from operator import mul

from modcode.codes import Submodule, module_elements
from modcode.errors import DimensionMismatchError
from modcode.linalg import Subspace, as_matrix, gaussian_binomial


def count_subspaces_containing(X: Subspace, i: int) -> int:
    """Number of i-dimensional subspaces of the ambient space containing X."""
    p = X.dim
    t = X.ambient
    if not p <= i <= t:
        raise DimensionMismatchError(f"need dim(X)={p} <= i={i} <= ambient={t}")
    return gaussian_binomial(t - p, i - p, X.q)


def fourier_of_indicator(sub: Submodule, Y) -> tuple[int, ...]:
    """Character sum of the submodule indicator at the character of Y.

    The character group of the module of m x t matrices is identified with
    the module through the trace pairing <X, Y> = trace(X Y^T) mod q, and
    the sum is never evaluated in floating point.  Returns q counts:
    counts[j] is the number of submodule elements whose pairing with Y
    equals j.  The value is |submodule| at index 0 (all other counts zero)
    when the pairing vanishes on the submodule, and the balanced all-equal
    pattern (a vanishing root sum) otherwise.
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
