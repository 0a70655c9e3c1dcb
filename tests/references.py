"""Independent references that tests compare the package with.

Nothing in the package uses them: each states a fact directly, so that a
test can check the package's machinery against it.  They include the
covering route to a nontrivial solution, inclusion-exclusion over the
hyperplanes of a non-cyclic submodule, the per-generator encoding of a
code file, and the census counts by the direct multinomial formula.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from operator import mul

from modcode.codes import Code, Submodule, Unextendable, module_elements
from modcode.errors import DimensionMismatchError, ModcodeError
from modcode.linalg import (Subspace, as_matrix, check_subspace_of, contains, enumerate_subspaces,
                            gaussian_binomial, mat_mul, subspace_lattice)
from modcode.mds import IsometryCensus

from conftest import span


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


def code_to_dict(code: Code) -> dict:
    """The code-file object of a code, one nested list per generator."""
    return {
        "q": code.alphabet.q,
        "m": code.alphabet.m,
        "k": code.alphabet.k,
        "t": code.space.t,
        "generators": [[list(row) for row in G] for G in code.generators],
    }


def census_counts(code: Code, census: IsometryCensus) -> tuple[int, ...]:
    """Generator tuples of each census class, n!/prod y_S! * prod N_S^y_S, one candidate at a time.

    N_S = prod_{i < codim S} (q^k - q^i) counts the t x k matrices with row kernel S.
    """
    q, t, k, n = code.space.q, code.space.t, code.alphabet.k, code.length
    with_kernel = [prod(q**k - q**i for i in range(t - S.dim)) for S in census.supports]
    counts = []
    for c in census.classes:
        count = factorial(n)
        for v, N in zip(c, with_kernel):
            count = count // factorial(v) * N**v
        counts.append(count)
    return tuple(counts)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """S ∩ T, whose point set is the AND of theirs."""
    check_subspace_of(T, S.q, S.ambient)
    return Subspace.from_points(S.q, S.ambient, S.points & T.points)


# The covering route to a nontrivial solution: a non-cyclic submodule is the
# union of proper submodules, and inclusion-exclusion over them balances the
# isometry equation.


class NotACoverError(ModcodeError):
    """The given submodules do not cover the target module."""


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
        out.append(Submodule(sub.space, span(rows, q, S.ambient)))
    out.sort(key=lambda s: s.support.sort_key())
    return out


def solution_from_counters(V: Counter, U: Counter) -> Unextendable:
    """The kernel difference of two support counters, each side in subspace order."""
    def canon(counter: Counter):
        return tuple(sorted(counter.items(), key=lambda p: p[0].sort_key()))

    return Unextendable(canon(V), canon(U))


def inclusion_exclusion_solution(module: Submodule, covering) -> Unextendable:
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
    verify_cover(module, covering)

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
    return solution_from_counters(even, odd)


def verify_cover(module: Submodule, covering) -> None:
    """Check that the row space of every module element lies in some covering support."""
    # Those row spaces are exactly the subspaces of the support of dimension <= m.
    sp = module.space
    lattice = subspace_lattice(sp.q, sp.t, min(sp.m, sp.t))
    # Bit 0 of each containing set is the module's support, the rest the covering's.
    containing = lattice.containment([module.support] + [E.support for E in covering])
    if any(bits == 1 for bits in containing):
        raise NotACoverError("an element of the module escapes every covering submodule")
