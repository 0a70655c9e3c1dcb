"""Shared helpers for generating random codes, subspaces and monomial maps,
and for running CLI commands in-process."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from modcode import Alphabet, Code, ModuleSpace, MonomialMap, Subspace
from modcode.cli import main
from modcode.forge import kernel_generators
from modcode.errors import DimensionMismatchError
from modcode.linalg import Record, as_matrix, check_prime, matrix_rank, rref


@pytest.fixture(autouse=True)
def audit_trusted_records(request, monkeypatch):
    """Every record a library path builds with ``_unchecked`` must pass its own ``_check``.

    A test that breaks a check's helpers on purpose opts out with the
    ``trusted_records(reason)`` marker.
    """
    if request.node.get_closest_marker("trusted_records"):
        return
    unchecked = Record._unchecked.__func__

    def audited(cls, *values):
        record = unchecked(cls, *values)
        record._check()
        return record

    monkeypatch.setattr(Record, "_unchecked", classmethod(audited))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    output: str  # stdout followed by stderr


@pytest.fixture
def cli(capsys):
    """Run ``main(argv)`` in-process and return its exit code and captured output."""

    def invoke(argv) -> CliResult:
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        return CliResult(code, out + err)

    return invoke


def span(rows, q: int, ambient: int | None = None) -> Subspace:
    """The span of ``rows``: the checked Subspace of their RREF rows."""
    M = as_matrix(rows, q)
    # Before the elimination, which inverts pivots mod q.
    check_prime(q)
    if ambient is None:
        if not M:
            raise DimensionMismatchError("ambient required for an empty spanning set")
        ambient = len(M[0])
    R, rank, _ = rref(M, q)
    return Subspace(q, ambient, R[:rank])


def random_subspace(rng, q: int, t: int) -> Subspace:
    rows = rng.integers(0, q, size=(rng.integers(0, t + 1), t))
    return span(rows, q, t)


def random_code(rng, q: int, m: int, t: int, k: int, n: int) -> Code:
    space = ModuleSpace(q, m, t)
    alphabet = Alphabet(q, m, k)
    cols = [rng.integers(0, q, size=(t, k)) for _ in range(n)]
    return Code(alphabet, space, cols)


def random_invertible(rng, q: int, k: int) -> np.ndarray:
    while True:
        P = rng.integers(0, q, size=(k, k))
        if matrix_rank(P, q) == k:
            return P


def random_monomial(rng, q: int, k: int, n: int) -> MonomialMap:
    perm = tuple(int(i) for i in rng.permutation(n))
    autos = tuple(random_invertible(rng, q, k) for _ in range(n))
    return MonomialMap(perm, autos, q)


def reference_rref(M, q):
    """RREF and pivot list of one integer matrix by numpy row operations: the
    elimination of earlier releases, kept as the oracle of the pure-Python rref."""
    R = np.array(M, dtype=np.int64).reshape(np.shape(M)) % q
    pivots: list[int] = []
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        rows = np.flatnonzero(R[r:, c]) + r
        if not rows.size:
            continue
        R[[r, rows[0]]] = R[[rows[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, q) % q
        for i in np.flatnonzero(R[:, c]):
            if i != r:
                R[i] = (R[i] - R[i, c] * R[r]) % q
        pivots.append(c)
    return R, pivots


def reference_inverse(M, q):
    """Inverse of a square matrix over F_q: the right block of reference_rref([M | I])."""
    M = np.array(M, dtype=np.int64)
    n = len(M)
    R, pivots = reference_rref(np.hstack([M, np.eye(n, dtype=np.int64)]), q)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over F_q")
    return R[:, n:]


def code_of_kernels(V) -> Code:
    """A code whose column kernels are the supports of the nonempty kernel tuple V."""
    sp = V[0].space
    return Code(Alphabet(sp.q, sp.m, sp.t), sp,
                kernel_generators(sp, [K.support for K in V], sp.t))


def regulus_code(q: int) -> Code:
    """The code over M_{1x2}(F_q), t = 4, whose column kernels are the q + 1 lines of a regulus.

    They are L_inf = <e3, e4> and L_a = <e1 + a e3, e2 + a e4> for a in F_q,
    pairwise skew, so the code is MDS with kappa = 2.
    """
    lines = [span([(0, 0, 1, 0), (0, 0, 0, 1)], q)]
    lines += [span([(1, 0, a, 0), (0, 1, 0, a)], q) for a in range(q)]
    space = ModuleSpace(q, 1, 4)
    return Code(Alphabet(q, 1, 2), space, kernel_generators(space, lines, 2))
