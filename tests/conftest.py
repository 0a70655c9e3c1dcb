"""Shared helpers for generating random codes, subspaces and monomial maps,
and for running CLI commands in-process."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from modcode import Alphabet, Code, ModuleSpace, MonomialMap, Subspace
from modcode.cli import main
from modcode.linalg import matrix_rank


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


def random_subspace(rng, q: int, t: int) -> Subspace:
    rows = rng.integers(0, q, size=(rng.integers(0, t + 1), t))
    return Subspace.from_rows(rows, q, t)


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
