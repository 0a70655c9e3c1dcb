"""Character sums, orthogonal submodules and the dual equation."""

import itertools

import numpy as np
import pytest

from modcode import (
    ModuleSpace,
    Submodule,
    Subspace,
    fourier_of_indicator,
    intersect,
    kernel_tuple,
    minimal_counterexample,
    orthogonal,
    orthogonal_submodule,
    row_kernel,
    satisfies_isometry_equation,
    subspace_sum,
    verify_dual_equation,
)
from modcode.codes import Code, module_elements
from modcode.errors import DimensionMismatchError
from modcode.linalg import subspaces_up_to_dim

from conftest import random_subspace


class TestPairing:
    """The trace pairing, through the character sums that bucket its residues."""

    def test_zero_argument(self, rng):
        # Every element pairs to 0 with the zero character.
        sp = ModuleSpace(3, 2, 3)
        for _ in range(10):
            sub = Submodule(sp, random_subspace(rng, 3, 3))
            assert fourier_of_indicator(sub, np.zeros((2, 3), dtype=int)) == (sub.size, 0, 0)

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_nondegenerate_f2(self, m, t):
        # A nonzero character is nontrivial on the whole module: its residues balance.
        full = Submodule(ModuleSpace(2, m, t), Subspace.full(2, t))
        for Y in module_elements(2, m, t):
            if Y.any():
                assert fourier_of_indicator(full, Y) == (full.size // 2, full.size // 2)

    def test_shape_mismatch(self):
        sub = Submodule(ModuleSpace(2, 1, 2), Subspace.full(2, 2))
        with pytest.raises(DimensionMismatchError):
            fourier_of_indicator(sub, np.zeros((2, 1), dtype=int))


class TestFourierOfIndicator:
    def test_zero_submodule(self):
        sp = ModuleSpace(2, 1, 2)
        sub = Submodule(sp, Subspace.zero(2, 2))
        for Y in module_elements(2, 1, 2):
            assert fourier_of_indicator(sub, Y) == (1, 0)

    def test_full_submodule_at_zero(self):
        sp = ModuleSpace(2, 1, 2)
        sub = Submodule(sp, Subspace.full(2, 2))
        assert fourier_of_indicator(sub, np.zeros((1, 2), dtype=int)) == (4, 0)

    def test_line_against_orthogonal_point(self):
        sp = ModuleSpace(2, 1, 2)
        sub = Submodule(sp, Subspace.from_rows([[1, 0]], 2))
        assert fourier_of_indicator(sub, np.array([[0, 1]])) == (2, 0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_collapse_or_vanish_exhaustive_f2(self, m, t):
        # F(1_V) = |V| 1_{V-perp}: mass collapses to index 0 on the dual
        # support and the counts balance (sum of all roots) off it.
        sp = ModuleSpace(2, m, t)
        for S in subspaces_up_to_dim(2, t, t):
            sub = Submodule(sp, S)
            dual = orthogonal_submodule(sub)
            size = sub.size
            for Y in module_elements(2, m, t):
                counts = fourier_of_indicator(sub, Y)
                y_support = Subspace.from_rows(Y, 2, t)
                from modcode.linalg import contains

                if contains(dual.support, y_support):
                    assert counts == (size, 0)
                else:
                    assert counts == (size // 2, size // 2)


class TestOrthogonalSubmodule:
    def test_zero_and_full(self):
        sp = ModuleSpace(2, 1, 2)
        zero = Submodule(sp, Subspace.zero(2, 2))
        full = Submodule(sp, Subspace.full(2, 2))
        assert orthogonal_submodule(zero).support == Subspace.full(2, 2)
        assert orthogonal_submodule(full).support == Subspace.zero(2, 2)

    def test_self_dual_line(self):
        sp = ModuleSpace(2, 1, 2)
        line = Submodule(sp, Subspace.from_rows([[1, 1]], 2))
        dual = orthogonal_submodule(line)
        assert dual.support == line.support
        assert line.size * dual.size == sp.size

    def test_size_law_and_involution(self, rng):
        for q, m, t in [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 3)]:
            sp = ModuleSpace(q, m, t)
            for _ in range(10):
                sub = Submodule(sp, random_subspace(rng, q, t))
                dual = orthogonal_submodule(sub)
                assert sub.size * dual.size == sp.size
                assert orthogonal_submodule(dual).support == sub.support

    def test_de_morgan_exhaustive_f2_cubed(self):
        spaces = subspaces_up_to_dim(2, 3, 3)
        assert len(spaces) == 16
        for S in spaces:
            for T in spaces:
                assert orthogonal(intersect(S, T)) == subspace_sum(
                    orthogonal(S), orthogonal(T)
                )


class TestDualEquation:
    def test_equal_tuples(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        V = kernel_tuple(lam)
        assert verify_dual_equation(V, V)

    def test_forged_pair_solves_both_equations(self):
        for q, m, k in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
            lam, mu = minimal_counterexample(q, m, k)
            V, U = kernel_tuple(lam), kernel_tuple(mu)
            assert satisfies_isometry_equation(V, U)
            assert verify_dual_equation(V, U)

    def test_perturbed_pair_fails_both(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        broken = Code(mu.alphabet, mu.space, [*mu.generators[:-1], mu.generators[0]])
        V, U = kernel_tuple(lam), kernel_tuple(broken)
        assert not satisfies_isometry_equation(V, U)
        assert not verify_dual_equation(V, U)

    def test_equivalence_on_random_tuples(self, rng):
        # The primal and dual equation checks must always agree.
        for _ in range(300):
            q = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 3))
            t = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            sp = ModuleSpace(q, m, t)
            V = tuple(Submodule(sp, random_subspace(rng, q, t)) for _ in range(n))
            if rng.random() < 0.5:
                perm = rng.permutation(n)
                U = tuple(V[i] for i in perm)
            else:
                U = tuple(Submodule(sp, random_subspace(rng, q, t)) for _ in range(n))
            assert satisfies_isometry_equation(V, U) == verify_dual_equation(V, U)


def image_is_kernel_dual(G, q: int) -> bool:
    """The orthogonal of the row kernel of G is its column space.

    Under the trace pairing the dual of a hom X -> X G acts by Y -> Y G^T,
    so the image of the dual hom is supported on the column space of G.
    """
    return orthogonal(row_kernel(G, q)) == Subspace.from_rows(G.T, q, G.shape[0])


class TestImageKernelDuality:
    def test_identity_generator(self):
        assert image_is_kernel_dual(np.eye(2, dtype=int), 2)

    def test_zero_generator(self):
        assert image_is_kernel_dual(np.zeros((2, 2), dtype=int), 2)

    def test_exhaustive_f2_t3_k2(self):
        for bits in itertools.product(range(2), repeat=6):
            assert image_is_kernel_dual(np.array(bits, dtype=int).reshape(3, 2), 2)
