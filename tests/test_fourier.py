"""Character sums, orthogonal submodules and the dual equation."""

import itertools

import numpy as np
import pytest

from modcode import (
    ModuleSpace,
    Submodule,
    Subspace,
    is_isometry_criterion,
    kernel_tuple,
    minimal_counterexample,
    orthogonal,
    row_kernel,
    verify_dual_equation,
)
from modcode.codes import Code, module_elements
from modcode.errors import DimensionMismatchError
from modcode.linalg import contains, subspaces_up_to_dim

from conftest import code_of_kernels, random_subspace, span
from references import fourier_of_indicator, intersect


class TestPairing:
    """The trace pairing, through the character sums that bucket its residues."""

    def test_zero_argument(self, rng):
        # Every element pairs to 0 with the zero character.
        sp = ModuleSpace(3, 2, 3)
        for _ in range(10):
            sub = Submodule(sp, random_subspace(rng, 3, 3))
            size = 3 ** (2 * sub.support.dim)
            assert fourier_of_indicator(sub, np.zeros((2, 3), dtype=int)) == (size, 0, 0)

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_nondegenerate_f2(self, m, t):
        # A nonzero character is nontrivial on the whole module: its residues balance.
        full = Submodule(ModuleSpace(2, m, t), Subspace.full(2, t))
        half = 2 ** (m * t) // 2
        for Y in module_elements(2, m, t):
            if any(map(any, Y)):
                assert fourier_of_indicator(full, Y) == (half, half)

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
        sub = Submodule(sp, span([[1, 0]], 2))
        assert fourier_of_indicator(sub, np.array([[0, 1]])) == (2, 0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_collapse_or_vanish_exhaustive_f2(self, m, t):
        # F(1_V) = |V| 1_{V-perp}: mass collapses to index 0 on the dual
        # support and the counts balance (sum of all roots) off it.
        sp = ModuleSpace(2, m, t)
        for S in subspaces_up_to_dim(2, t, t):
            sub = Submodule(sp, S)
            size = 2 ** (m * S.dim)
            for Y in module_elements(2, m, t):
                counts = fourier_of_indicator(sub, Y)
                if contains(orthogonal(S), span(Y, 2, t)):
                    assert counts == (size, 0)
                else:
                    assert counts == (size // 2, size // 2)


class TestOrthogonalSubmodule:
    def test_zero_and_full(self):
        sp = ModuleSpace(2, 1, 2)
        zero = Submodule(sp, Subspace.zero(2, 2))
        full = Submodule(sp, Subspace.full(2, 2))
        assert Submodule(sp, orthogonal(zero.support)) == full
        assert Submodule(sp, orthogonal(full.support)) == zero

    def test_self_dual_line(self):
        sp = ModuleSpace(2, 1, 2)
        line = Submodule(sp, span([[1, 1]], 2))
        dual = Submodule(sp, orthogonal(line.support))
        assert dual == line
        assert 2 ** line.support.dim * 2 ** dual.support.dim == 2 ** (sp.m * sp.t)

    def test_size_law_and_involution(self, rng):
        for q, m, t in [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 3)]:
            sp = ModuleSpace(q, m, t)
            for _ in range(10):
                sub = Submodule(sp, random_subspace(rng, q, t))
                dual = Submodule(sp, orthogonal(sub.support))
                assert q ** (m * sub.support.dim) * q ** (m * dual.support.dim) == q ** (m * t)
                assert Submodule(sp, orthogonal(dual.support)) == sub

    def test_de_morgan_exhaustive_f2_cubed(self):
        spaces = subspaces_up_to_dim(2, 3, 3)
        assert len(spaces) == 16
        for S in spaces:
            for T in spaces:
                assert orthogonal(intersect(S, T)) == span(
                    orthogonal(S).basis + orthogonal(T).basis, 2, 3
                )


class TestDualEquation:
    def test_equal_tuples(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        V = kernel_tuple(lam)
        assert verify_dual_equation(V, V)

    def test_forged_pair_solves_both_equations(self):
        for q, m, k in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
            lam, mu = minimal_counterexample(q, m, k)
            assert is_isometry_criterion(lam, mu)
            assert verify_dual_equation(kernel_tuple(lam), kernel_tuple(mu))

    def test_perturbed_pair_fails_both(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        broken = Code(mu.alphabet, mu.space, [*mu.generators[:-1], mu.generators[0]])
        assert not is_isometry_criterion(lam, broken)
        assert not verify_dual_equation(kernel_tuple(lam), kernel_tuple(broken))

    def test_equivalence_on_random_tuples(self, rng):
        # The criterion on codes with these kernels and the dual equation must always agree.
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
            primal = is_isometry_criterion(code_of_kernels(V), code_of_kernels(U))
            assert primal == verify_dual_equation(V, U)


def image_is_kernel_dual(G, q: int) -> bool:
    """The orthogonal of the row kernel of G is its column space.

    Under the trace pairing the dual of a hom X -> X G acts by Y -> Y G^T,
    so the image of the dual hom is supported on the column space of G.
    """
    return orthogonal(row_kernel(G, q)) == span(G.T, q, G.shape[0])


class TestImageKernelDuality:
    def test_identity_generator(self):
        assert image_is_kernel_dual(np.eye(2, dtype=int), 2)

    def test_zero_generator(self):
        assert image_is_kernel_dual(np.zeros((2, 2), dtype=int), 2)

    def test_exhaustive_f2_t3_k2(self):
        for bits in itertools.product(range(2), repeat=6):
            assert image_is_kernel_dual(np.array(bits, dtype=int).reshape(3, 2), 2)
