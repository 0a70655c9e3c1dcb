"""Character sums, orthogonal submodules and the dual equation."""

import itertools

import numpy as np
import pytest

from modcode import (
    ModuleSpace,
    Submodule,
    Subspace,
    fourier_of_indicator,
    image_kernel_duality_check,
    intersect,
    kernel_tuple,
    minimal_counterexample,
    orthogonal,
    orthogonal_submodule,
    pairing,
    satisfies_isometry_equation,
    subspace_sum,
    verify_dual_equation,
)
from modcode.codes import Alphabet, Code, Hom, module_elements
from modcode.errors import DimensionMismatchError
from modcode.linalg import subspaces_up_to_dim

from conftest import random_subspace


class TestPairing:
    def test_zero_argument(self, rng):
        for _ in range(10):
            X = rng.integers(0, 3, size=(2, 3))
            assert pairing(X, np.zeros((2, 3), dtype=int), 3) == 0

    def test_identity_with_itself_f2(self):
        eye = np.eye(2, dtype=int)
        assert pairing(eye, eye, 2) == 0  # trace 2 mod 2

    def test_bilinear(self, rng):
        q = 3
        for _ in range(20):
            X, Y, Z = (rng.integers(0, q, size=(2, 2)) for _ in range(3))
            assert pairing((X + Y) % q, Z, q) == (pairing(X, Z, q) + pairing(Y, Z, q)) % q

    @pytest.mark.parametrize("m,t", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_nondegenerate_f2(self, m, t):
        for X in module_elements(2, m, t):
            if X.any():
                assert any(pairing(X, Y, 2) != 0 for Y in module_elements(2, m, t))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing(np.zeros((1, 2)), np.zeros((2, 1)), 2)


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
        broken = Code(mu.alphabet, mu.space, mu.columns[:-1] + (mu.columns[0],))
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


class TestImageKernelDuality:
    def test_identity_generator(self):
        h = Hom(ModuleSpace(2, 1, 2), Alphabet(2, 1, 2), np.eye(2, dtype=int))
        assert image_kernel_duality_check(h)

    def test_zero_generator(self):
        h = Hom(ModuleSpace(2, 1, 2), Alphabet(2, 1, 2), np.zeros((2, 2), dtype=int))
        assert image_kernel_duality_check(h)

    def test_exhaustive_f2_t3_k2(self):
        sp = ModuleSpace(2, 1, 3)
        al = Alphabet(2, 1, 2)
        for bits in itertools.product(range(2), repeat=6):
            G = np.array(bits, dtype=int).reshape(3, 2)
            assert image_kernel_duality_check(Hom(sp, al, G))
