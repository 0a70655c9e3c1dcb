"""Module alphabets, codes, the isometry criterion and monomial extension."""

import numpy as np
import pytest

from modcode import (
    Alphabet,
    Code,
    EnumerationBudgetError,
    Hom,
    ModuleSpace,
    MonomialMap,
    NotAnIsometryError,
    Submodule,
    Subspace,
    Unextendable,
    alphabet_has_extension_property,
    apply_monomial,
    covering_by_proper_submodules,
    extend_to_monomial,
    extend_to_monomials,
    hamming_weight,
    is_cyclic_submodule,
    is_isometry_bruteforce,
    is_isometry_criterion,
    is_trivial_solution,
    kernel_tuple,
    minimal_counterexample,
)
from modcode.codes import hom_kernels, module_elements, transport_automorphisms
from modcode.errors import DimensionMismatchError
from modcode.linalg import inverse, mat_mul, matrix_rank, row_kernel
from modcode.mds import exhaustive_isometry_scan

from conftest import random_code, random_invertible, random_monomial


def identity_code(q, m, t, n):
    return Code(
        Alphabet(q, m, t), ModuleSpace(q, m, t), [np.eye(t, dtype=int)] * n
    )


class TestHammingWeight:
    def test_zero_word(self):
        word = [np.zeros((1, 2), dtype=int)] * 4
        assert hamming_weight(word) == 0

    def test_single_nonzero_block(self):
        word = [np.zeros((1, 2), dtype=int)] * 3 + [np.array([[1, 0]])]
        assert hamming_weight(word) == 1

    def test_forged_code_weights_are_two(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        for X in module_elements(2, 1, 2):
            if X.any():
                assert hamming_weight(lam.encode(X)) == 2

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_weight([np.zeros((1, 2)), np.zeros((2, 2))])


class TestKernelTuple:
    def test_identity_columns(self):
        code = identity_code(2, 1, 2, 3)
        kernels = kernel_tuple(code)
        assert all(k.support.dim == 0 for k in kernels)

    def test_zero_column_gives_full_kernel(self):
        code = Code(
            Alphabet(2, 1, 2),
            ModuleSpace(2, 1, 2),
            [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)],
        )
        assert kernel_tuple(code)[0].support == Subspace.full(2, 2)

    def test_kernel_computed_once_per_hom(self):
        _, mu = minimal_counterexample(2, 1, 2)
        assert kernel_tuple(mu) == kernel_tuple(mu)
        assert all(a is b for a, b in zip(kernel_tuple(mu), kernel_tuple(mu)))

    def test_forged_mu_kernels_are_the_three_lines(self):
        _, mu = minimal_counterexample(2, 1, 2)
        supports = {k.support for k in kernel_tuple(mu)}
        assert supports == set(
            Subspace.from_rows(v, 2) for v in ([[1, 0]], [[0, 1]], [[1, 1]])
        )


class TestModuleElements:
    def test_budget_checked_on_cached_call(self, monkeypatch):
        assert module_elements(3, 1, 3).shape == (27, 1, 3)
        monkeypatch.setenv("MODCODE_BUDGET", "20")
        with pytest.raises(EnumerationBudgetError):
            module_elements(3, 1, 3)


class TestIsometry:
    def test_code_is_isometric_to_itself(self):
        code = identity_code(2, 1, 2, 3)
        assert is_isometry_bruteforce(code, code)
        assert is_isometry_criterion(code, code)

    def test_forged_pair(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        assert is_isometry_bruteforce(lam, mu)
        assert is_isometry_criterion(lam, mu)

    def test_forged_pair_m2(self):
        lam, mu = minimal_counterexample(2, 2, 3)
        assert lam.length == 15
        assert is_isometry_bruteforce(lam, mu)
        assert is_isometry_criterion(lam, mu)

    def test_unequal_weights_detected(self):
        sp = ModuleSpace(2, 1, 1)
        al = Alphabet(2, 1, 1)
        one = np.array([[1]])
        zero = np.zeros((1, 1), dtype=int)
        lam = Code(al, sp, [one, one])
        mu = Code(al, sp, [one, zero])
        assert not is_isometry_bruteforce(lam, mu)
        assert not is_isometry_criterion(lam, mu)

    def test_multiplicities_cancel_across_equal_homs(self):
        # A forged pair repeats one Hom object per kernel; a loaded code holds
        # distinct but equal Hom objects.  Shared columns cancel either way.
        lam, mu = minimal_counterexample(2, 1, 2)
        line_kernel = np.array([[1, 0], [0, 0]])
        injective = np.array([[0, 1], [1, 1]])
        shared = Hom(lam.space, lam.alphabet, line_kernel)

        def extend(code, columns):
            return Code(code.alphabet, code.space, code.columns + tuple(columns))

        lam2 = extend(lam, [shared, shared, injective])
        mu2 = extend(mu, [injective, line_kernel, line_kernel.copy()])
        assert is_isometry_criterion(lam2, mu2)
        assert is_isometry_bruteforce(lam2, mu2)
        assert extend_to_monomial(lam2, mu2) == extend_to_monomial(lam, mu)
        mu3 = extend(mu, [injective, injective, line_kernel])
        assert not is_isometry_criterion(lam2, mu3)
        assert not is_isometry_bruteforce(lam2, mu3)

    def test_criterion_matches_oracle_on_random_pairs(self, rng):
        for _ in range(200):
            q = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 3))
            t = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            lam = random_code(rng, q, m, t, k, n)
            mu = random_code(rng, q, m, t, k, n)
            assert is_isometry_criterion(lam, mu) == is_isometry_bruteforce(lam, mu)


class TestTrivialSolution:
    def test_literal_equality(self):
        code = identity_code(2, 1, 2, 3)
        V = kernel_tuple(code)
        assert is_trivial_solution(V, V)

    def test_reordering(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        V = kernel_tuple(lam)
        assert is_trivial_solution(V, tuple(reversed(V)))

    def test_forged_pair_is_nontrivial(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        assert not is_trivial_solution(kernel_tuple(lam), kernel_tuple(mu))


class TestExtendToMonomial:
    def test_identical_codes_extend(self):
        code = identity_code(2, 1, 2, 3)
        result = extend_to_monomial(code, code)
        assert isinstance(result, MonomialMap)
        assert apply_monomial(result, code) == code

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            q = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 3))
            t = int(rng.integers(1, 3))
            k = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            code = random_code(rng, q, m, t, k, n)
            image = apply_monomial(random_monomial(rng, q, k, n), code)
            recovered = extend_to_monomial(code, image)
            assert isinstance(recovered, MonomialMap)
            assert apply_monomial(recovered, code) == image

    def test_forged_pair_unextendable(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        result = extend_to_monomial(lam, mu)
        assert isinstance(result, Unextendable)
        # Exactly one zero column (full kernel support) on the lambda side.
        full = Subspace.full(2, 2)
        assert (full, 1) in result.lambda_only

    def test_refuses_non_isometry(self):
        sp = ModuleSpace(2, 1, 1)
        al = Alphabet(2, 1, 1)
        lam = Code(al, sp, [np.array([[1]])] * 2)
        mu = Code(al, sp, [np.array([[1]]), np.zeros((1, 1), dtype=int)])
        with pytest.raises(NotAnIsometryError):
            extend_to_monomial(lam, mu)


class TestApplyMonomial:
    def test_identity_map(self):
        code = identity_code(3, 1, 2, 3)
        assert apply_monomial(MonomialMap.identity(3, 2, 3), code) == code

    def test_pure_permutation(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        eye = np.eye(2, dtype=int)
        mm = MonomialMap((2, 0, 1), (eye, eye, eye), 2)
        image = apply_monomial(mm, lam)
        assert [c.matrix.tobytes() for c in image.columns] == [
            lam.columns[i].matrix.tobytes() for i in (2, 0, 1)
        ]

    def test_preserves_weights(self, rng):
        for _ in range(50):
            q = int(rng.choice([2, 3]))
            k = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            code = random_code(rng, q, 1, 2, k, n)
            image = apply_monomial(random_monomial(rng, q, k, n), code)
            assert is_isometry_bruteforce(code, image)

    def test_non_invertible_auto_rejected(self):
        with pytest.raises(ValueError):
            MonomialMap((0,), (np.zeros((2, 2), dtype=int),), 2)


class TestExtensionProperty:
    def test_k_le_m_has_property(self):
        assert alphabet_has_extension_property(Alphabet(2, 2, 2))
        assert alphabet_has_extension_property(Alphabet(3, 3, 1))

    def test_k_gt_m_lacks_property(self):
        assert not alphabet_has_extension_property(Alphabet(2, 1, 2))


class TestCyclicAndCovering:
    def test_dim_le_m_is_cyclic(self):
        sp = ModuleSpace(2, 2, 2)
        sub = Submodule(sp, Subspace.full(2, 2))
        assert is_cyclic_submodule(sub)
        assert covering_by_proper_submodules(sub) is None

    def test_f2_plane_covered_by_three_lines(self):
        sp = ModuleSpace(2, 1, 2)
        sub = Submodule(sp, Subspace.full(2, 2))
        cover = covering_by_proper_submodules(sub)
        assert len(cover) == 3
        assert {c.support for c in cover} == set(
            Subspace.from_rows(v, 2) for v in ([[1, 0]], [[0, 1]], [[1, 1]])
        )

    def test_f3_plane_covered_by_four_lines(self):
        sp = ModuleSpace(3, 1, 2)
        sub = Submodule(sp, Subspace.full(3, 2))
        cover = covering_by_proper_submodules(sub)
        assert len(cover) == 4
        # Element-wise: every vector of F_3^2 lies on one of the lines.
        covered = set()
        for line in cover:
            for c in range(3):
                covered.update(
                    tuple((c * line.support.basis[0] % 3).tolist()) for c in range(3)
                )
        assert len(covered) == 9

    def test_submodule_cardinality_law(self, rng):
        from modcode.fourier import submodule_elements

        for q, m, t in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 2, 3)]:
            sp = ModuleSpace(q, m, t)
            from conftest import random_subspace

            S = random_subspace(rng, q, t)
            sub = Submodule(sp, S)
            elements = submodule_elements(sub)
            assert elements.shape[0] == q ** (m * S.dim)
            seen = {e.tobytes() for e in elements}
            assert len(seen) == q ** (m * S.dim)


class TestExactnessGuard:
    def test_largest_exact_modulus_accepted(self):
        # 3037000493 is the largest prime with (q - 1)^2 < 2^63.
        assert ModuleSpace(3037000493, 1, 1).q == 3037000493

    @pytest.mark.parametrize("q, m, dim", [(4294967311, 1, 1), (3037000493, 1, 2)])
    def test_overflowing_modulus_rejected(self, q, m, dim):
        with pytest.raises(DimensionMismatchError):
            ModuleSpace(q, m, dim)
        with pytest.raises(DimensionMismatchError):
            Alphabet(q, m, dim)


def reference_transport(G, H, q, k):
    """The per-pair transport of earlier releases, kept as the oracle.

    Greedy independent rows of G by repeated rank tests, each side completed
    with unit vectors by repeated rank tests, then P = F_G^-1 F_H.
    """
    idx: list[int] = []
    for i in range(G.shape[0]):
        if matrix_rank(G[idx + [i]], q) > len(idx):
            idx.append(i)

    def complete(B):
        rows = list(B)
        for e in np.eye(k, dtype=np.int64):
            if len(rows) < k and matrix_rank(np.array(rows + [e]), q) > len(rows):
                rows.append(e)
        return np.array(rows, dtype=np.int64)

    return mat_mul(inverse(complete(G[idx]), q), complete(H[idx]), q)


class TestBatchedKernels:
    def test_batch_matches_scalar_with_repeated_homs(self):
        lam, _ = minimal_counterexample(2, 2, 3)  # one Hom object per kernel, repeated
        fresh = Code(lam.alphabet, lam.space, [col.matrix.copy() for col in lam.columns])
        kernels = kernel_tuple(fresh)
        assert [K.support for K in kernels] == [
            row_kernel(col.matrix, 2) for col in fresh.columns
        ]
        assert kernels == kernel_tuple(lam)

    def test_batch_shares_kernels_of_equal_matrices(self):
        sp, al = ModuleSpace(3, 1, 2), Alphabet(3, 1, 2)
        a = Hom(sp, al, [[1, 0], [0, 0]])
        b = Hom(sp, al, [[1, 0], [0, 0]])
        c = Hom(sp, al, [[2, 0], [0, 0]])  # another matrix with the same kernel
        d = Hom(sp, al, [[0, 0], [0, 1]])
        kernels = hom_kernels([a, b, a, c, d])
        assert kernels[0] is kernels[1] is kernels[2] is kernels[3]
        assert kernels[4] != kernels[0]
        assert a.kernel() is kernels[0] and d.kernel() is kernels[4]
        assert hom_kernels([]) == ()

    def test_batch_keeps_cached_kernels(self):
        code = identity_code(2, 1, 2, 3)
        first = code.columns[0].kernel()
        assert kernel_tuple(code)[0] is first


class TestBatchedTransport:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_batch_matches_per_pair_reference(self, rng, q):
        for t in range(1, 6):
            for k in range(1, 6):
                Gs = rng.integers(0, q, size=(6, t, k))
                Gs[0] = 0
                Gs[1, -1] = Gs[1, 0]  # a dependent row
                Ps = [random_invertible(rng, q, k) for _ in Gs]
                Hs = np.array([mat_mul(G, P, q) for G, P in zip(Gs, Ps)])
                P = transport_automorphisms(Gs, Hs, q)
                for G, H, Pi in zip(Gs, Hs, P):
                    assert np.array_equal(Pi, reference_transport(G, H, q, k))
                    assert np.array_equal(mat_mul(G, Pi, q), H)

    def test_batch_rejects_unequal_kernels(self):
        G = np.array([[[1, 0], [0, 0]]])
        H = np.array([[[0, 0], [1, 0]]])
        with pytest.raises(AssertionError):
            transport_automorphisms(G, H, 2)


def parity_code(t, q):
    cols = [np.eye(t, dtype=int)[:, [i]] for i in range(t)] + [np.ones((t, 1), dtype=int)]
    return Code(Alphabet(q, 1, 1), ModuleSpace(q, 1, t), cols)


class TestBatchedExtension:
    @pytest.mark.parametrize(
        "code",
        [parity_code(3, 3), minimal_counterexample(2, 1, 2)[0]],
        ids=["parity3", "forged212"],
    )
    def test_batch_matches_per_image_extension(self, code):
        images = [mu for mu, _ in exhaustive_isometry_scan(code)]
        # Non-isometric images: zeroing a nonzero column lowers some weight.
        for mu in images[:3]:
            cols = [c.matrix for c in mu.columns]
            j = next(j for j, G in enumerate(cols) if G.any())
            cols[j] = np.zeros_like(cols[j])
            images.append(Code(mu.alphabet, mu.space, cols))
        results = extend_to_monomials(code, images)
        assert len(results) == len(images)
        assert sum(r is None for r in results) == 3
        for mu, result in zip(images, results):
            if result is None:
                with pytest.raises(NotAnIsometryError):
                    extend_to_monomial(code, mu)
                continue
            single = extend_to_monomial(code, mu)
            assert type(single) is type(result)
            if isinstance(result, Unextendable):
                assert single == result
            else:
                assert single.permutation == result.permutation
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(single.automorphisms, result.automorphisms)
                )
                assert apply_monomial(result, code) == mu

    def test_batch_of_no_images(self):
        assert extend_to_monomials(identity_code(2, 1, 2, 3), []) == []

    def test_batch_rejects_other_alphabet(self):
        code = identity_code(2, 1, 2, 3)
        other = Code(Alphabet(2, 1, 1), code.space, [np.ones((2, 1), dtype=int)] * 3)
        with pytest.raises(DimensionMismatchError):
            extend_to_monomials(code, [other])
