"""Exact prime-field linear algebra and subspace lattice tests."""

import numpy as np
import pytest

from modcode import (
    DimensionMismatchError,
    EnumerationBudgetError,
    Subspace,
    cauchy_identities_check,
    contains,
    count_subspaces_containing,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    orthogonal,
    row_kernel,
    rref,
    subspace_sum,
)
from modcode.linalg import (
    check_prime,
    complete_bases,
    inverse,
    is_prime,
    matrix_rank,
    row_kernel_ids,
    rref_stack,
    subspace_lattice,
    subspaces_up_to_dim,
)

from conftest import random_subspace


class TestRref:
    def test_zero_matrix(self):
        R, rank, pivots = rref(np.zeros((2, 2), dtype=int), 2)
        assert rank == 0 and pivots == []
        assert not R.any()

    def test_identity(self):
        R, rank, pivots = rref(np.eye(3, dtype=int), 3)
        assert rank == 3 and pivots == [0, 1, 2]
        assert np.array_equal(R, np.eye(3, dtype=int))

    def test_dependent_rows_f2(self):
        # Third row is the sum of the first two.
        M = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        _, rank, _ = rref(M, 2)
        assert rank == 2

    def test_idempotent_and_rowspace_preserved(self, rng):
        for q in (2, 3, 5):
            for _ in range(20):
                M = rng.integers(0, q, size=(3, 4))
                R, rank, _ = rref(M, q)
                R2, rank2, _ = rref(R, q)
                assert np.array_equal(R, R2) and rank == rank2
                # Row spaces agree: every row combination of M reduces to zero
                # against the RREF basis and vice versa.
                assert Subspace.from_rows(M, q) == Subspace.from_rows(R, q)

    def test_scaled_pivots_q5(self):
        R, rank, pivots = rref([[2, 4], [0, 3]], 5)
        assert rank == 2
        assert np.array_equal(R, np.eye(2, dtype=int))


class TestRowKernel:
    def test_identity_has_zero_kernel(self):
        assert row_kernel(np.eye(2, dtype=int), 2).dim == 0

    def test_zero_map_has_full_kernel(self):
        assert row_kernel(np.zeros((2, 2), dtype=int), 2) == Subspace.full(2, 2)

    def test_column_vector(self):
        # v (1,1)^T = 0 over F_2 exactly for v in {(0,0), (1,1)}.
        K = row_kernel(np.array([[1], [1]]), 2)
        assert K == Subspace.from_rows([[1, 1]], 2)

    def test_kernel_annihilates(self, rng):
        for q in (2, 3, 5):
            for _ in range(20):
                M = rng.integers(0, q, size=(4, 3))
                K = row_kernel(M, q)
                assert K.dim == 4 - rref(M, q)[1]
                if K.dim:
                    assert not (K.basis @ M % q).any()


class TestSubspaceOps:
    def test_intersect_with_full_is_identity(self, rng):
        full = Subspace.full(2, 3)
        for _ in range(10):
            S = random_subspace(rng, 2, 3)
            assert intersect(full, S) == S
            assert contains(full, S)

    def test_sum_of_axes_f2(self):
        a = Subspace.from_rows([[1, 0, 0]], 2)
        b = Subspace.from_rows([[0, 1, 0]], 2)
        assert subspace_sum(a, b) == Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 2)

    def test_self_dual_line(self):
        line = Subspace.from_rows([[1, 1]], 2)
        assert orthogonal(line) == line

    def test_orthogonal_laws(self, rng):
        for q in (2, 3):
            for t in (1, 2, 3):
                for _ in range(10):
                    S = random_subspace(rng, q, t)
                    T = random_subspace(rng, q, t)
                    assert S.dim + orthogonal(S).dim == t
                    assert orthogonal(orthogonal(S)) == S
                    if contains(S, T):
                        assert contains(orthogonal(T), orthogonal(S))

    def test_modular_law(self, rng):
        for q in (2, 3):
            for _ in range(20):
                S = random_subspace(rng, q, 3)
                T = random_subspace(rng, q, 3)
                assert intersect(S, T).dim + subspace_sum(S, T).dim == S.dim + T.dim

    def test_ambient_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            intersect(Subspace.full(2, 2), Subspace.full(2, 3))


class TestGaussianBinomial:
    def test_trivial_cases(self):
        for t in range(6):
            assert gaussian_binomial(t, 0, 3) == 1
        assert gaussian_binomial(3, -1, 2) == 0
        assert gaussian_binomial(3, 4, 2) == 0

    def test_lines_of_plane(self):
        assert gaussian_binomial(2, 1, 2) == 3

    def test_product_formula_4_2_2(self):
        assert gaussian_binomial(4, 2, 2) == (2**4 - 1) * (2**3 - 1) // ((2**2 - 1) * (2 - 1))
        assert gaussian_binomial(4, 2, 2) == 35

    def test_symmetry(self):
        for q in (2, 3, 5):
            for t in range(7):
                for i in range(t + 1):
                    assert gaussian_binomial(t, i, q) == gaussian_binomial(t, t - i, q)


class TestCauchyIdentities:
    def test_small_expansions(self):
        assert cauchy_identities_check(2, 2)
        assert cauchy_identities_check(1, 5)
        assert cauchy_identities_check(4, 3)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("t", range(1, 9))
    def test_exact_up_to_t8(self, q, t):
        assert cauchy_identities_check(t, q)


class TestEnumeration:
    def test_seven_lines_f2_cubed(self):
        lines = enumerate_subspaces(2, 3, 1)
        assert len(lines) == 7
        assert len(set(lines)) == 7

    def test_zero_dim(self):
        assert enumerate_subspaces(2, 3, 0) == (Subspace.zero(2, 3),)

    def test_four_lines_f3_squared(self):
        assert len(enumerate_subspaces(3, 2, 1)) == 4

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_counts_match_binomial(self, q):
        for t in range(1, 5):
            if q == 5 and t == 4:
                continue  # stays below the default vector budget
            for d in range(t + 1):
                spaces = enumerate_subspaces(q, t, d)
                assert len(spaces) == gaussian_binomial(t, d, q)
                assert all(s.dim == d for s in spaces)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("MODCODE_BUDGET", "5")
        enumerate_subspaces.cache_clear()
        with pytest.raises(EnumerationBudgetError):
            enumerate_subspaces(2, 3, 1)
        monkeypatch.delenv("MODCODE_BUDGET")
        enumerate_subspaces.cache_clear()

    @pytest.mark.parametrize(
        "enumerate_call",
        [
            lambda: enumerate_subspaces(3, 4, 2),
            lambda: subspaces_up_to_dim(3, 4, 2),
            lambda: subspace_lattice(3, 4, 2),
        ],
        ids=["enumerate_subspaces", "subspaces_up_to_dim", "subspace_lattice"],
    )
    def test_budget_checked_on_cached_call(self, monkeypatch, enumerate_call):
        enumerate_call()  # fills the cache under the default budget
        monkeypatch.setenv("MODCODE_BUDGET", "5")
        with pytest.raises(EnumerationBudgetError):
            enumerate_call()

    def test_budget_charges_subspaces_not_their_vectors(self, monkeypatch):
        # 968 lines of F_967^2 hold 967^2 * 968 > 10^7 vectors, but only the lines are built.
        monkeypatch.delenv("MODCODE_BUDGET", raising=False)
        lines = enumerate_subspaces(967, 2, 1)
        assert len(lines) == gaussian_binomial(2, 1, 967) == 968
        lattice = subspace_lattice(967, 2, 1)
        assert len(lattice) == 969
        assert lattice.containment([Subspace.full(967, 2)]).all()


# Every field and dimension with at most 81 vectors.
SMALL_SPACES = [(q, t) for q in range(2, 82) if is_prime(q) for t in range(1, 7) if q**t <= 81]
# Pairs checked against the pairwise reference per space; larger lattices are
# checked on every row against a seeded sample of columns.
REFERENCE_PAIRS = 50_000


class TestSubspaceLattice:
    @pytest.mark.parametrize("q,t", SMALL_SPACES)
    def test_containment_matches_pairwise_contains(self, q, t):
        lattice = subspace_lattice(q, t, t)
        spaces = lattice.subspaces
        assert spaces == subspaces_up_to_dim(q, t, t)
        cols = list(range(len(spaces)))
        if len(spaces) ** 2 > REFERENCE_PAIRS:
            sample = np.random.default_rng(q * 100 + t).choice(
                len(spaces), REFERENCE_PAIRS // len(spaces), replace=False
            )
            cols = sorted({0, len(spaces) - 1, *sample.tolist()})
        Z = lattice.containment(spaces[j] for j in cols)
        expected = np.array([[contains(spaces[j], S) for j in cols] for S in spaces])
        assert np.array_equal(Z, expected)

    @pytest.mark.parametrize("q,t,max_dim", [(13, 3, 2), (31, 3, 2), (2, 6, 2), (3, 4, 3)])
    def test_containment_matches_pairwise_contains_on_kernels(self, q, t, max_dim):
        rng = np.random.default_rng(q * 100 + t)
        lattice = subspace_lattice(q, t, max_dim)
        # A seeded sample of supports of every dimension ...
        supports = []
        for d in range(t + 1):
            spaces = enumerate_subspaces(q, t, d)
            picks = rng.choice(len(spaces), min(len(spaces), 6), replace=False)
            supports += [spaces[i] for i in sorted(picks.tolist())]
        # ... and the row kernels of random generators, zero and repeated ones among them.
        for k in range(1, t + 1):
            G = rng.integers(0, q, size=(6, t, k))
            G[0] = 0
            G[1] = G[2]
            kernels, ids = row_kernel_ids(G, q)
            supports += [kernels[i] for i in ids]
        assert {K.dim for K in supports} == set(range(t + 1))
        Z = lattice.containment(supports)
        expected = np.array([[contains(K, S) for K in supports] for S in lattice.subspaces])
        assert np.array_equal(Z, expected)

    def test_rows_are_the_low_dimensional_prefix(self):
        low = subspace_lattice(2, 4, 2)
        full = subspace_lattice(2, 4, 4)
        assert low.subspaces == full.subspaces[: len(low)]
        Z = full.containment(enumerate_subspaces(2, 4, 3))
        assert np.array_equal(low.containment(enumerate_subspaces(2, 4, 3)), Z[: len(low)])

    def test_zero_dimensional_ambient(self):
        zero = Subspace.zero(2, 0)
        assert subspace_lattice(2, 0, 0).containment([zero]).tolist() == [[True]]

    def test_rejects_foreign_support(self):
        with pytest.raises(DimensionMismatchError):
            subspace_lattice(2, 3, 1).containment([Subspace.full(2, 4)])

    def test_balanced_rows_match_one_row_calls(self):
        lattice = subspace_lattice(2, 2, 1)
        supports = [Subspace.zero(2, 2), Subspace.full(2, 2), *enumerate_subspaces(2, 2, 1)]
        # The forged (q, m, k) = (2, 1, 2) pair: kernels {0, 0, F_2^2} against the three lines.
        forged = [2, 1, -1, -1, -1]
        random_rows = np.random.default_rng(5).integers(-2, 3, (6, 5))
        W = np.array([forged, [-x for x in forged], [0] * 5, *random_rows])
        expected = [
            all(sum(int(w) for w, K in zip(row, supports) if contains(K, S)) == 0
                for S in lattice.subspaces)
            for row in W
        ]
        assert expected[:3] == [True, True, True] and not all(expected)
        assert lattice.balanced_rows(supports, W).tolist() == expected
        assert lattice.balanced_rows([], np.zeros((2, 0), dtype=np.int64)).tolist() == [True, True]

    def test_balanced_rows_exact_beyond_int64(self):
        lattice = subspace_lattice(2, 2, 1)
        line, full = enumerate_subspaces(2, 2, 1)[0], Subspace.full(2, 2)
        # Rows 0 and 1 wrap to zero in int64; their exact sums do not vanish.
        W = np.empty((3, 2), dtype=object)
        W[:] = [[2**64, 0], [2**64, -(2**64)], [0, 0]]
        assert lattice.balanced_rows([full, line], W).tolist() == [False, False, True]


class TestCountContaining:
    def test_lines_over_zero(self):
        X = Subspace.zero(2, 3)
        assert count_subspaces_containing(X, 1) == 7

    def test_full_space(self):
        X = Subspace.full(3, 3)
        assert count_subspaces_containing(X, 3) == 1

    def test_planes_over_line(self):
        line = Subspace.from_rows([[1, 0, 0]], 2)
        planes = enumerate_subspaces(2, 3, 2)
        direct = sum(1 for P in planes if contains(P, line))
        assert direct == 3
        assert count_subspaces_containing(line, 2) == 3

    @pytest.mark.parametrize("q", [2, 3])
    def test_lemma_by_enumeration(self, q):
        for t in range(1, 5):
            for p in range(t + 1):
                for X in enumerate_subspaces(q, t, p):
                    for i in range(p, t + 1):
                        direct = sum(
                            1 for V in enumerate_subspaces(q, t, i) if contains(V, X)
                        )
                        assert direct == count_subspaces_containing(X, i)

    def test_range_error(self):
        with pytest.raises(DimensionMismatchError):
            count_subspaces_containing(Subspace.full(2, 2), 1)


class TestFieldBasics:
    def test_prime_check(self):
        for q in (2, 3, 5, 7, 11, 13):
            assert check_prime(q) == q
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                check_prime(bad)

    def test_inverse_roundtrip(self, rng):
        for q in (2, 3, 5):
            for _ in range(10):
                M = rng.integers(0, q, size=(3, 3))
                from modcode.linalg import matrix_rank

                if matrix_rank(M, q) < 3:
                    continue
                Minv = inverse(M, q)
                assert np.array_equal(M @ Minv % q, np.eye(3, dtype=int))


def scalar_rref(M, q):
    """RREF and pivot list of one matrix, allowing zero rows or columns."""
    if M.size == 0:
        return M % q, []
    R, _, pivots = rref(M, q)
    return R, pivots


class TestRrefStack:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize(
        "shape",
        [(0, 3, 4), (12, 1, 1), (12, 2, 5), (12, 5, 2), (12, 4, 4), (10, 0, 3), (10, 3, 0),
         (3, 3, 4)],
        ids=["n0", "1x1", "wide", "tall", "square", "no_rows", "no_cols", "small_stack"],
    )
    def test_stack_matches_scalar_rref(self, rng, q, shape):
        for _ in range(5):
            A = rng.integers(0, q, size=shape)
            if shape[0]:
                A[0] = 0  # a zero matrix in every stack
            R, pivots = rref_stack(A, q)
            assert R.shape == shape and pivots.shape == (shape[0], shape[2])
            for M, Ri, mask in zip(A, R, pivots):
                expected, expected_pivots = scalar_rref(M, q)
                assert np.array_equal(Ri, expected)
                assert np.flatnonzero(mask).tolist() == expected_pivots

    def test_stack_large_prime(self, rng):
        q = 1_000_003
        A = rng.integers(0, q, size=(12, 3, 5))
        A[1, 1] = A[1, 0] * 2 % q
        R, pivots = rref_stack(A, q)
        for M, Ri, mask in zip(A, R, pivots):
            expected, expected_pivots = scalar_rref(M, q)
            assert np.array_equal(Ri, expected)
            assert np.flatnonzero(mask).tolist() == expected_pivots

    def test_stack_chunks_agree(self, rng, monkeypatch):
        A = rng.integers(0, 3, size=(40, 3, 4))
        whole = rref_stack(A, 3)
        monkeypatch.setattr("modcode.linalg._ELIMINATION_CHUNK", 24)
        chunked = rref_stack(A, 3)
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))

    def test_stack_rejects_a_single_matrix(self):
        with pytest.raises(DimensionMismatchError):
            rref_stack(np.eye(2, dtype=int), 2)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_batched_row_kernels_match_scalar(self, rng, q):
        for rows, cols in [(1, 1), (3, 2), (2, 4), (4, 4)]:
            Ms = rng.integers(0, q, size=(12, rows, cols))
            Ms[3] = 0
            Ms[5] = Ms[4]
            kernels, ids = row_kernel_ids(Ms, q)
            assert [kernels[i] for i in ids] == [row_kernel(M, q) for M in Ms]
            assert ids[5] == ids[4]

    def test_batched_complete_bases_are_greedy(self, rng):
        for q in (2, 3, 5):
            for r, k in [(1, 1), (2, 3), (4, 2), (3, 3)]:
                A = rng.integers(0, q, size=(10, r, k))
                A[0] = 0
                for B, F in zip(A, complete_bases(A, q)):
                    rows: list = []
                    for v in list(B) + list(np.eye(k, dtype=np.int64)):
                        if matrix_rank(np.array(rows + [v]), q) > len(rows):
                            rows.append(v)
                    assert np.array_equal(F, np.array(rows) % q)
                    assert matrix_rank(F, q) == k


class TestKeyedSubspace:
    def test_equal_spans_are_equal_and_hash_alike(self):
        S = Subspace.from_rows([[1, 1, 0], [0, 1, 1]], 2)
        T = Subspace.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]], 2)
        assert S == T and hash(S) == hash(T)
        assert len({S, T}) == 1

    def test_key_separates_field_ambient_and_dimension(self):
        assert Subspace.zero(2, 2) != Subspace.zero(2, 3)
        assert hash(Subspace.zero(2, 2)) != hash(Subspace.zero(2, 3))
        assert Subspace.full(2, 2) != Subspace.full(3, 2)
        assert Subspace.zero(2, 2) != Subspace.full(2, 2)
        assert Subspace.full(2, 2) != np.eye(2, dtype=np.int64)

    def test_sort_key_orders_by_dimension_then_basis(self):
        spaces = list(subspaces_up_to_dim(2, 3, 3))
        assert sorted(reversed(spaces), key=Subspace.sort_key) == spaces
        assert Subspace.full(2, 3).sort_key() == (3, np.eye(3, dtype=np.int64).tobytes())

    def test_immutable(self):
        S = Subspace.full(2, 2)
        with pytest.raises(AttributeError):
            S._key = None
        with pytest.raises(ValueError):
            S.basis[0, 0] = 0
