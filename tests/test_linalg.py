"""Exact prime-field linear algebra and subspace lattice tests."""

import itertools
import random

import numpy as np
import pytest

from modcode import (
    DimensionMismatchError,
    EnumerationBudgetError,
    Subspace,
    cauchy_identities_check,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    orthogonal,
    row_kernel,
    rref,
)
from modcode import budget
from modcode.codes import module_elements
from modcode.linalg import (
    check_prime,
    complete_basis,
    integer_points,
    is_prime,
    mat_mul,
    matrix_rank,
    number_row_kernels,
    point_index,
    projective_points,
    subspace_lattice,
    subspaces_up_to_dim,
)

from conftest import random_subspace, reference_inverse, reference_rref, span
from references import count_subspaces_containing, intersect


class TestRref:
    def test_zero_matrix(self):
        R, rank, pivots = rref(np.zeros((2, 2), dtype=int), 2)
        assert rank == 0 and pivots == []
        assert R == ((0, 0), (0, 0))

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
                assert span(M, q) == span(R, q)

    def test_scaled_pivots_q5(self):
        R, rank, pivots = rref([[2, 4], [0, 3]], 5)
        assert rank == 2
        assert np.array_equal(R, np.eye(2, dtype=int))

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            rref(np.zeros((2, 2, 2), dtype=int), 2)


class TestRowKernel:
    def test_identity_has_zero_kernel(self):
        assert row_kernel(np.eye(2, dtype=int), 2).dim == 0

    def test_zero_map_has_full_kernel(self):
        assert row_kernel(np.zeros((2, 2), dtype=int), 2) == Subspace.full(2, 2)

    def test_column_vector(self):
        # v (1,1)^T = 0 over F_2 exactly for v in {(0,0), (1,1)}.
        K = row_kernel(np.array([[1], [1]]), 2)
        assert K == span([[1, 1]], 2)

    def test_points_budget_checked(self, monkeypatch):
        # PG(20, 2) has 2,097,151 points, past the default subspace budget of 10^6.
        monkeypatch.delenv("MODCODE_BUDGET", raising=False)
        with pytest.raises(EnumerationBudgetError):
            row_kernel([[1]] * 21, 2)

    def test_kernel_annihilates(self, rng):
        for q in (2, 3, 5):
            for _ in range(20):
                M = rng.integers(0, q, size=(4, 3))
                K = row_kernel(M, q)
                assert K.dim == 4 - rref(M, q)[1]
                if K.dim:
                    assert not (np.array(K.basis) @ M % q).any()


class TestSubspaceOps:
    def test_intersect_with_full_is_identity(self, rng):
        full = Subspace.full(2, 3)
        for _ in range(10):
            S = random_subspace(rng, 2, 3)
            assert intersect(full, S) == S
            assert contains(full, S)

    def test_sum_of_axes_f2(self):
        a = span([[1, 0, 0]], 2)
        b = span([[0, 1, 0]], 2)
        assert span(a.basis + b.basis, 2, 3) == span(
            [[1, 0, 0], [0, 1, 0]], 2
        )

    def test_self_dual_line(self):
        line = span([[1, 1]], 2)
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
                total = span(S.basis + T.basis, q, 3)
                assert intersect(S, T).dim + total.dim == S.dim + T.dim

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
            lambda: projective_points(2, 4),
            lambda: module_elements(2, 1, 3),
        ],
        ids=["enumerate_subspaces", "subspaces_up_to_dim", "subspace_lattice",
             "projective_points", "module_elements"],
    )
    def test_budget_checked_on_cached_call(self, monkeypatch, enumerate_call):
        enumerate_call()  # fills the cache under the default budget
        monkeypatch.setenv("MODCODE_BUDGET", "5")
        with pytest.raises(EnumerationBudgetError):
            enumerate_call()

    @pytest.mark.parametrize(
        "cached, args",
        [(subspace_lattice, (3, 4, 2)), (enumerate_subspaces, (3, 4, 2)),
         (projective_points, (2, 4)), (module_elements, (2, 1, 3))],
        ids=["subspace_lattice", "enumerate_subspaces", "projective_points", "module_elements"],
    )
    def test_cache_charges_once_per_budget(self, monkeypatch, cached, args):
        charge, charges = budget._charge, []

        def counting(*charge_args):
            charges.append(charge_args)
            charge(*charge_args)

        cached.cache_clear()
        monkeypatch.setenv("MODCODE_BUDGET", "1000")
        cached(*args)
        monkeypatch.setattr(budget, "_charge", counting)
        cached(*args)  # a hit under the budget it was charged under
        assert charges == []
        misses = cached.cache_info().misses
        monkeypatch.setenv("MODCODE_BUDGET", "2000")
        cached(*args)  # built again and charged under the higher budget
        assert cached.cache_info().misses == misses + 1 and charges
        monkeypatch.setenv("MODCODE_BUDGET", "5")
        with pytest.raises(EnumerationBudgetError):
            cached(*args)

    def test_lowest_failing_dimension_refused(self, monkeypatch):
        # Dimensions 0 and 1 (1 and 40 subspaces) fit; d = 2 has 130.
        monkeypatch.setenv("MODCODE_BUDGET", "100")
        subspace_lattice.cache_clear()
        with pytest.raises(EnumerationBudgetError) as refused:
            subspace_lattice(3, 4, 2)
        assert str(refused.value) == "subspace enumeration needs 130 subspaces, budget is 100"

    def test_budget_charges_subspaces_not_their_vectors(self, monkeypatch):
        # 968 lines of F_967^2 hold 967^2 * 968 > 10^7 vectors, but only the lines are built.
        monkeypatch.delenv("MODCODE_BUDGET", raising=False)
        lines = enumerate_subspaces(967, 2, 1)
        assert len(lines) == gaussian_binomial(2, 1, 967) == 968
        lattice = subspace_lattice(967, 2, 1)
        assert len(lattice) == 969
        assert lattice.containment([Subspace.full(967, 2)]) == [1] * 969


# Every field and dimension with at most 81 vectors.
SMALL_SPACES = [(q, t) for q in range(2, 82) if is_prime(q) for t in range(1, 7) if q**t <= 81]
# Pairs checked against the pairwise reference per space; larger lattices are
# checked on every row against a seeded sample of columns.
REFERENCE_PAIRS = 50_000


def reference_contains(K, S) -> bool:
    """S <= K by elimination alone: adding S's basis to K's leaves K."""
    return span(K.basis + S.basis, K.q, K.ambient) == K


def as_table(containing, width: int) -> np.ndarray:
    """The containment bitsets of a lattice as a boolean table, one column per support."""
    return np.array([[bool(bits >> j & 1) for j in range(width)] for bits in containing],
                    dtype=bool).reshape(len(containing), width)


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
        Z = as_table(lattice.containment([spaces[j] for j in cols]), len(cols))
        expected = np.array([[reference_contains(spaces[j], S) for j in cols] for S in spaces])
        assert np.array_equal(Z, expected)
        assert np.array_equal(Z, [[contains(spaces[j], S) for j in cols] for S in spaces])

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
            kernels, ids = number_row_kernels([tuple(map(tuple, M.tolist())) for M in G], q, t)
            supports += [kernels[i] for i in ids]
        assert {K.dim for K in supports} == set(range(t + 1))
        Z = as_table(lattice.containment(supports), len(supports))
        expected = np.array(
            [[reference_contains(K, S) for K in supports] for S in lattice.subspaces]
        )
        assert np.array_equal(Z, expected)

    def test_rows_are_the_low_dimensional_prefix(self):
        low = subspace_lattice(2, 4, 2)
        full = subspace_lattice(2, 4, 4)
        assert low.subspaces == full.subspaces[: len(low)]
        Z = full.containment(enumerate_subspaces(2, 4, 3))
        assert low.containment(enumerate_subspaces(2, 4, 3)) == Z[: len(low)]

    def test_zero_dimensional_ambient(self):
        zero = Subspace.zero(2, 0)
        assert subspace_lattice(2, 0, 0).containment([zero]) == [1]

    def test_rejects_foreign_support(self):
        with pytest.raises(DimensionMismatchError):
            subspace_lattice(2, 3, 1).containment([Subspace.full(2, 4)])

    def test_balanced_rows_match_one_row_calls(self):
        lattice = subspace_lattice(2, 2, 1)
        supports = [Subspace.zero(2, 2), Subspace.full(2, 2), *enumerate_subspaces(2, 2, 1)]
        # The forged (q, m, k) = (2, 1, 2) pair: kernels {0, 0, F_2^2} against the three lines.
        forged = [2, 1, -1, -1, -1]
        random_rows = np.random.default_rng(5).integers(-2, 3, (6, 5)).tolist()
        W = [forged, [-x for x in forged], [0] * 5, *random_rows]
        expected = [
            all(sum(w for w, K in zip(row, supports) if reference_contains(K, S)) == 0
                for S in lattice.subspaces)
            for row in W
        ]
        assert expected[:3] == [True, True, True] and not all(expected)
        assert lattice.balanced_rows(supports, W) == expected
        assert lattice.balanced_rows([], [[], []]) == [True, True]

    def test_balanced_rows_exact_beyond_int64(self):
        lattice = subspace_lattice(2, 2, 1)
        line, full = enumerate_subspaces(2, 2, 1)[0], Subspace.full(2, 2)
        # Rows 0 and 1 wrap to zero in int64; their exact sums do not vanish.
        W = [[2**64, 0], [2**64, -(2**64)], [0, 0]]
        assert lattice.balanced_rows([full, line], W) == [False, False, True]



class TestIntegerPoints:
    """The integer-point search against brute force over a box on small random systems."""

    @staticmethod
    def system(rng):
        n = rng.randint(1, 4)
        # The all-ones row puts every column in some row.
        rows = [(1 << n) - 1] + [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
        return rows, [rng.randint(0, 2) for _ in range(n)]

    @staticmethod
    def brute(rows, base, values, cap):
        def image(y):
            return [sum(v for j, v in enumerate(y) if bits >> j & 1) for bits in rows]

        return [list(y) for y in itertools.product(values, repeat=len(base))
                if image(y) == image(base) and sum(map(abs, y)) <= cap]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed, monkeypatch):
        rows, base = self.system(random.Random(seed))
        total = sum(base)
        found = []
        nodes, exhausted = integer_points(rows, base, lambda y: found.append(y.copy()))
        # Without a cap the values are y >= 0, and they come out in lexicographic order.
        assert exhausted and found == self.brute(rows, base, range(total + 1), total)
        for cap in range(4):
            found = []
            integer_points(rows, base, lambda y: found.append(y.copy()), cap)
            assert sorted(found) == self.brute(rows, base, range(-cap, cap + 1), cap)
        # One vector of the budget per node entered.
        monkeypatch.setenv("MODCODE_BUDGET", str(nodes - 1))
        assert integer_points(rows, base, lambda y: None) == (nodes, False)

    def test_found_lowers_the_cap(self):
        # y0 + y1 = 0 and y0 + y1 + y2 = 0: the solutions are multiples of (1, -1, 0).
        found = []
        integer_points([0b11, 0b111], [0, 0, 0], lambda y: found.append(y.copy()), 4)
        assert found == [[0, 0, 0], [-1, 1, 0], [1, -1, 0], [-2, 2, 0], [2, -2, 0]]
        found = []
        integer_points([0b11, 0b111], [0, 0, 0], lambda y: found.append(y.copy()) or 2, 4)
        assert found == [[0, 0, 0], [-1, 1, 0], [1, -1, 0]]


class TestPoints:
    @pytest.mark.parametrize("q,t", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 3)])
    def test_points_are_numbered_in_lexicographic_order(self, q, t):
        points = projective_points(q, t)
        assert len(points) == gaussian_binomial(t, 1, q)
        assert list(points) == sorted(points)
        assert [point_index(v, q) for v in points] == list(range(len(points)))
        assert [L.basis[0] for L in enumerate_subspaces(q, t, 1)] == list(points)

    @pytest.mark.parametrize("q,t", [(2, 3), (3, 3), (5, 2), (2, 5)])
    def test_point_set_is_the_span(self, q, t):
        points = projective_points(q, t)
        for S in subspaces_up_to_dim(q, t, t):
            inside = [reference_contains(S, span([v], q)) for v in points]
            assert [bool(S.points >> i & 1) for i in range(len(points))] == inside

    def test_points_budget_checked(self, monkeypatch):
        monkeypatch.setenv("MODCODE_BUDGET", "5")
        with pytest.raises(EnumerationBudgetError):
            projective_points(2, 3)
        with pytest.raises(EnumerationBudgetError):
            Subspace.full(2, 3).points


class TestCountContaining:
    def test_lines_over_zero(self):
        X = Subspace.zero(2, 3)
        assert count_subspaces_containing(X, 1) == 7

    def test_full_space(self):
        X = Subspace.full(3, 3)
        assert count_subspaces_containing(X, 3) == 1

    def test_planes_over_line(self):
        line = span([[1, 0, 0]], 2)
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
    def test_mat_mul_rejects_mismatched_inner_dimension(self):
        assert mat_mul(((1, 1),), ((1,), (1,)), 2) == ((0,),)
        with pytest.raises(DimensionMismatchError, match="inner dimensions differ"):
            mat_mul(((1, 0),), ((1,),), 2)
        with pytest.raises(DimensionMismatchError):
            mat_mul(((1,),), ((1, 0), (0, 1)), 2)

    def test_prime_check(self):
        for q in (2, 3, 5, 7, 11, 13):
            assert check_prime(q) == q
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                check_prime(bad)

    def test_inverse_roundtrip(self, rng):
        # The reference inverse that the transport and generator tests compare with.
        for q in (2, 3, 5):
            for _ in range(10):
                M = rng.integers(0, q, size=(3, 3))
                if matrix_rank(M, q) < 3:
                    with pytest.raises(ValueError):
                        reference_inverse(M, q)
                    continue
                assert np.array_equal(M @ reference_inverse(M, q) % q, np.eye(3, dtype=int))


def reference_row_kernel(M, q):
    """Kernel of v -> v M by elimination: the row_kernel of earlier releases.

    v M = 0 iff v is orthogonal to every column of M, so the kernel is the
    null space of the RREF C of M^T, taken with its columns reversed.  Each
    free column f of C gives the null vector with 1 at f and -C[row of p, f]
    at each pivot p < f; read reversed, these vectors are already the RREF
    basis of the kernel, in the order of decreasing f.
    """
    M = np.array(M, dtype=np.int64).reshape(np.shape(M))
    n = M.shape[0]
    C, pivots = reference_rref(M.T[:, ::-1], q)
    basis = []
    for f in reversed(range(n)):
        if f not in pivots:
            v = [0] * n
            v[f] = 1
            for row, p in zip(C, pivots):
                v[p] = -int(row[f]) % q
            basis.append(tuple(v[::-1]))
    return Subspace(q, n, tuple(basis))


def reference_intersect(S, T):
    """S ∩ T by elimination, the intersect of earlier releases: a S + b T = 0 gives a S in both."""
    if S.dim == 0 or T.dim == 0:
        return Subspace.zero(S.q, S.ambient)
    ker = reference_row_kernel(S.basis + T.basis, S.q)
    if ker.dim == 0:
        return Subspace.zero(S.q, S.ambient)
    coeffs = np.array([row[: S.dim] for row in ker.basis])
    return span(coeffs @ np.array(S.basis) % S.q, S.q, S.ambient)


class TestReferenceKernels:
    """row_kernel, intersect and from_points read bitsets; elimination checks them."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_row_kernel_matches_elimination(self, rng, q):
        for rows, cols in [(1, 1), (3, 2), (2, 4), (4, 4), (5, 1), (3, 0)]:
            Ms = rng.integers(0, q, size=(12, rows, cols))
            Ms[3] = 0
            for M in Ms:
                assert row_kernel(M, q) == reference_row_kernel(M, q)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_intersect_matches_elimination(self, rng, q):
        for t in (1, 2, 3, 4):
            for _ in range(20):
                S, T = random_subspace(rng, q, t), random_subspace(rng, q, t)
                assert intersect(S, T) == reference_intersect(S, T)
                assert intersect(S, S) == S

    @pytest.mark.parametrize("q,t", [(2, 5), (3, 3), (5, 2)])
    def test_from_points_reads_back_every_subspace(self, q, t):
        for S in subspaces_up_to_dim(q, t, t):
            assert Subspace.from_points(q, t, S.points) == S


class TestRrefStack:
    """The pure-Python rref against the numpy reference, over stacks of random matrices."""

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
            for M in A:
                R, rank, pivots = rref(M, q)
                expected, expected_pivots = reference_rref(M, q)
                assert np.array_equal(np.array(R, dtype=np.int64).reshape(M.shape), expected)
                assert pivots == expected_pivots and rank == len(pivots)

    def test_stack_large_prime(self, rng):
        q = 1_000_003
        A = rng.integers(0, q, size=(12, 3, 5))
        A[1, 1] = A[1, 0] * 2 % q
        for M in A:
            R, _, pivots = rref(M, q)
            expected, expected_pivots = reference_rref(M, q)
            assert np.array_equal(R, expected)
            assert pivots == expected_pivots

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_batched_row_kernels_match_scalar(self, rng, q):
        for rows, cols in [(1, 1), (3, 2), (2, 4), (4, 4)]:
            Ms = rng.integers(0, q, size=(12, rows, cols))
            Ms[3] = 0
            Ms[5] = Ms[4]
            matrices = [tuple(map(tuple, M.tolist())) for M in Ms]
            kernels, ids = number_row_kernels(matrices, q, rows)
            assert [kernels[i] for i in ids] == [reference_row_kernel(M, q) for M in Ms]
            assert ids[5] == ids[4] and kernels[-1] == Subspace.full(q, rows)
            assert len(set(kernels)) == len(kernels)
            for K in kernels:  # the basis read off the points spans exactly those points
                assert Subspace(q, rows, K.basis).points == K.points

    def test_batched_complete_bases_are_greedy(self, rng):
        for q in (2, 3, 5):
            for r, k in [(1, 1), (2, 3), (4, 2), (3, 3)]:
                A = rng.integers(0, q, size=(10, r, k))
                A[0] = 0
                for B in A:
                    rows: list = []
                    for v in list(B) + list(np.eye(k, dtype=np.int64)):
                        if matrix_rank(np.array(rows + [v]), q) > len(rows):
                            rows.append(v)
                    F = complete_basis(B.tolist(), q, k)
                    assert np.array_equal(F, np.array(rows) % q)
                    assert matrix_rank(F, q) == k


class TestKeyedSubspace:
    @pytest.mark.parametrize(
        "q, ambient, basis",
        [
            (2, 2, ((1, 1), (0, 1))),  # spans F_2^2 but is not its RREF
            (2, 2, ((0, 1), (1, 0))),
            (2, 2, ((1, 0), (0, 0))),
            (2, 2, ((1, 0, 0),)),
            (3, 2, ((1, 3),)),
            (3, 2, ((1, -1),)),
            (2, -1, ()),
            (1, 2, ()),
            (2, 2.0, ()),
            (2, 2, ((1, 0.0),)),
        ],
        ids=["not_rref", "rows_out_of_order", "zero_row", "long_row", "entry_q", "entry_negative",
             "ambient_negative", "q_one", "ambient_float", "entry_float"],
    )
    def test_constructor_rejects_a_non_canonical_basis(self, q, ambient, basis):
        with pytest.raises(DimensionMismatchError):
            Subspace(q, ambient, basis)

    def test_constructor_accepts_a_canonical_basis(self):
        S = Subspace(2, 2, [[1, 0], [0, 1]])
        assert S == Subspace.full(2, 2) and S.basis == ((1, 0), (0, 1))
        plane = span([[1, 2, 1], [0, 0, 2]], 3)
        assert Subspace(3, 3, ((1, 2, 0), (0, 0, 1))) == plane
        assert Subspace(2, 0, ()) == Subspace.zero(2, 0)

    def test_audit_checks_a_trusted_construction(self):
        # The audit fixture in conftest.py runs _check on every _unchecked record.
        with pytest.raises(DimensionMismatchError):
            Subspace._unchecked(2, 2, ((1, 1), (0, 1)))

    @pytest.mark.trusted_records("shows that _unchecked alone skips the check the audit adds")
    def test_unchecked_skips_the_check_without_the_audit(self):
        assert Subspace._unchecked(2, 2, ((1, 1), (0, 1))).basis == ((1, 1), (0, 1))

    def test_equal_spans_are_equal_and_hash_alike(self):
        S = span([[1, 1, 0], [0, 1, 1]], 2)
        T = span([[1, 0, 1], [1, 1, 0], [0, 1, 1]], 2)
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
        assert Subspace.full(2, 3).sort_key() == (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @pytest.mark.parametrize("q,t", [(2, 4), (3, 3), (5, 3), (251, 2)])
    def test_order_matches_int64_bytes_below_256(self, q, t):
        # Earlier releases ordered subspaces by the bytes of their int64 basis;
        # below 256 an entry is one leading byte, so the two orders agree.
        spaces = list(subspaces_up_to_dim(q, t, t))
        int64_order = sorted(spaces, key=lambda S: (S.dim, np.array(S.basis, np.int64).tobytes()))
        assert int64_order == spaces

    def test_immutable(self):
        S = Subspace.full(2, 2)
        with pytest.raises(AttributeError):
            S._key = None
        with pytest.raises(TypeError):
            S.basis[0][0] = 0
