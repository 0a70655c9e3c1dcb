"""Solution forging, the incidence system and the minimality search."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from modcode import (
    DomainRejectionError,
    ModuleSpace,
    DimensionMismatchError,
    RankInfeasibleError,
    Submodule,
    Subspace,
    Unextendable,
    counterexample_length,
    extend_to_monomial,
    gaussian_binomial,
    incidence_matrix,
    is_isometry_bruteforce,
    is_isometry_criterion,
    kernel_tuple,
    min_nontrivial_length,
    minimal_counterexample,
    row_kernel,
    solution_to_codes,
)
from modcode import budget
from modcode.codes import module_elements
from modcode.forge import kernel_generators
from modcode.linalg import contains, enumerate_subspaces, matrix_rank, subspaces_up_to_dim

from conftest import random_subspace, reference_inverse, span
from references import (NotACoverError, covering_by_proper_submodules,
                        inclusion_exclusion_solution, solution_from_counters, verify_cover)


class TestInclusionExclusion:
    def test_f2_plane_three_lines(self):
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        # 2^(r-1) = 4 terms per side before cancellation.
        assert sum(c for _, c in sol.lambda_only) == 4
        V, U = Counter(dict(sol.lambda_only)), Counter(dict(sol.mu_only))
        full, zero = Subspace.full(2, 2), Subspace.zero(2, 2)
        # Even side: M plus the three pairwise line intersections (all zero).
        assert V == Counter({full: 1, zero: 3})
        # Odd side: the three lines plus the triple intersection.
        assert U[zero] == 1 and sum(U[line] for line in enumerate_subspaces(2, 2, 1)) == 3
        assert V != U

    def test_f3_plane_four_lines(self):
        sp = ModuleSpace(3, 1, 2)
        M = Submodule(sp, Subspace.full(3, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        assert sum(c for _, c in sol.lambda_only) == 2 ** (4 - 1)
        assert Counter(dict(sol.lambda_only)) != Counter(dict(sol.mu_only))

    def test_not_a_cover_rejected(self):
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        two_lines = covering_by_proper_submodules(M)[:2]
        with pytest.raises(NotACoverError):
            inclusion_exclusion_solution(M, two_lines)

    def test_improper_member_rejected(self):
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        with pytest.raises(NotACoverError):
            inclusion_exclusion_solution(M, [M])


def module_elements_in(module):
    """Every element of a submodule, as an m x t array: coefficients times the support basis."""
    sp, S = module.space, module.support
    A = np.array(module_elements(sp.q, sp.m, S.dim)).reshape(sp.q ** (sp.m * S.dim), sp.m, S.dim)
    return A @ np.array(S.basis).reshape(S.dim, sp.t) % sp.q


class TestVerifyCover:
    def test_lattice_check_matches_element_loop_on_every_partial_covering(self):
        """Every nonempty subset of the hyperplanes of every support S of
        dimension > m, q <= 3, t <= 3, against a reference loop over the
        module's elements and their row spaces."""
        cases = covers = 0
        for q, t in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for S in subspaces_up_to_dim(q, t, t):
                for m in range(1, S.dim):
                    module = Submodule(ModuleSpace(q, m, t), S)
                    parts = covering_by_proper_submodules(module)
                    # Bit i of masks[e] is set iff element e lies in parts[i].
                    masks = [
                        sum(1 << i for i, E in enumerate(parts) if contains(E.support, row_space))
                        for row_space in (
                            span(X, q, t)
                            for X in module_elements_in(module)
                        )
                    ]
                    for r in range(1, len(parts) + 1):
                        for chosen in itertools.combinations(range(len(parts)), r):
                            bits = sum(1 << i for i in chosen)
                            expected = all(mask & bits for mask in masks)
                            try:
                                verify_cover(module, [parts[i] for i in chosen])
                                covered = True
                            except NotACoverError:
                                covered = False
                            assert covered == expected, (q, t, S, m, chosen)
                            cases += 1
                            covers += expected
        assert cases == 16902 and 0 < covers < cases

    def test_covering_by_lines_needs_m_1(self):
        # The three lines of F_2^2 cover its vectors, but not the 2 x 2 matrices of rank 2.
        M = Submodule(ModuleSpace(2, 1, 2), Subspace.full(2, 2))
        lines = covering_by_proper_submodules(M)
        verify_cover(M, lines)
        with pytest.raises(NotACoverError):
            verify_cover(Submodule(ModuleSpace(2, 2, 2), Subspace.full(2, 2)), lines)


class TestHomWithKernel:
    def test_full_kernel_gives_zero_hom(self):
        sp = ModuleSpace(2, 1, 2)
        G = kernel_generators(sp, [Subspace.full(2, 2)], 2)[0]
        assert G == ((0, 0), (0, 0))

    def test_zero_kernel_square_is_invertible(self):
        sp = ModuleSpace(2, 1, 2)
        G = kernel_generators(sp, [Subspace.zero(2, 2)], 2)[0]
        assert matrix_rank(G, 2) == 2

    def test_prescribed_line_kernel(self):
        sp = ModuleSpace(2, 1, 2)
        S = span([[1, 1]], 2)
        G = kernel_generators(sp, [S], 2)[0]
        assert row_kernel(G, 2) == S

    def test_random_kernels_realized(self, rng):
        for q, m, t, k in [(2, 1, 3, 3), (3, 1, 2, 2), (2, 2, 3, 3)]:
            sp = ModuleSpace(q, m, t)
            for _ in range(10):
                S = random_subspace(rng, q, t)
                G = kernel_generators(sp, [S], k)[0]
                assert row_kernel(G, q) == S

    def test_batch_matches_single(self, rng):
        for q, m, t, k in [(2, 1, 3, 3), (3, 1, 2, 2), (2, 2, 3, 4)]:
            sp = ModuleSpace(q, m, t)
            supports = [random_subspace(rng, q, t) for _ in range(12)]
            stack = kernel_generators(sp, supports, k)
            for S, G in zip(supports, stack):
                assert np.array_equal(G, kernel_generators(sp, [S], k)[0])
                assert row_kernel(G, q) == S
        assert kernel_generators(ModuleSpace(2, 1, 2), [], 2) == []

    @pytest.mark.parametrize("q,t,k", [(2, 3, 3), (2, 4, 5), (3, 3, 4), (5, 2, 3), (2, 5, 5)])
    def test_matches_inverse_of_completed_basis(self, q, t, k):
        # The generator of S is F^-1 past its first dim(S) columns, with F the basis
        # of S followed by the unit vectors that greedy rank tests accept.
        for S in subspaces_up_to_dim(q, t, t):
            rows = [list(b) for b in S.basis]
            for e in np.eye(t, dtype=int).tolist():
                if matrix_rank(rows + [e], q) > len(rows):
                    rows.append(e)
            expected = np.zeros((t, k), dtype=int)
            expected[:, : t - S.dim] = reference_inverse(rows, q)[:, S.dim :]
            assert np.array_equal(kernel_generators(ModuleSpace(q, 1, t), [S], k)[0], expected)

    def test_rank_infeasible(self):
        sp = ModuleSpace(2, 1, 3)
        with pytest.raises(RankInfeasibleError):
            kernel_generators(sp, [Subspace.zero(2, 3)], 2)


class TestCounterexample:
    @pytest.mark.parametrize(
        "q,m,k,N", [(2, 1, 2, 3), (3, 1, 2, 4), (2, 2, 3, 15), (5, 1, 2, 6), (2, 1, 3, 3)]
    )
    def test_lengths(self, q, m, k, N):
        lam, mu = minimal_counterexample(q, m, k)
        assert lam.length == mu.length == N == counterexample_length(q, m)

    def test_length_matches_binomial_sum(self):
        # N = half the full layered sum, exactly.
        for q, m in [(2, 1), (3, 1), (2, 2), (5, 1)]:
            t = m + 1
            total = sum(
                q ** (i * (i - 1) // 2) * gaussian_binomial(t, i, q)
                for i in range(t + 1)
            )
            assert counterexample_length(q, m) * 2 == total

    def test_zero_column_distribution(self):
        lam, mu = minimal_counterexample(2, 2, 3)
        lam_zero = sum(1 for c in lam.columns if not any(map(any, c.matrix)))
        mu_zero = sum(1 for c in mu.columns if not any(map(any, c.matrix)))
        assert lam_zero == 1 and mu_zero == 0

    def test_structure_q2_m1(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        lam_ranks = sorted(int(np.linalg.matrix_rank(c.matrix)) for c in lam.columns)
        assert lam_ranks == [0, 2, 2]
        assert all(row_kernel(c.matrix, 2).dim == 1 for c in mu.columns)

    def test_pair_is_unextendable_isometry(self):
        for q, m, k in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
            lam, mu = minimal_counterexample(q, m, k)
            assert is_isometry_bruteforce(lam, mu)
            assert isinstance(extend_to_monomial(lam, mu), Unextendable)

    @pytest.mark.parametrize("q,m,k", [(2, 2, 3), (3, 2, 3)])
    def test_kernel_diff_lists_every_subspace_once(self, q, m, k):
        # Codimension j lands on the lambda side for even j, on the mu side for
        # odd j, with multiplicity q^binom(j, 2); both sides in canonical order.
        lam, mu = minimal_counterexample(q, m, k)
        t = m + 1
        sides: tuple[list, list] = ([], [])
        for S in subspaces_up_to_dim(q, t, t):
            j = t - S.dim
            sides[j % 2].append((S, q ** (j * (j - 1) // 2)))
        expected = Unextendable(tuple(sides[0]), tuple(sides[1]))
        assert extend_to_monomial(lam, mu) == expected

    def test_k_le_m_rejected(self):
        with pytest.raises(DomainRejectionError):
            minimal_counterexample(2, 1, 1)
        with pytest.raises(DomainRejectionError):
            minimal_counterexample(2, 2, 2)


class TestIncidenceSystem:
    @pytest.mark.parametrize("q, m, t, max_col_dim, n_rows, n_cols", [
        (2, 1, 2, None, 4, 5), (2, 2, 3, None, 15, 16), (3, 1, 3, None, 14, 28),
        (2, 2, 3, 1, 15, 8),
    ])
    def test_rows_are_containment_bitsets(self, q, m, t, max_col_dim, n_rows, n_cols):
        system = incidence_matrix(q, m, t, max_col_dim)
        rows, cols = system.rows, system.cols
        assert (len(rows), len(system.Z), len(cols)) == (n_rows, n_rows, n_cols)
        assert list(cols) == sorted(cols, key=lambda S: (-S.dim, S.sort_key()))
        top = t if max_col_dim is None else max_col_dim
        assert sorted(cols, key=Subspace.sort_key) == list(subspaces_up_to_dim(q, t, top))
        for bits, S in zip(system.Z, rows):
            assert [bits >> j & 1 for j in range(len(cols))] == [contains(K, S) for K in cols]
        assert system.Z[rows.index(Subspace.zero(q, t))] == (1 << len(cols)) - 1

    def test_shape_2_2_3(self):
        system = incidence_matrix(2, 2, 3)
        assert (len(system.Z), len(system.cols)) == (15, 16)
        assert all(0 <= bits < 1 << 16 for bits in system.Z)

    def test_zero_row_is_all_ones(self):
        system = incidence_matrix(2, 2, 3)
        zero_row = system.rows.index(Subspace.zero(2, 3))
        assert system.Z[zero_row] == (1 << len(system.cols)) - 1


class TestMinimalitySearch:
    def test_q2_m1(self):
        r = min_nontrivial_length(2, 1, 2, 5)
        assert r.min_length == 3 and r.exhausted
        # Witness is the signed layered vector up to global sign:
        # +-(1 full, -1 per line, +2 zero).
        by_dim = {}
        for col, c in zip(r.system.cols, r.witness):
            by_dim.setdefault(col.dim, []).append(int(c))
        sign = 1 if by_dim[2][0] > 0 else -1
        assert by_dim[2] == [sign] and by_dim[1] == [-sign] * 3 and by_dim[0] == [2 * sign]

    def test_q3_m1(self):
        r = min_nontrivial_length(3, 1, 2, 6)
        assert r.min_length == 4 and r.exhausted

    def test_q2_m2(self):
        r = min_nontrivial_length(2, 2, 3, 20)
        assert r.min_length == 15 and r.exhausted
        by_dim = {}
        for col, c in zip(r.system.cols, r.witness):
            by_dim.setdefault(col.dim, []).append(int(c))
        sign = 1 if by_dim[3][0] > 0 else -1
        assert by_dim[3] == [sign]
        assert by_dim[2] == [-sign] * 7
        assert by_dim[1] == [2 * sign] * 7
        assert by_dim[0] == [-8 * sign]

    def test_cyclic_columns_only_has_zero_kernel(self):
        for q, m, t in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
            r = min_nontrivial_length(q, m, t, 10, max_col_dim=m)
            assert r.min_length is None and r.witness is None and r.exhausted

    def test_larger_ambient_does_not_shrink_minimum(self):
        r = min_nontrivial_length(2, 1, 3, 4)
        assert r.min_length == 3 and r.exhausted

    def test_search_runs_past_the_recursion_limit(self):
        # (2, 3, 4) has 67 columns, more than the 40 frames left under this limit.
        frame, limit = sys._getframe(), 40
        while frame is not None:
            frame, limit = frame.f_back, limit + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            r = min_nontrivial_length(2, 3, 4, 140)
        finally:
            sys.setrecursionlimit(old)
        assert r.min_length == 135 and r.exhausted

    @pytest.mark.parametrize("q, m, t, bound, nodes", [
        (2, 1, 2, 5, 28), (3, 1, 2, 6, 37), (2, 2, 3, 20, 153), (2, 1, 3, 4, 11_871),
        (2, 3, 4, 140, 1_570),
    ])
    def test_node_budget_stops_search_unexhausted(self, monkeypatch, q, m, t, bound, nodes):
        # The exhaustive search enters exactly `nodes` nodes, so one fewer stops it.
        unbounded = min_nontrivial_length(q, m, t, bound)
        monkeypatch.setattr(budget, "vector_budget", lambda: nodes - 1)
        assert not min_nontrivial_length(q, m, t, bound).exhausted
        monkeypatch.setattr(budget, "vector_budget", lambda: nodes)
        assert min_nontrivial_length(q, m, t, bound) == unbounded and unbounded.exhausted

    def test_node_budget_keeps_the_best_so_far(self, monkeypatch):
        monkeypatch.setattr(budget, "vector_budget", lambda: 37)
        r = min_nontrivial_length(2, 2, 3, 20)
        assert r.min_length == 15 and not r.exhausted

    def test_modcode_budget_bounds_the_search(self, monkeypatch):
        # 11,871 nodes; the incidence charge of 8 x 16 = 128 subspaces fits both budgets.
        unbounded = min_nontrivial_length(2, 1, 3, 4)
        monkeypatch.setenv("MODCODE_BUDGET", "11870")
        assert not min_nontrivial_length(2, 1, 3, 4).exhausted
        monkeypatch.setenv("MODCODE_BUDGET", "11871")
        assert min_nontrivial_length(2, 1, 3, 4) == unbounded and unbounded.exhausted

    def test_witness_in_kernel(self):
        for q, m, t, b in [(2, 1, 2, 5), (3, 1, 2, 6)]:
            r = min_nontrivial_length(q, m, t, b)
            # The dense containment matrix, rebuilt from the bits.
            Z = [[bits >> j & 1 for j in range(len(r.system.cols))] for bits in r.system.Z]
            assert not (np.array(Z) @ np.array(r.witness)).any()
            assert int(np.abs(r.witness).sum()) == 2 * r.min_length


class TestSolutionToCodes:
    def test_trivial_pair_gives_monomially_related_codes(self):
        sp = ModuleSpace(2, 1, 2)
        line = span([[1, 0]], 2)
        lam, mu = solution_to_codes(sp, Unextendable(((line, 2),), ((line, 2),)), 2)
        assert not isinstance(extend_to_monomial(lam, mu), Unextendable)

    def test_forged_minimal_pair_matches_construction(self):
        lam0, mu0 = minimal_counterexample(2, 1, 2)
        sol = solution_from_counters(
            Counter(k.support for k in kernel_tuple(lam0)),
            Counter(k.support for k in kernel_tuple(mu0)),
        )
        lam, mu = solution_to_codes(ModuleSpace(2, 1, 2), sol, 2)
        assert Counter(k.support for k in kernel_tuple(lam)) == Counter(
            k.support for k in kernel_tuple(lam0)
        )
        assert Counter(k.support for k in kernel_tuple(mu)) == Counter(
            k.support for k in kernel_tuple(mu0)
        )

    def test_inclusion_exclusion_f3_realized(self):
        sp = ModuleSpace(3, 1, 2)
        M = Submodule(sp, Subspace.full(3, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        lam, mu = solution_to_codes(sp, sol, 2)
        assert lam.length == 8
        assert is_isometry_criterion(lam, mu)
        assert isinstance(extend_to_monomial(lam, mu), Unextendable)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_covering_route_matches_minimal_pair(self, q):
        # For m = 1 the inclusion-exclusion solution over the q + 1 lines of
        # F_q^2, once its common supports cancel, is the minimal pair's.
        M = Submodule(ModuleSpace(q, 1, 2), Subspace.full(q, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        covering_pair = solution_to_codes(M.space, sol, 2)
        assert covering_pair[0].length == 2**q
        assert extend_to_monomial(*covering_pair) == extend_to_monomial(
            *minimal_counterexample(q, 1, 2)
        )

    def test_realizability_error(self):
        # The forged (2, 2, 3) difference has a kernel of codimension 3, which k = 2 cannot hold.
        diff = extend_to_monomial(*minimal_counterexample(2, 2, 3))
        with pytest.raises(RankInfeasibleError):
            solution_to_codes(ModuleSpace(2, 2, 3), diff, 2)

    def test_rejects_non_solution(self):
        sp = ModuleSpace(2, 1, 2)
        full, zero = Subspace.full(2, 2), Subspace.zero(2, 2)
        with pytest.raises(ValueError, match="isometry equation"):
            solution_to_codes(sp, Unextendable(((full, 1),), ((zero, 1),)), 2)

    def test_rejects_unbalanced_lengths(self):
        sp = ModuleSpace(2, 1, 2)
        full = Subspace.full(2, 2)
        with pytest.raises(ValueError, match="equal total"):
            solution_to_codes(sp, Unextendable(((full, 2),), ((full, 1),)), 2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_nonpositive_count(self, count):
        sp = ModuleSpace(2, 1, 2)
        line = span([[1, 0]], 2)
        with pytest.raises(ValueError, match="positive"):
            solution_to_codes(sp, Unextendable(((line, count),), ((line, count),)), 2)

    def test_rejects_subspace_outside_the_ambient_space(self):
        sp = ModuleSpace(2, 1, 2)
        line = span([[1, 0, 0]], 2)
        with pytest.raises(DimensionMismatchError):
            solution_to_codes(sp, Unextendable(((line, 1),), ((line, 1),)), 2)

    def test_roundtrip_kernels(self):
        # solution -> codes -> kernel multisets is the identity, with the zero
        # subspace on both sides.
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        lam, mu = solution_to_codes(sp, sol, 2)
        assert Counter(k.support for k in kernel_tuple(lam)) == Counter(dict(sol.lambda_only))
        assert Counter(k.support for k in kernel_tuple(mu)) == Counter(dict(sol.mu_only))
