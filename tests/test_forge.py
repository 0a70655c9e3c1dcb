"""Solution forging, the incidence system and the minimality search."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from modcode import (
    DomainRejectionError,
    ModuleSpace,
    NotACoverError,
    RankInfeasibleError,
    SolutionPair,
    Submodule,
    Subspace,
    Unextendable,
    counterexample_length,
    covering_by_proper_submodules,
    extend_to_monomial,
    gaussian_binomial,
    incidence_matrix,
    inclusion_exclusion_solution,
    is_isometry_bruteforce,
    is_isometry_criterion,
    kernel_tuple,
    min_nontrivial_length,
    minimal_counterexample,
    row_kernel,
    solution_to_codes,
)
from modcode import forge
from modcode.codes import module_elements
from modcode.forge import _verify_cover, kernel_generators
from modcode.linalg import contains, enumerate_subspaces, subspaces_up_to_dim

from conftest import random_subspace


class TestInclusionExclusion:
    def test_f2_plane_three_lines(self):
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        # 2^(r-1) = 4 terms per side before cancellation.
        assert SolutionPair.length(sol.V) == 4
        V, U = Counter(dict(sol.V)), Counter(dict(sol.U))
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
        assert SolutionPair.length(sol.V) == 2 ** (4 - 1)
        assert Counter(dict(sol.V)) != Counter(dict(sol.U))

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
                            Subspace.from_rows(X, q, t)
                            for X in module_elements(q, m, S.dim) @ S.basis % q
                        )
                    ]
                    for r in range(1, len(parts) + 1):
                        for chosen in itertools.combinations(range(len(parts)), r):
                            bits = sum(1 << i for i in chosen)
                            expected = all(mask & bits for mask in masks)
                            try:
                                _verify_cover(module, [parts[i] for i in chosen])
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
        _verify_cover(M, lines)
        with pytest.raises(NotACoverError):
            _verify_cover(Submodule(ModuleSpace(2, 2, 2), Subspace.full(2, 2)), lines)


class TestSolutionPair:
    def test_rejects_non_solution(self):
        sp = ModuleSpace(2, 1, 2)
        full, zero = Subspace.full(2, 2), Subspace.zero(2, 2)
        with pytest.raises(ValueError):
            SolutionPair(sp, ((full, 1),), ((zero, 1),))

    def test_rejects_unbalanced_lengths(self):
        sp = ModuleSpace(2, 1, 2)
        full = Subspace.full(2, 2)
        with pytest.raises(ValueError):
            SolutionPair(sp, ((full, 2),), ((full, 1),))


class TestHomWithKernel:
    def test_full_kernel_gives_zero_hom(self):
        sp = ModuleSpace(2, 1, 2)
        G = kernel_generators(sp, [Subspace.full(2, 2)], 2)[0]
        assert not G.any()

    def test_zero_kernel_square_is_invertible(self):
        sp = ModuleSpace(2, 1, 2)
        G = kernel_generators(sp, [Subspace.zero(2, 2)], 2)[0]
        from modcode.linalg import matrix_rank

        assert matrix_rank(G, 2) == 2

    def test_prescribed_line_kernel(self):
        sp = ModuleSpace(2, 1, 2)
        S = Subspace.from_rows([[1, 1]], 2)
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
        assert kernel_generators(ModuleSpace(2, 1, 2), [], 2).shape == (0, 2, 2)

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
        lam_zero = sum(1 for c in lam.columns if not c.matrix.any())
        mu_zero = sum(1 for c in mu.columns if not c.matrix.any())
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
    def test_shape_2_1_2(self):
        sys = incidence_matrix(2, 1, 2)
        assert sys.Z.shape == (4, 5)

    def test_shape_2_2_3(self):
        sys = incidence_matrix(2, 2, 3)
        assert sys.Z.shape == (15, 16)

    def test_zero_row_is_all_ones(self):
        sys = incidence_matrix(2, 2, 3)
        zero_row = sys.rows.index(Subspace.zero(2, 3))
        assert sys.Z[zero_row].all()


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

    def test_node_budget_stops_search_unexhausted(self, monkeypatch):
        monkeypatch.setattr(forge, "NODE_BUDGET", 10)
        r = min_nontrivial_length(2, 2, 3, 20)
        assert not r.exhausted

    def test_witness_in_kernel(self):
        for q, m, t, b in [(2, 1, 2, 5), (3, 1, 2, 6)]:
            r = min_nontrivial_length(q, m, t, b)
            assert not (r.system.Z.astype(np.int64) @ r.witness).any()
            assert int(np.abs(r.witness).sum()) == 2 * r.min_length


class TestSolutionToCodes:
    def test_trivial_pair_gives_monomially_related_codes(self):
        sp = ModuleSpace(2, 1, 2)
        line = Subspace.from_rows([[1, 0]], 2)
        sol = SolutionPair(sp, ((line, 2),), ((line, 2),))
        lam, mu = solution_to_codes(sol, 2)
        assert not isinstance(extend_to_monomial(lam, mu), Unextendable)

    def test_forged_minimal_pair_matches_construction(self):
        lam0, mu0 = minimal_counterexample(2, 1, 2)
        sol = SolutionPair.from_counters(
            ModuleSpace(2, 1, 2),
            Counter(k.support for k in kernel_tuple(lam0)),
            Counter(k.support for k in kernel_tuple(mu0)),
        )
        lam, mu = solution_to_codes(sol, 2)
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
        lam, mu = solution_to_codes(sol, 2)
        assert lam.length == 8
        assert is_isometry_criterion(lam, mu)
        assert isinstance(extend_to_monomial(lam, mu), Unextendable)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_covering_route_matches_minimal_pair(self, q):
        # For m = 1 the inclusion-exclusion solution over the q + 1 lines of
        # F_q^2, once its common supports cancel, is the minimal pair's.
        M = Submodule(ModuleSpace(q, 1, 2), Subspace.full(q, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        covering_pair = solution_to_codes(sol, 2)
        assert covering_pair[0].length == 2**q
        assert extend_to_monomial(*covering_pair) == extend_to_monomial(
            *minimal_counterexample(q, 1, 2)
        )

    def test_realizability_error(self):
        sp = ModuleSpace(2, 1, 3)
        zero = Subspace.zero(2, 3)
        sol = SolutionPair(sp, ((zero, 1),), ((zero, 1),))
        with pytest.raises(RankInfeasibleError):
            solution_to_codes(sol, 2)

    def test_roundtrip_kernels(self):
        # solution -> codes -> kernel multisets is the identity.
        sp = ModuleSpace(2, 1, 2)
        M = Submodule(sp, Subspace.full(2, 2))
        sol = inclusion_exclusion_solution(M, covering_by_proper_submodules(M))
        lam, mu = solution_to_codes(sol, 2)
        assert Counter(k.support for k in kernel_tuple(lam)) == Counter(dict(sol.V))
        assert Counter(k.support for k in kernel_tuple(mu)) == Counter(dict(sol.U))
