"""Singleton bound, MDS detection and the MDS extension theorem."""

import itertools
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modcode import (
    Alphabet,
    Code,
    DomainRejectionError,
    EnumerationBudgetError,
    MdsReport,
    ModuleSpace,
    MonomialMap,
    NotAnIsometryError,
    TheoremViolation,
    Unextendable,
    ZeroCodeError,
    apply_monomial,
    exhaustive_isometry_scan,
    extend_to_monomial,
    is_isometry_bruteforce,
    is_mds,
    isometry_census,
    mds_extension_check,
    min_distance,
    minimal_counterexample,
)
from modcode import codes, mds
from modcode.codes import codeword_weights, module_elements
from modcode.forge import kernel_generators
from modcode.linalg import (SubspaceLattice, enumerate_subspaces, matrix_rank, number_row_kernels,
                            row_kernel)

from conftest import random_code, random_monomial, regulus_code, span
from references import census_counts


def repetition_code(q=2, n=3):
    return Code(Alphabet(q, 1, 1), ModuleSpace(q, 1, 1), [np.array([[1]])] * n)


def parity_code(t, q=2):
    """Single-parity-check code over F_q: t unit columns plus their sum."""
    cols = [np.eye(t, dtype=int)[:, [i]] for i in range(t)]
    cols.append(np.ones((t, 1), dtype=int))
    return Code(Alphabet(q, 1, 1), ModuleSpace(q, 1, t), cols)


def reference_scan(code):
    """The plain product loop over all c^n candidate tuples, as the scan oracle."""
    sp = code.space
    q, m, t, k = sp.q, sp.m, sp.t, code.alphabet.k
    candidates = [np.array(g).reshape(t, k) for g in itertools.product(range(q), repeat=t * k)]
    E = np.array(list(itertools.product(range(q), repeat=m * t))).reshape(-1, m, t)

    def indicator(G):
        Y = np.tensordot(E, G, axes=([2], [0])) % q
        return Y.reshape(Y.shape[0], -1).any(axis=1).astype(np.int64)

    indicators = [indicator(G) for G in candidates]
    target = sum(indicator(col.matrix) for col in code.columns)
    lam_kernels = Counter(col.kernel().support for col in code.columns)
    results = []
    for combo in itertools.product(range(len(candidates)), repeat=code.length):
        if np.array_equal(sum(indicators[i] for i in combo), target):
            mu = Code(code.alphabet, sp, [candidates[i] for i in combo])
            results.append((mu, Counter(col.kernel().support for col in mu.columns) == lam_kernels))
    return results


def binary_columns(*cols):
    """A binary code with m = k = 1 and the given columns of F_2^t."""
    t = len(cols[0])
    return Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, t), [np.array(c).reshape(t, 1) for c in cols])


def block_rank(code, subset):
    """Rank of the t x |subset| k block of the generators in subset."""
    block = np.concatenate([code.columns[i].matrix for i in subset], axis=1)
    return matrix_rank(block, code.space.q)


def vandermonde_code(q=5, t=3, n=4):
    """Reed-Solomon style code: columns (1, a, a^2, ...) for distinct a."""
    cols = []
    for a in range(n):
        cols.append(np.array([[pow(a, i, q)] for i in range(t)], dtype=int))
    return Code(Alphabet(q, 1, 1), ModuleSpace(q, 1, t), cols)


class TestMinDistance:
    def test_repetition(self):
        assert min_distance(repetition_code()) == 3

    def test_parity(self):
        assert min_distance(parity_code(2)) == 2

    def test_forged_code(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        assert min_distance(lam) == 2

    def test_zero_code_rejected(self):
        zero = Code(
            Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.zeros((1, 1), dtype=int)] * 2
        )
        with pytest.raises(ZeroCodeError):
            min_distance(zero)

    @settings(max_examples=500, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 2),
        t=st.integers(0, 3),
        k=st.integers(1, 2),
        n=st.integers(1, 5),
        zeros=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(q=2, m=1, t=0, k=1, n=2, zeros=0, seed=0)  # t = 0: a trivial source module
    @example(q=3, m=2, t=2, k=1, n=3, zeros=3, seed=0)  # the all-zero code
    @example(q=5, m=1, t=3, k=1, n=2, zeros=0, seed=0)  # rank <= 2 < t: not injective
    def test_matches_the_weight_oracle_on_random_codes(self, q, m, t, k, n, zeros, seed):
        # The first `zeros` columns are zero, so zero and non-injective codes come up often.
        rng = np.random.default_rng(seed)
        cols = [rng.integers(0, q, size=(t, k)) * (i >= zeros) for i in range(n)]
        code = Code(Alphabet(q, m, k), ModuleSpace(q, m, t), cols)
        assert outcome(min_distance, code) == outcome(oracle_min_distance, code)

    def test_forged_334_report(self):
        # The report of the release that enumerated all 3^12 source elements.
        lam, _ = minimal_counterexample(3, 3, 4)
        assert is_mds(lam) == MdsReport(1120, 1080, 41, False, (729,))

    def test_lists_no_source_element(self, monkeypatch):
        for module in (codes, mds):
            for name in ("codeword_weights", "vanishing_columns", "module_elements"):
                monkeypatch.setattr(module, name, None)
        assert is_mds(vandermonde_code()) == MdsReport(4, 2, 3, True, None)


def oracle_min_distance(code):
    """The least nonzero weight over every source element, by the brute-force oracle."""
    nonzero = [w for w in codeword_weights(code) if w]
    if not nonzero:
        raise ZeroCodeError("the code has no nonzero codeword")
    return min(nonzero)


def outcome(f, code):
    """f(code), or ZeroCodeError when it raises one."""
    try:
        return f(code)
    except ZeroCodeError:
        return ZeroCodeError


def cardinality(code):
    """|C| = |W| / #{weight-0 elements}, counted without any rank."""
    sp = code.space
    return sp.q ** (sp.m * sp.t) // codeword_weights(code).count(0)


def alphabet_size(code):
    al = code.alphabet
    return al.q ** (al.m * al.k)


class TestIsMds:
    def test_repetition_is_mds(self):
        report = is_mds(repetition_code())
        assert report.is_mds and report.kappa == 1 and report.d == 3

    def test_parity_is_mds(self):
        report = is_mds(parity_code(2))
        assert report.is_mds and report.kappa == 2
        assert cardinality(parity_code(2)) == 4

    def test_vandermonde_is_mds(self):
        report = is_mds(vandermonde_code())
        assert report.is_mds and report.kappa == 3

    def test_forged_code_is_not_mds(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        report = is_mds(lam)
        assert not report.is_mds
        assert report.witnesses is not None
        # The failing column is the zero column, which is not surjective.
        (i,) = report.witnesses
        assert not any(map(any, lam.columns[i].matrix))

    def test_singleton_bound_always_holds(self):
        for code in (repetition_code(), parity_code(2), parity_code(3), vandermonde_code()):
            report = is_mds(code)
            assert cardinality(code) <= alphabet_size(code) ** report.kappa

    def test_surjective_non_mds_code_gets_subset_witness(self):
        # Every column is surjective, but |C| = 4 < 2^kappa = 8.
        code = binary_columns((1, 0), (0, 1), (1, 1), (1, 0))
        report = is_mds(code)
        assert (report.n, report.d, report.kappa, report.is_mds) == (4, 2, 3, False)
        assert report.witnesses == (0, 1, 2)
        assert block_rank(code, report.witnesses) < report.kappa

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 2),
        t=st.integers(1, 3),
        k=st.integers(1, 2),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_is_singleton_equality_on_random_codes(self, q, m, t, k, n, seed):
        code = random_code(np.random.default_rng(seed), q, m, t, k, n)
        weights = np.array(codeword_weights(code))
        kernel_size = int((weights == 0).sum())
        if kernel_size > 1:
            with pytest.raises(DomainRejectionError):
                is_mds(code)
            return
        report = is_mds(code)
        d = int(weights[weights > 0].min())
        assert (report.d, report.kappa) == (d, n - d + 1)
        # Every kappa-column block of an injective code has rank t, so every
        # kappa-subset is an information set iff t = kappa k.
        for subset in itertools.combinations(range(n), report.kappa):
            assert block_rank(code, subset) == t
        # |C| = q^(mt) / #{weight-0 elements}, counted without any rank.
        assert report.is_mds == (q ** (m * t) // kernel_size == alphabet_size(code) ** report.kappa)
        assert report.is_mds == (report.witnesses is None)
        flat = [i for i, col in enumerate(code.columns) if matrix_rank(col.matrix, q) < k]
        if flat:
            assert report.witnesses == (flat[0],)
        elif not report.is_mds:
            assert len(report.witnesses) == report.kappa
            assert block_rank(code, report.witnesses) < report.kappa * k

    def test_fifty_thousand_columns(self):
        # The generators are joined in one pass; a pairwise join of 50,000 takes minutes.
        assert is_mds(repetition_code(n=50_000)) == MdsReport(50_000, 50_000, 1, True, None)

    def test_verdict_enumerates_no_column_subsets(self, monkeypatch):
        monkeypatch.setenv("MODCODE_BUDGET", "10")
        # kappa = 1 with 20 one-column subsets, more than the budget: the
        # Singleton equality decides the verdict without visiting any.
        report = is_mds(repetition_code(n=20))
        assert report.is_mds and report.kappa == 1
        # The first subset of a non-MDS code fails, so its witness needs none of the rest.
        monkeypatch.setenv("MODCODE_BUDGET", "4")
        code = binary_columns((1, 0), (0, 1), (1, 1), *[(1, 0)] * 17)
        report = is_mds(code)
        assert report.kappa == 19 and report.witnesses == tuple(range(19))


class TestMdsExtensionCheck:
    def test_repetition_roundtrip(self, rng):
        code = repetition_code()
        mm = random_monomial(rng, 2, 1, 3)
        image = apply_monomial(mm, code)
        result = mds_extension_check(code, image)
        assert isinstance(result, MonomialMap)
        assert apply_monomial(result, code) == image

    def test_vandermonde_roundtrip(self, rng):
        code = vandermonde_code()
        for _ in range(20):
            mm = random_monomial(rng, 5, 1, 4)
            image = apply_monomial(mm, code)
            result = mds_extension_check(code, image)
            assert isinstance(result, MonomialMap)
            assert apply_monomial(result, code) == image

    def test_kappa_two_rejected(self):
        code = parity_code(2)
        with pytest.raises(DomainRejectionError):
            mds_extension_check(code, code)

    def test_non_mds_rejected(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        with pytest.raises(DomainRejectionError):
            mds_extension_check(lam, mu)

    def test_non_isometry_rejected(self):
        code = repetition_code()
        other = Code(code.alphabet, code.space, [np.array([[1]])] * 2 + [np.zeros((1, 1), dtype=int)])
        with pytest.raises(NotAnIsometryError):
            mds_extension_check(code, other)


class TestTheoremViolations:
    """The theorem is checked only where it applies, on isometries of an MDS code with kappa != 2."""

    def test_non_mds_rejected(self):
        # 162 of the forged code's 270 isometries do not extend, which the theorem allows.
        lam, mu = minimal_counterexample(2, 1, 2)
        census = isometry_census(lam)
        assert not is_mds(lam).is_mds
        assert (census.isometries, census.unextendable) == (270, 162)
        assert isinstance(extend_to_monomial(lam, mu), Unextendable)
        with pytest.raises(DomainRejectionError, match="not MDS"):
            mds_extension_check(lam, mu)

    def test_non_isometry_raises(self):
        code = repetition_code()
        other = Code(code.alphabet, code.space, [np.array([[1]])] * 2 + [np.zeros((1, 1), dtype=int)])
        assert isometry_census(code).unextendable == 0
        assert isinstance(mds_extension_check(code, code), MonomialMap)
        with pytest.raises(NotAnIsometryError, match="not Hamming-isometric"):
            mds_extension_check(code, other)

    def test_an_unextendable_mds_isometry_is_a_violation(self, monkeypatch):
        # No MDS code with kappa != 2 reaches this branch, so is_mds is made to
        # report the forged (2, 1, 2) lambda as one, with kappa = 3.
        lam, mu = minimal_counterexample(2, 1, 2)
        monkeypatch.setattr(mds, "is_mds", lambda code: mds.MdsReport(3, 1, 3, True, None))
        result = mds_extension_check(lam, mu)
        expected = extend_to_monomial(lam, mu)
        assert isinstance(result, TheoremViolation) and isinstance(result, Unextendable)
        assert (result.lambda_only, result.mu_only) == (expected.lambda_only, expected.mu_only)


class TestExhaustiveScan:
    def test_repetition_all_extendable(self):
        results = exhaustive_isometry_scan(repetition_code())
        assert results
        assert all(extendable for _, extendable in results)

    def test_parity_4_3_all_extendable(self):
        results = exhaustive_isometry_scan(parity_code(3))
        assert results
        assert all(extendable for _, extendable in results)

    def test_forged_code_scan_finds_unextendable(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        results = exhaustive_isometry_scan(lam)
        unextendable = [m for m, ok in results if not ok]
        assert unextendable
        # The forged partner itself appears in the scan.
        assert any(m == mu for m, _ in results)

    def test_no_theorem_violation_on_scanned_mds_codes(self):
        for code in (repetition_code(), parity_code(3)):
            for mu, _ in exhaustive_isometry_scan(code):
                outcome = mds_extension_check(code, mu)
                assert not isinstance(outcome, TheoremViolation)

    @pytest.mark.parametrize(
        "code",
        [
            repetition_code(),
            parity_code(3),
            minimal_counterexample(2, 1, 2)[0],
            # n = 1: the left half is empty; m = k = 2 exercises both block axes.
            Code(Alphabet(2, 2, 2), ModuleSpace(2, 2, 2), [np.eye(2, dtype=int)]),
            # n = 2: one position on each side.
            Code(Alphabet(3, 1, 1), ModuleSpace(3, 1, 2), [[[1], [0]], [[1], [1]]]),
            Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 2), [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]),
        ],
        ids=["repetition", "parity2", "forged212", "n1_m2_k2", "n2_q3", "n2_k2"],
    )
    def test_scan_matches_reference_loop_in_order(self, code):
        def columns(results):
            return [([np.array(col.matrix).tolist() for col in mu.columns], ok)
                    for mu, ok in results]

        expected = columns(reference_scan(code))
        assert expected
        assert columns(exhaustive_isometry_scan(code)) == expected

    def test_scan_ternary_parity(self):
        code = parity_code(3, q=3)  # 27^4 candidate tuples
        results = exhaustive_isometry_scan(code)
        assert len(results) == 384
        assert all(ok for _, ok in results)
        assert all(isinstance(mds_extension_check(code, mu), MonomialMap) for mu, _ in results)

    @pytest.mark.parametrize(
        "code",
        [repetition_code(), parity_code(3), minimal_counterexample(2, 1, 2)[0], parity_code(3, q=3)],
        ids=["rep2", "parity2", "forged212", "parity3"],
    )
    def test_scan_images_flags_equal_kernel_multiset_comparison(self, code):
        def kernels(c):
            return Counter(row_kernel(col.matrix, c.space.q) for col in c.columns)

        results = exhaustive_isometry_scan(code)
        flags = [kernels(mu) == kernels(code) for mu, _ in results]
        assert [ok for _, ok in results] == flags
        assert all(type(ok) is bool for _, ok in results)

    def test_scan_budget_checked_first(self, monkeypatch):
        code = repetition_code()  # q^(tkn) = 2^3
        monkeypatch.setenv("MODCODE_BUDGET", "8")
        assert len(exhaustive_isometry_scan(code)) == 1
        monkeypatch.setenv("MODCODE_BUDGET", "7")
        monkeypatch.setattr(mds, "module_elements", None)
        with pytest.raises(EnumerationBudgetError):
            exhaustive_isometry_scan(code)


def kernel_counts(code, supports):
    """The kernel multiset of a code, as its counts over ``supports``."""
    kernels = Counter(row_kernel(G, code.space.q) for G in code.generators)
    assert set(kernels) <= set(supports)
    return tuple(kernels[S] for S in supports)


def scan_classes(code, supports):
    """The reference scan's images counted by kernel multiset over ``supports``."""
    return Counter(kernel_counts(mu, supports) for mu, _ in exhaustive_isometry_scan(code))


def census_classes(census):
    return dict(zip(census.classes, census.counts))


class TestIsometryCensus:
    @pytest.mark.parametrize(
        "code, isometries, unextendable",
        [(repetition_code(), 1, 0), (parity_code(3), 24, 0),
         (minimal_counterexample(2, 1, 2)[0], 270, 162), (parity_code(3, q=3), 384, 0)],
        ids=["rep2", "parity2", "forged212", "parity3"],
    )
    def test_matches_reference_scan_class_by_class(self, code, isometries, unextendable):
        census = isometry_census(code)
        assert (census.isometries, census.unextendable) == (isometries, unextendable)
        assert census_classes(census) == scan_classes(code, census.supports)
        own = census.classes[census.own]
        assert own == kernel_counts(code, census.supports)
        assert sum(ok for _, ok in exhaustive_isometry_scan(code)) == census.counts[census.own]

    @staticmethod
    def check_against_scan(q, m, t, k, n, data):
        """A drawn code of these sizes, zero columns allowed, has the reference scan's classes."""
        entries = st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                           min_size=t, max_size=t)
        zero = [[0] * k] * t
        gens = data.draw(st.lists(st.one_of(st.just(zero), entries), min_size=n, max_size=n))
        code = Code(Alphabet(q, m, k), ModuleSpace(q, m, t), gens)
        census = isometry_census(code)
        scan = exhaustive_isometry_scan(code)
        assert census_classes(census) == scan_classes(code, census.supports)
        assert census.isometries == len(scan)
        assert census.unextendable == sum(1 for _, ok in scan if not ok)

    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from([2, 3]), m=st.integers(1, 2), t=st.integers(1, 3),
           k=st.integers(1, 2), n=st.integers(1, 4), data=st.data())
    def test_matches_reference_scan_on_small_codes(self, q, m, t, k, n, data):
        # Within the scan's default budget of 10^7 tuples, and quick.
        assume(q ** (t * k * n) <= 3**12)
        self.check_against_scan(q, m, t, k, n, data)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 4), data=st.data())
    def test_matches_reference_scan_where_isometries_fail_to_extend(self, n, data):
        # k > m at length >= 1 + q: about one binary code in six here has more than one class.
        self.check_against_scan(2, 1, 2, 2, n, data)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tuples_per_kernel_match_a_direct_count(self, q, t, k):
        # module_elements(q, t, k) lists every t x k matrix; count them by row kernel.
        matrices = module_elements(q, t, k)
        kernels, ids = number_row_kernels(matrices, q, t)
        direct = {kernels[i]: c for i, c in Counter(ids).items()}
        assert sum(direct.values()) == q ** (t * k)
        # With m = t every subspace is a lattice row, so a one-column code has one
        # class, its own kernel, standing for every matrix with that kernel.
        space, alphabet = ModuleSpace(q, t, t), Alphabet(q, t, k)
        for S, count in direct.items():
            census = isometry_census(Code(alphabet, space, kernel_generators(space, [S], k)))
            assert set(census.supports) == set(direct)
            assert census.counts == (count,)

    def test_f5_parity_matches_reference_scan(self, monkeypatch):
        code = parity_code(3, q=5)
        census = isometry_census(code)
        assert (census.isometries, census.unextendable) == (6144, 0)
        # 125^4 candidate tuples, over the scan's default budget.
        with pytest.raises(EnumerationBudgetError):
            exhaustive_isometry_scan(code)
        monkeypatch.setenv("MODCODE_BUDGET", str(5**12))
        assert census_classes(census) == scan_classes(code, census.supports)

    @pytest.mark.parametrize("n, isometries, unextendable", [(3, 2592, 1296), (4, 248832, 217728)])
    def test_spread_codes(self, n, isometries, unextendable, monkeypatch):
        # Columns of M_{1x2}(F_2) whose kernels are n planes of a spread of F_2^4:
        # the F_4-lines {(x, c x)} and {(0, x)} of F_4^2, with F_4 = F_2[w], w^2 = w + 1.
        def times(a, c):
            return (a[0] * c[0] + a[1] * c[1]) % 2, (a[0] * c[1] + a[1] * (c[0] + c[1])) % 2

        planes = [[(1, 0, *times((1, 0), c)), (0, 1, *times((0, 1), c))]
                  for c in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        planes.append([(0, 0, 1, 0), (0, 0, 0, 1)])
        space = ModuleSpace(2, 1, 4)
        spread = [span(rows, 2) for rows in planes]
        code = Code(Alphabet(2, 1, 2), space, kernel_generators(space, spread[:n], 2))
        census = isometry_census(code)
        assert (census.isometries, census.unextendable) == (isometries, unextendable)
        if n == 3:
            # 256^3 candidate tuples, over the scan's default budget.
            monkeypatch.setenv("MODCODE_BUDGET", str(2**24))
            assert census_classes(census) == scan_classes(code, census.supports)

    @pytest.mark.parametrize("q, m, k", [(2, 4, 5), (3, 3, 4)])
    def test_counts_match_the_direct_formula_on_forged_codes(self, q, m, k):
        for code in minimal_counterexample(q, m, k):
            census = isometry_census(code)
            assert len(census.classes) == 2
            assert census.counts == census_counts(code, census)

    @pytest.mark.parametrize("q, isometries, unextendable", [
        (3, 254_803_968, 127_401_984),
        (5, 17_612_050_268_160_000_000, 8_806_025_134_080_000_000),
    ])
    def test_regulus_codes(self, q, isometries, unextendable):
        # A regulus switches to its opposite regulus, which covers the same points:
        # a second class, allowed because kappa = 2 is outside the theorem.
        code = regulus_code(q)
        report = is_mds(code)
        assert report.is_mds and report.kappa == 2
        census = isometry_census(code)
        assert len(census.classes) == 2
        assert (census.isometries, census.unextendable) == (isometries, unextendable)
        assert census.counts == census_counts(code, census)

    def test_partial_spreads_of_pg_3_2(self):
        # Every set of n >= 2 pairwise skew lines of PG(3, 2) is the kernel set of a kappa = 2
        # MDS code, and every 3 skew lines there form a regulus: a second class iff n >= 3.
        lines = enumerate_subspaces(2, 4, 2)
        space, alphabet = ModuleSpace(2, 1, 4), Alphabet(2, 1, 2)

        def skew_sets(chosen, start):
            for j in range(start, len(lines)):
                if not any(lines[i].points & lines[j].points for i in chosen):
                    yield chosen + (j,)
                    yield from skew_sets(chosen + (j,), j + 1)

        tally = Counter()
        for chosen in skew_sets((), 0):
            if len(chosen) >= 2:
                code = Code(alphabet, space, kernel_generators(space, [lines[i] for i in chosen], 2))
                report = is_mds(code)
                classes = len(isometry_census(code).classes)
                tally[len(chosen), report.is_mds, report.kappa, classes > 1] += 1
        assert tally == {(2, True, 2, False): 280, (3, True, 2, True): 560,
                         (4, True, 2, True): 280, (5, True, 2, True): 56}

    def test_representatives_are_the_unextendable_classes(self):
        lam = minimal_counterexample(2, 1, 2)[0]
        census = isometry_census(lam)
        others = [y for i, y in enumerate(census.classes) if i != census.own]
        assert len(others) == 1
        for y in others:
            kernels = [S for S, c in zip(census.supports, y) for _ in range(c)]
            rep = Code(lam.alphabet, lam.space, kernel_generators(lam.space, kernels, 2))
            assert kernel_counts(rep, census.supports) == y
            assert is_isometry_bruteforce(lam, rep)
            assert isinstance(extend_to_monomial(lam, rep), Unextendable)
        parity = isometry_census(parity_code(3))
        assert len(parity.classes) == 1 and parity.unextendable == 0

    def test_search_nodes_charged_to_vector_budget(self, monkeypatch):
        # The census of the binary [4,3] parity code enters exactly 30 search nodes.
        monkeypatch.setenv("MODCODE_BUDGET", "29")
        with pytest.raises(EnumerationBudgetError, match=re.escape(
                "isometry census (one vector per search node) needs 30 vectors, budget is 29")):
            isometry_census(parity_code(3))
        monkeypatch.setenv("MODCODE_BUDGET", "30")
        assert isometry_census(parity_code(3)).isometries == 24

    def test_criterion_rejecting_a_class_raises(self, monkeypatch):
        decide = SubspaceLattice.balanced_rows
        monkeypatch.setattr(SubspaceLattice, "balanced_rows",
                            lambda self, supports, W: [False] + decide(self, supports, W)[1:])
        with pytest.raises(NotAnIsometryError, match="census class 0"):
            isometry_census(parity_code(3))

    def test_search_runs_past_the_recursion_limit(self):
        # All 67 subspaces of F_2^4 are candidates, more than the 40 frames left.
        code = Code(Alphabet(2, 1, 4), ModuleSpace(2, 1, 4),
                    [np.eye(4, dtype=int), np.zeros((4, 4), dtype=int)])
        frame, limit = sys._getframe(), 40
        while frame is not None:
            frame, limit = frame.f_back, limit + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            census = isometry_census(code)
        finally:
            sys.setrecursionlimit(old)
        assert len(census.supports) == 67
        # One class: an invertible column and a zero column, in either order.
        assert census.counts == (2 * 15 * 14 * 12 * 8,)
