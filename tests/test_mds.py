"""Singleton bound, MDS detection and the MDS extension theorem."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcode import (
    Alphabet,
    Code,
    DomainRejectionError,
    EnumerationBudgetError,
    ModuleSpace,
    MonomialMap,
    NotAnIsometryError,
    TheoremViolation,
    ZeroCodeError,
    apply_monomial,
    exhaustive_isometry_scan,
    is_mds,
    mds_extension_check,
    min_distance,
    minimal_counterexample,
    theorem_violations,
)
from modcode import mds
from modcode.codes import codeword_weights
from modcode.linalg import SubspaceLattice, matrix_rank, row_kernel
from modcode.mds import code_cardinality

from conftest import random_code, random_monomial


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


class TestIsMds:
    def test_repetition_is_mds(self):
        report = is_mds(repetition_code())
        assert report.is_mds and report.kappa == 1 and report.d == 3

    def test_parity_is_mds(self):
        report = is_mds(parity_code(2))
        assert report.is_mds and report.kappa == 2
        assert code_cardinality(parity_code(2)) == 4

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
        assert not lam.columns[i].matrix.any()

    def test_singleton_bound_always_holds(self):
        for code in (repetition_code(), parity_code(2), parity_code(3), vandermonde_code()):
            report = is_mds(code)
            assert code_cardinality(code) <= code.alphabet.size**report.kappa

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
        weights = codeword_weights(code)
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
        assert report.is_mds == (q ** (m * t) // kernel_size == code.alphabet.size**report.kappa)
        assert report.is_mds == (report.witnesses is None)
        flat = [i for i, col in enumerate(code.columns) if matrix_rank(col.matrix, q) < k]
        if flat:
            assert report.witnesses == (flat[0],)
        elif not report.is_mds:
            assert len(report.witnesses) == report.kappa
            assert block_rank(code, report.witnesses) < report.kappa * k

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
    def test_preconditions_checked_once_per_scan(self, monkeypatch):
        code = parity_code(3)
        images = [mu for mu, _ in exhaustive_isometry_scan(code)]
        reports = []
        is_mds_once = mds.is_mds
        monkeypatch.setattr(mds, "is_mds", lambda c: reports.append(is_mds_once(c)) or reports[-1])
        assert theorem_violations(code, images) == []
        assert len(images) == 24 and len(reports) == 1

    def test_criterion_runs_once_per_image(self, monkeypatch):
        code = parity_code(3)
        images = [mu for mu, _ in exhaustive_isometry_scan(code)]
        rows = []
        decide = SubspaceLattice.balanced_rows
        monkeypatch.setattr(
            SubspaceLattice,
            "balanced_rows",
            lambda self, supports, W: rows.append(len(W)) or decide(self, supports, W),
        )
        assert theorem_violations(code, images) == []
        assert rows == [len(images)]

    def test_non_mds_rejected(self):
        lam, mu = minimal_counterexample(2, 1, 2)
        with pytest.raises(DomainRejectionError):
            theorem_violations(lam, [mu])

    def test_non_isometries_skipped(self):
        code = repetition_code()
        other = Code(code.alphabet, code.space, [np.array([[1]])] * 2 + [np.zeros((1, 1), dtype=int)])
        assert theorem_violations(code, [other, code]) == []


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
            return [([col.matrix.tolist() for col in mu.columns], ok) for mu, ok in results]

        expected = columns(reference_scan(code))
        assert expected
        assert columns(exhaustive_isometry_scan(code)) == expected

    def test_scan_ternary_parity(self):
        code = parity_code(3, q=3)  # 27^4 candidate tuples
        results = exhaustive_isometry_scan(code)
        assert len(results) == 384
        assert all(ok for _, ok in results)
        assert theorem_violations(code, [mu for mu, _ in results]) == []

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
