"""Singleton bound, MDS detection and the MDS extension theorem."""

import numpy as np
import pytest

from modcode import (
    Alphabet,
    Code,
    DomainRejectionError,
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
from modcode.mds import code_cardinality

from conftest import random_monomial


def repetition_code(q=2, n=3):
    return Code(Alphabet(q, 1, 1), ModuleSpace(q, 1, 1), [np.array([[1]])] * n)


def parity_code(t):
    """Single-parity-check code over F_2: t unit columns plus their sum."""
    cols = [np.eye(t, dtype=int)[:, [i]] for i in range(t)]
    cols.append(np.ones((t, 1), dtype=int))
    return Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, t), cols)


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
