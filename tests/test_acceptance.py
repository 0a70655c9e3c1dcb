"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines; each test also asserts, so a plain pytest run gates on the
same conditions.
"""

import time

import numpy as np

from modcode import (
    Alphabet,
    Code,
    ModuleSpace,
    MonomialMap,
    Submodule,
    Subspace,
    TheoremViolation,
    Unextendable,
    apply_monomial,
    cauchy_identities_check,
    count_subspaces_containing,
    enumerate_subspaces,
    exhaustive_isometry_scan,
    extend_to_monomial,
    fourier_of_indicator,
    is_isometry_bruteforce,
    is_isometry_criterion,
    mds_extension_check,
    min_nontrivial_length,
    minimal_counterexample,
    orthogonal_submodule,
    satisfies_isometry_equation,
    verify_dual_equation,
)
from modcode.codes import module_elements
from modcode.linalg import contains, subspaces_up_to_dim

from conftest import random_code, random_monomial, random_subspace

FORGE_TARGETS = [(2, 1, 2, 3), (3, 1, 2, 4), (2, 2, 3, 15)]


def verdict(number: int, passed: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, text


def test_criterion_1_counterexample_lengths():
    ok = True
    for q, m, k, N in FORGE_TARGETS:
        start = time.perf_counter()
        lam, mu = minimal_counterexample(q, m, k)
        elapsed = time.perf_counter() - start
        ok = ok and lam.length == mu.length == N and elapsed < 1.0
    verdict(1, ok, "forged lengths are 3, 4, 15 and each build takes < 1 s")


def test_criterion_2_forged_pairs_verified():
    ok = True
    for q, m, k, _ in FORGE_TARGETS:
        start = time.perf_counter()
        lam, mu = minimal_counterexample(q, m, k)
        ok = ok and is_isometry_bruteforce(lam, mu)
        ok = ok and is_isometry_criterion(lam, mu)
        result = extend_to_monomial(lam, mu)
        ok = ok and isinstance(result, Unextendable)
        if isinstance(result, Unextendable):
            full = Subspace.full(q, m + 1)
            lam_full = dict(result.lambda_only).get(full, 0)
            mu_full = dict(result.mu_only).get(full, 0)
            ok = ok and lam_full == 1 and mu_full == 0
        ok = ok and (time.perf_counter() - start) < 1.0
    verdict(
        2,
        ok,
        "each forged pair passes oracle and criterion, is unextendable, and "
        "the kernel diff shows exactly one zero column on the lambda side",
    )


def test_criterion_3_minimality_search():
    ok = True
    start = time.perf_counter()
    for q, m, t, N in [(2, 1, 2, 3), (3, 1, 2, 4), (2, 2, 3, 15)]:
        r = min_nontrivial_length(q, m, t, N + 5)
        ok = ok and r.min_length == N and r.exhausted
    # Cyclic-support columns only: the kernel is zero.
    for q, m, t in [(2, 1, 2), (3, 1, 2), (2, 2, 3)]:
        r = min_nontrivial_length(q, m, t, 10, max_col_dim=m)
        ok = ok and r.min_length is None and r.exhausted
    # Optional cross-check: a larger ambient space does not shrink the minimum.
    r = min_nontrivial_length(2, 1, 3, 4)
    ok = ok and r.min_length == 3 and r.exhausted
    ok = ok and (time.perf_counter() - start) < 300.0
    verdict(3, ok, "minimality search returns N exhaustively; cyclic-only kernel is zero")


def test_criterion_4_identity_suites():
    start = time.perf_counter()
    ok = all(cauchy_identities_check(t, q) for q in (2, 3, 5) for t in range(1, 9))
    for q in (2, 3):
        for t in range(1, 5):
            for p in range(t + 1):
                for X in enumerate_subspaces(q, t, p):
                    for i in range(p, t + 1):
                        direct = sum(
                            1 for V in enumerate_subspaces(q, t, i) if contains(V, X)
                        )
                        ok = ok and direct == count_subspaces_containing(X, i)
    ok = ok and (time.perf_counter() - start) < 10.0
    verdict(4, ok, "q-binomial identities (t <= 8) and the containment count lemma hold exactly")


def test_criterion_5_fourier_duality(rng):
    start = time.perf_counter()
    ok = True
    # Exhaustive collapse-or-vanish at q = 2, m <= 2, t <= 3.
    for m in (1, 2):
        for t in (1, 2, 3):
            sp = ModuleSpace(2, m, t)
            for S in subspaces_up_to_dim(2, t, t):
                sub = Submodule(sp, S)
                dual = orthogonal_submodule(sub)
                for Y in module_elements(2, m, t):
                    counts = fourier_of_indicator(sub, Y)
                    if contains(dual.support, Subspace.from_rows(Y, 2, t)):
                        ok = ok and counts == (sub.size, 0)
                    else:
                        ok = ok and counts == (sub.size // 2, sub.size // 2)
    # Primal and dual equation checks agree on >= 10^3 random pairs.
    for _ in range(1000):
        q = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        t = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        sp = ModuleSpace(q, m, t)
        V = tuple(Submodule(sp, random_subspace(rng, q, t)) for _ in range(n))
        if rng.random() < 0.5:
            U = tuple(V[i] for i in rng.permutation(n))
        else:
            U = tuple(Submodule(sp, random_subspace(rng, q, t)) for _ in range(n))
        ok = ok and satisfies_isometry_equation(V, U) == verify_dual_equation(V, U)
    ok = ok and (time.perf_counter() - start) < 60.0
    verdict(5, ok, "Fourier collapse law exhaustive at q=2 and primal/dual equations agree")


def test_criterion_6_criterion_oracle_equivalence(rng):
    disagreements = 0
    for trial in range(1000):
        q = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 7))
        lam = random_code(rng, q, m, t, k, n)
        if trial % 3 == 0:
            mu = apply_monomial(random_monomial(rng, q, k, n), lam)
        else:
            mu = random_code(rng, q, m, t, k, n)
        if is_isometry_criterion(lam, mu) != is_isometry_bruteforce(lam, mu):
            disagreements += 1
    verdict(6, disagreements == 0, f"criterion vs oracle on 1000 random pairs: {disagreements} disagreements")


def test_criterion_7_monomial_roundtrip(rng):
    failures = 0
    for _ in range(1000):
        q = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        t = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, m, t, k, n)
        image = apply_monomial(random_monomial(rng, q, k, n), code)
        recovered = extend_to_monomial(code, image)
        if not isinstance(recovered, MonomialMap) or apply_monomial(recovered, code) != image:
            failures += 1
    verdict(7, failures == 0, f"monomial round trip on 1000 random pairs: {failures} failures")


def test_criterion_8_mds_theorem_desk_scale():
    start = time.perf_counter()
    repetition = Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3)
    parity_cols = [np.eye(3, dtype=int)[:, [i]] for i in range(3)]
    parity_cols.append(np.ones((3, 1), dtype=int))
    parity = Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 3), parity_cols)

    ok = True
    violations = 0
    for code in (repetition, parity):
        results = exhaustive_isometry_scan(code)
        ok = ok and results and all(ext for _, ext in results)
        for mu, _ in results:
            if isinstance(mds_extension_check(code, mu), TheoremViolation):
                violations += 1

    lam, mu = minimal_counterexample(2, 1, 2)
    scan = exhaustive_isometry_scan(lam)
    ok = ok and any(image == mu and not ext for image, ext in scan)
    ok = ok and violations == 0
    ok = ok and (time.perf_counter() - start) < 120.0
    verdict(
        8,
        ok,
        "scans of the (3,1) and (4,3) codes find no unextendable isometry, the "
        "forged pair is flagged, and zero theorem violations occurred",
    )


def test_criterion_9_extension_property_k_le_m(rng):
    failures = 0
    for _ in range(1000):
        q = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, m + 1))
        t = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, m, t, k, n)
        image = apply_monomial(random_monomial(rng, q, k, n), code)
        if isinstance(extend_to_monomial(code, image), Unextendable):
            failures += 1
    verdict(9, failures == 0, f"k <= m isometric pairs all extendable: {failures} failures")
