"""Module alphabets, codes, the isometry criterion and monomial extension."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    apply_monomial,
    extend_to_monomial,
    is_isometry_bruteforce,
    is_isometry_criterion,
    kernel_tuple,
    minimal_counterexample,
    verify_dual_equation,
)
from modcode import codes, save_code
from modcode.codes import codeword_weights, module_elements, transport_automorphisms
from modcode.errors import DimensionMismatchError, ModcodeError
from modcode.io import code_from_dict
from modcode.linalg import is_prime, matrix_rank, row_kernel
from modcode.mds import exhaustive_isometry_scan

from conftest import random_code, random_invertible, random_monomial, reference_inverse, span
from references import covering_by_proper_submodules, is_cyclic_submodule


def extend_or_none(lam, mu):
    """extend_to_monomial, with None where the kernel-count criterion rejects mu."""
    try:
        return extend_to_monomial(lam, mu)
    except NotAnIsometryError:
        return None


def identity_code(q, m, t, n):
    return Code(
        Alphabet(q, m, t), ModuleSpace(q, m, t), [np.eye(t, dtype=int)] * n
    )


class TestHammingWeight:
    def test_zero_word(self):
        # Entry 0 of codeword_weights belongs to the zero source element.
        code = identity_code(3, 2, 2, 4)
        assert not any(map(any, module_elements(3, 2, 2)[0]))
        assert codeword_weights(code)[0] == 0

    def test_single_nonzero_block(self):
        zero = np.zeros((2, 2), dtype=int)
        code = Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 2), [zero] * 3 + [np.eye(2, dtype=int)])
        assert codeword_weights(code) == [0, 1, 1, 1]

    def test_forged_code_weights_are_two(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        weights = codeword_weights(lam)
        for X, weight in zip(module_elements(2, 1, 2), weights):
            assert weight == (2 if any(map(any, X)) else 0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 2), [np.zeros((1, 2)), np.zeros((2, 2))])


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

    def test_equal_kernels_share_one_submodule(self):
        lam, _ = minimal_counterexample(2, 2, 3)
        kernels = kernel_tuple(lam)
        assert kernel_tuple(lam) == kernels
        assert len({id(K) for K in kernels}) == len(set(kernels)) < len(kernels)

    def test_forged_mu_kernels_are_the_three_lines(self):
        _, mu = minimal_counterexample(2, 1, 2)
        supports = {k.support for k in kernel_tuple(mu)}
        assert supports == set(
            span(v, 2) for v in ([[1, 0]], [[0, 1]], [[1, 1]])
        )


class TestModuleElements:
    def test_budget_checked_on_cached_call(self, monkeypatch):
        assert np.array(module_elements(3, 1, 3)).shape == (27, 1, 3)
        monkeypatch.setenv("MODCODE_BUDGET", "20")
        with pytest.raises(EnumerationBudgetError):
            module_elements(3, 1, 3)

    def test_count_too_long_to_print_is_a_budget_error(self):
        # 2^20000 has more decimal digits than Python converts to a string.
        with pytest.raises(EnumerationBudgetError, match=r"at least 2\^20000 vectors"):
            module_elements(2, 200, 100)


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
        # Shared columns cancel whether they repeat one matrix or equal copies.
        lam, mu = minimal_counterexample(2, 1, 2)
        line_kernel = np.array([[1, 0], [0, 0]])
        injective = np.array([[0, 1], [1, 1]])

        def extend(code, columns):
            return Code(code.alphabet, code.space, [*code.generators, *columns])

        lam2 = extend(lam, [line_kernel, line_kernel, injective])
        mu2 = extend(mu, [injective, line_kernel, line_kernel.copy()])
        assert is_isometry_criterion(lam2, mu2)
        assert is_isometry_bruteforce(lam2, mu2)
        assert extend_to_monomial(lam2, mu2) == extend_to_monomial(lam, mu)
        mu3 = extend(mu, [injective, injective, line_kernel])
        assert not is_isometry_criterion(lam2, mu3)
        assert not is_isometry_bruteforce(lam2, mu3)

    def test_criterion_across_alphabets_matches_oracle(self, rng):
        for _ in range(60):
            q = int(rng.choice([2, 3]))
            m, t, n = (int(x) for x in rng.integers(1, 4, size=3))
            lam = random_code(rng, q, m, t, 1, n)
            # A zero column keeps every row kernel, so the widened code is isometric to lam.
            widened = np.pad(lam.generators, ((0, 0), (0, 0), (0, 1)))
            wide = Code(Alphabet(q, m, 2), lam.space, widened)
            for mu in (wide, random_code(rng, q, m, t, 2, n)):
                assert is_isometry_criterion(lam, mu) == is_isometry_bruteforce(lam, mu)
            assert is_isometry_criterion(lam, wide)

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

    def test_zero_column_padding_is_an_unextendable_isometry(self):
        sp, al = ModuleSpace(2, 1, 1), Alphabet(2, 1, 1)
        lam = Code(al, sp, [np.array([[1]])])
        mu = Code(al, sp, [np.array([[1]]), np.zeros((1, 1), dtype=int)])
        for a, b in ((lam, mu), (mu, lam)):
            assert is_isometry_bruteforce(a, b)
            assert is_isometry_criterion(a, b)
            assert verify_dual_equation(kernel_tuple(a), kernel_tuple(b))
            assert isinstance(extend_to_monomial(a, b), Unextendable)
        assert extend_to_monomial(lam, mu) == Unextendable((), ((Subspace.full(2, 1), 1),))

    def test_criterion_matches_oracle_on_unequal_lengths(self, rng):
        isometric = 0
        for _ in range(150):
            q = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 3))
            t = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            lam = random_code(rng, q, m, t, k, int(rng.integers(1, 5)))
            if rng.random() < 0.5:
                pad = [np.zeros((t, k), dtype=np.int64)] * int(rng.integers(1, 3))
                cols = [col.matrix for col in lam.columns] + pad
                mu = Code(lam.alphabet, lam.space, [cols[i] for i in rng.permutation(len(cols))])
            else:
                mu = random_code(rng, q, m, t, k, int(rng.integers(1, 5)))
            expected = is_isometry_bruteforce(lam, mu)
            isometric += expected
            assert is_isometry_criterion(lam, mu) == expected
            V, U = kernel_tuple(lam), kernel_tuple(mu)
            assert verify_dual_equation(V, U) == expected
            result = extend_or_none(lam, mu)
            assert (result is not None) == expected
            if lam.length != mu.length:
                assert not isinstance(result, MonomialMap)
        assert isometric > 50


def is_trivial_solution(V, U) -> bool:
    """Multiset equality of kernel supports."""
    return Counter(K.support for K in V) == Counter(K.support for K in U)


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

    def test_zero_dimensional_source_extends(self):
        code = Code(Alphabet(3, 1, 2), ModuleSpace(3, 1, 0), np.zeros((2, 0, 2), dtype=int))
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
        eye = np.eye(2, dtype=int)
        assert apply_monomial(MonomialMap((0, 1, 2), (eye,) * 3, 3), code) == code

    def test_pure_permutation(self):
        lam, _ = minimal_counterexample(2, 1, 2)
        eye = np.eye(2, dtype=int)
        mm = MonomialMap((2, 0, 1), (eye, eye, eye), 2)
        image = apply_monomial(mm, lam)
        assert [c.matrix for c in image.columns] == [lam.columns[i].matrix for i in (2, 0, 1)]

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

    @pytest.mark.trusted_records("apply_monomial must refuse on its own, not through the audit")
    def test_automorphism_of_another_size_rejected(self):
        code = Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 1), [[[1, 0]]])
        with pytest.raises(DimensionMismatchError):
            apply_monomial(MonomialMap((0,), ([[1]],), 2), code)
        with pytest.raises(DimensionMismatchError):
            apply_monomial(MonomialMap((0,), (np.eye(3, dtype=int),), 2), code)

    @pytest.mark.trusted_records("apply_monomial must refuse on its own, not through the audit")
    def test_map_over_another_field_rejected(self):
        code = identity_code(2, 1, 2, 1)
        with pytest.raises(DimensionMismatchError, match="F_3"):
            apply_monomial(MonomialMap((0,), (np.eye(2, dtype=int),), 3), code)


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
            span(v, 2) for v in ([[1, 0]], [[0, 1]], [[1, 1]])
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
                covered.update(tuple(c * x % 3 for x in line.support.basis[0]) for c in range(3))
        assert len(covered) == 9

    def test_submodule_cardinality_law(self, rng):
        for q, m, t in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 2, 3)]:
            sp = ModuleSpace(q, m, t)
            from conftest import random_subspace

            S = random_subspace(rng, q, t)
            sub = Submodule(sp, S)
            count = q ** (m * S.dim)
            coefficients = np.array(module_elements(q, m, S.dim)).reshape(count, m, S.dim)
            elements = coefficients @ np.array(S.basis, dtype=int).reshape(S.dim, t) % q
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


class TestIntegerInputs:
    """Library constructors reject a non-integer entry or parameter, never truncate it."""

    @pytest.mark.parametrize("entry", [2.9, 1.0, np.float64(2.2), "2"],
                             ids=["float", "integral_float", "numpy_float", "string"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [[[x]]]),
            lambda x: Hom(ModuleSpace(2, 1, 1), Alphabet(2, 1, 1), [[x]]),
            lambda x: MonomialMap((0,), ([[x]],), 3),
            lambda x: span([[x, 1]], 3),
        ],
        ids=["Code", "Hom", "MonomialMap", "Subspace.from_rows"],
    )
    def test_non_integer_entry_rejected(self, build, entry):
        with pytest.raises(DimensionMismatchError, match="integer entries"):
            build(entry)

    @pytest.mark.parametrize("cls", [Alphabet, ModuleSpace])
    @pytest.mark.parametrize("params", [(2.5, 1, 1), (3.0, 1, 2), (2, 1.5, 2), (2, 1, 2.0),
                                        ("2", 1, 1)],
                             ids=["float_q", "integral_float_q", "float_m", "integral_float_n",
                                  "string_q"])
    def test_non_integer_parameter_rejected(self, cls, params):
        with pytest.raises(ValueError, match="must be integers"):
            cls(*params)

    def test_numpy_integer_parameters_accepted(self):
        assert ModuleSpace(np.int64(3), np.int64(1), 2) == ModuleSpace(3, 1, 2)

    def test_non_integer_is_not_prime(self):
        assert not is_prime(2.5) and not is_prime(3.0) and not is_prime("3")
        assert is_prime(3) and is_prime(np.int64(3))

    def test_float_modulus_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="must be integers"):
            minimal_counterexample(2.0, 1, 2)


class TestPrimeModulus:
    """Every record that holds a modulus requires a prime integer."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MonomialMap((), (), "x"),
            lambda: MonomialMap((0,), ([[1]],), 4),
            lambda: Subspace(4, 2, ((1, 3),)),
            lambda: span([[2, 1]], 4),
            lambda: span([[1, 1]], 9),
        ],
        ids=["MonomialMap_string", "MonomialMap_composite", "Subspace_composite",
             "from_rows_non_invertible_pivot", "from_rows_composite"],
    )
    def test_composite_or_non_integer_modulus_rejected(self, build):
        with pytest.raises(ValueError, match="must be prime"):
            build()

    def test_huge_prime_refused_before_trial_division(self):
        # 2^61 - 1 is prime, and trial division up to its square root would not end.
        with pytest.raises(DimensionMismatchError, match="int64"):
            Subspace(2**61 - 1, 1, ((1,),))
        with pytest.raises(DimensionMismatchError, match="int64"):
            MonomialMap((), (), 2**61 - 1)


# Values a caller may pass where a constructor wants an integer, a sequence or a matrix.
SCALARS = st.one_of(st.integers(-2, 6), st.booleans(), st.floats(-2, 6), st.text(max_size=2),
                    st.none())
NESTED = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
# Module parameters and moduli, valid more often than not.
PARAMS = st.one_of(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(-1, 5))


def matrices(rows, cols):
    """Matrices of the given shape, of small integers or of any values."""
    return st.sampled_from([st.integers(0, 2), st.integers(-1, 3), SCALARS]).flatmap(
        lambda entry: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))


def checked_or_refused(build) -> None:
    """build() returns a record that its own check and its constructor accept, or
    raises ModcodeError or ValueError; any other exception fails the test."""
    try:
        record = build()
    except (ModcodeError, ValueError):
        return
    record._check()
    assert type(record)(*record._values()) == record


class TestConstructorProperties:
    """The public constructors, on inputs of any shape and with any entries."""

    @settings(max_examples=100, deadline=None)
    @given(q=PARAMS, m=PARAMS, t=PARAMS, k=PARAMS, data=st.data())
    def test_code_and_hom(self, q, m, t, k, data):
        G = data.draw(st.one_of(NESTED, matrices(max(t, 0), max(k, 0))))
        gens = data.draw(st.one_of(NESTED, st.lists(matrices(max(t, 0), max(k, 0)), max_size=3)))
        checked_or_refused(lambda: Hom(ModuleSpace(q, m, t), Alphabet(q, m, k), G))
        checked_or_refused(lambda: Code(Alphabet(q, m, k), ModuleSpace(q, m, t), gens))

    @settings(max_examples=100, deadline=None)
    @given(q=st.one_of(PARAMS, SCALARS), n=st.integers(0, 3), k=st.integers(0, 3),
           data=st.data())
    def test_monomial_map(self, q, n, k, data):
        perm = data.draw(st.one_of(NESTED, st.permutations(range(n)), st.lists(PARAMS)))
        autos = data.draw(st.one_of(NESTED, st.lists(matrices(k, k), min_size=n, max_size=n)))
        checked_or_refused(lambda: MonomialMap(perm, autos, q))

    @settings(max_examples=100, deadline=None)
    @given(q=st.one_of(PARAMS, SCALARS), ambient=st.one_of(PARAMS, SCALARS), data=st.data())
    def test_subspace_and_from_rows(self, q, ambient, data):
        width = ambient if type(ambient) is int and ambient >= 0 else 2
        shaped = st.integers(0, 3).flatmap(lambda r: matrices(r, width))
        rows = data.draw(st.one_of(NESTED, shaped))
        checked_or_refused(lambda: Subspace(q, ambient, rows))
        checked_or_refused(lambda: span(rows, q, ambient))
        checked_or_refused(lambda: span(rows, q))

    @settings(max_examples=100, deadline=None)
    @given(q=PARAMS, m=PARAMS, k=PARAMS, t=PARAMS, data=st.data())
    def test_code_from_dict(self, q, m, k, t, data):
        fields = {"q": q, "m": m, "k": k, "t": t}
        fields["generators"] = data.draw(
            st.one_of(NESTED, st.lists(matrices(max(t, 0), max(k, 0)), max_size=3)))
        spoilt = data.draw(st.sampled_from([None, None, None, *fields]))
        if spoilt:
            fields[spoilt] = data.draw(NESTED)
        document = data.draw(st.sampled_from([fields, fields, None]))
        if document is None:
            document = data.draw(NESTED)
        checked_or_refused(lambda: code_from_dict(document))


def reference_transport(G, H, q, k):
    """The per-pair transport of earlier releases, kept as the oracle.

    Greedy independent rows of G by repeated rank tests, each side completed
    with unit vectors by repeated rank tests, then P = F_G^-1 F_H.
    """
    G, H = (np.array(M, dtype=np.int64).reshape(-1, k) for M in (G, H))
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

    return reference_inverse(complete(G[idx]), q) @ complete(H[idx]) % q


class TestBatchedKernels:
    def test_batch_matches_scalar_with_repeated_homs(self):
        lam, _ = minimal_counterexample(2, 2, 3)  # repeated kernels
        fresh = Code(lam.alphabet, lam.space, [list(map(list, col.matrix)) for col in lam.columns])
        kernels = kernel_tuple(fresh)
        assert [K.support for K in kernels] == [
            row_kernel(col.matrix, 2) for col in fresh.columns
        ]
        assert kernels == kernel_tuple(lam)

    def test_batch_shares_kernels_of_equal_matrices(self):
        sp, al = ModuleSpace(3, 1, 2), Alphabet(3, 1, 2)
        a = [[1, 0], [0, 0]]
        c = [[2, 0], [0, 0]]  # another matrix with the same kernel
        d = [[0, 0], [0, 1]]
        code = Code(al, sp, [a, list(a), a, c, d])
        kernels = kernel_tuple(code)
        assert kernels[0] is kernels[1] is kernels[2] is kernels[3]
        assert kernels[4] != kernels[0]
        assert code.columns[0].kernel() == kernels[0] and code.columns[4].kernel() == kernels[4]

    def test_batch_matches_hom_kernels(self):
        code = identity_code(2, 1, 2, 3)
        assert kernel_tuple(code) == tuple(col.kernel() for col in code.columns)


def as_rows(stack):
    """An (n, t, k) array as a list of t x k row tuples."""
    return [tuple(map(tuple, M)) for M in np.asarray(stack).tolist()]


class TestBatchedTransport:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_batch_matches_per_pair_reference(self, rng, q):
        for t in range(1, 6):
            for k in range(1, 6):
                Gs = rng.integers(0, q, size=(6, t, k))
                Gs[0] = 0
                Gs[1, -1] = Gs[1, 0]  # a dependent row
                Ps = [random_invertible(rng, q, k) for _ in Gs]
                Hs = np.array([G @ P % q for G, P in zip(Gs, Ps)])
                P = transport_automorphisms(as_rows(Gs), as_rows(Hs), q, k)
                for G, H, Pi in zip(Gs, Hs, P):
                    assert np.array_equal(Pi, reference_transport(G, H, q, k))
                    assert np.array_equal(G @ Pi % q, H)

    def test_batch_rejects_unequal_kernels(self):
        G = (((1, 0), (0, 0)),)
        H = (((0, 0), (1, 0)),)
        with pytest.raises(AssertionError):
            transport_automorphisms(G, H, 2, 2)


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
            j = next(j for j, G in enumerate(cols) if any(map(any, G)))
            cols[j] = np.zeros_like(cols[j])
            images.append(Code(mu.alphabet, mu.space, cols))
        results = [extend_or_none(code, mu) for mu in images]
        assert sum(r is None for r in results) == 3
        assert all(same_extension(a, b) for a, b in zip(results, reference_extend(code, images)))
        for mu, result in zip(images, results):
            if isinstance(result, MonomialMap):
                assert apply_monomial(result, code) == mu

    def test_batch_rejects_other_alphabet(self):
        code = identity_code(2, 1, 2, 3)
        other = Code(Alphabet(2, 1, 1), code.space, [np.ones((2, 1), dtype=int)] * 3)
        with pytest.raises(DimensionMismatchError):
            extend_to_monomial(code, other)


def reference_extend(lam, mus):
    """The per-image loop of earlier releases, kept as the oracle of extend_to_monomial.

    Per image: the kernel-count criterion, a Counter comparison of the kernel
    multisets, column orders sorted by support key, and the per-pair
    transport with a validated MonomialMap.
    """

    def by_support(counter):
        return tuple(sorted(counter.items(), key=lambda p: p[0].sort_key()))

    def order(code):
        supports = [K.support for K in kernel_tuple(code)]
        return sorted(range(code.length), key=lambda i: (supports[i].sort_key(), i))

    q, k = lam.space.q, lam.alphabet.k
    lam_counter = Counter(K.support for K in kernel_tuple(lam))
    results = []
    for mu in mus:
        if not is_isometry_criterion(lam, mu):
            results.append(None)
            continue
        mu_counter = Counter(K.support for K in kernel_tuple(mu))
        if lam_counter != mu_counter:
            results.append(Unextendable(
                by_support(lam_counter - mu_counter), by_support(mu_counter - lam_counter)
            ))
            continue
        perm = [0] * lam.length
        for src, dst in zip(order(lam), order(mu)):
            perm[dst] = src
        autos = [
            reference_transport(lam.columns[src].matrix, col.matrix, q, k)
            for src, col in zip(perm, mu.columns)
        ]
        results.append(MonomialMap(tuple(perm), tuple(autos), q))
    return results


def same_extension(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, MonomialMap):
        return a.permutation == b.permutation and all(
            np.array_equal(P, Q) for P, Q in zip(a.automorphisms, b.automorphisms)
        )
    return a == b


def fresh_copy(code):
    """The same code with a new generator stack."""
    return Code(code.alphabet, code.space, [list(map(list, col.matrix)) for col in code.columns])


class TestColumnarCode:
    @settings(max_examples=80, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 2),
        t=st.integers(1, 3),
        k=st.integers(1, 3),
        n=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_hom_list(self, q, m, t, k, n, seed):
        rng = np.random.default_rng(seed)
        G = rng.integers(0, q, size=(n, t, k))
        # A zero column, a repeated column and a column with another's kernel.
        G[0] = 0
        G[1] = G[-1]
        G[2] = G[-1] @ random_invertible(rng, q, k) % q
        sp, al = ModuleSpace(q, m, t), Alphabet(q, m, k)
        from_stack = Code(al, sp, G)
        homs = from_stack.columns
        assert all(isinstance(h, Hom) and np.array_equal(h.matrix, g) for h, g in zip(homs, G))
        # Columns are built on each access; Hom records compare by value.
        assert from_stack.columns == homs and from_stack.columns[0] is not homs[0]
        from_homs = Code(al, sp, [h.matrix for h in homs])
        assert from_stack == from_homs and hash(from_stack) == hash(from_homs)
        assert type(from_stack.generators) is tuple
        with pytest.raises(AttributeError):
            from_stack.generators = G
        kernels = [K.support for K in kernel_tuple(from_stack)]
        assert kernels == [row_kernel(g, q) for g in G] == [h.kernel().support for h in homs]
        for K, g in zip(kernels, G):  # checked by the scalar rref alone
            basis = np.array(K.basis, dtype=int).reshape(K.dim, t)
            assert K.dim == t - matrix_rank(g, q) and not (basis @ g % q).any()
            assert span(K.basis, q, t) == K
        images = [apply_monomial(random_monomial(rng, q, k, n), from_stack) for _ in range(2)]
        images += [from_homs, random_code(rng, q, m, t, k, n), Code(al, sp, G[1:])]
        expected = reference_extend(from_homs, images)
        batch = [extend_or_none(from_stack, mu) for mu in images]
        assert len(batch) == len(expected)
        assert all(same_extension(a, b) for a, b in zip(batch, expected))


class TestBatchedImages:
    @settings(max_examples=80, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 2),
        t=st.integers(1, 3),
        k=st.integers(1, 3),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_matches_per_image_loop_on_random_images(self, q, m, t, k, n, seed):
        rng = np.random.default_rng(seed)
        lam = random_code(rng, q, m, t, k, n)
        images = [apply_monomial(random_monomial(rng, q, k, n), lam) for _ in range(3)]
        images += [random_code(rng, q, m, t, k, n) for _ in range(2)]
        # Not isometric: a nonzero column zeroed.  Isometric but longer: a zero column added.
        cols = [col.matrix for col in images[0].columns]
        j = next((j for j, G in enumerate(cols) if any(map(any, G))), None)
        if j is not None:
            cols[j] = np.zeros_like(cols[j])
            images.append(Code(lam.alphabet, lam.space, cols))
        zero = np.zeros((t, k), dtype=np.int64)
        images.append(Code(lam.alphabet, lam.space, [c.matrix for c in lam.columns] + [zero]))
        images.insert(1, images[0])  # a repeated image object

        batch = [extend_or_none(fresh_copy(lam), fresh_copy(mu)) for mu in images]
        expected = reference_extend(lam, images)
        assert all(same_extension(a, b) for a, b in zip(batch, expected))
        assert len(batch) == len(images)
        for mu, result in zip(images, batch):
            assert (result is not None) == is_isometry_bruteforce(lam, mu)
            if mu.length != n:
                assert isinstance(result, Unextendable)
            if isinstance(result, MonomialMap):
                assert apply_monomial(result, lam) == mu

    @pytest.mark.trusted_records("matrix_rank is None here, so MonomialMap._check cannot run")
    def test_monomial_image_takes_one_transport_call(self, rng, monkeypatch):
        code = random_code(rng, 3, 1, 3, 2, 5)
        image = apply_monomial(random_monomial(rng, 3, 2, 5), code)
        calls = []
        transport = codes.transport_automorphisms
        monkeypatch.setattr(
            codes, "transport_automorphisms",
            lambda G, H, q, k: calls.append(len(G)) or transport(G, H, q, k),
        )
        monkeypatch.setattr(codes, "matrix_rank", None)  # no per-matrix rank validation
        result = extend_to_monomial(code, image)
        assert calls == [5]
        assert apply_monomial(result, code) == image

    def test_singular_transport_rejected(self, monkeypatch):
        # Zero generators pass G P = H for every P, so only the pivot check catches a singular P.
        zero = [((0, 0), (0, 0))] * 8
        monkeypatch.setattr(codes, "complete_basis", lambda rows, q, k: [(0,) * k] * k)
        with pytest.raises(AssertionError, match="singular"):
            transport_automorphisms(zero, zero, 2, 2)

    def test_transport_result_is_read_only(self, rng):
        Gs = rng.integers(0, 3, size=(9, 2, 2))
        P = transport_automorphisms(as_rows(Gs), as_rows(Gs), 3, 2)
        assert all(type(Pi) is tuple and all(type(row) is tuple for row in Pi) for Pi in P)
        assert (np.einsum("nij,njk->nik", Gs, np.array(P)) % 3 == Gs).all()


def reference_weights(code):
    """Codeword weights by one tensordot per column over every source element."""
    sp, k = code.space, code.alphabet.k
    E = np.array(module_elements(sp.q, sp.m, sp.t), dtype=np.int64).reshape(
        sp.q ** (sp.m * sp.t), sp.m, sp.t)
    weights = np.zeros(E.shape[0], dtype=np.int64)
    for col in code.columns:
        G = np.array(col.matrix, dtype=np.int64).reshape(sp.t, k)
        Y = np.tensordot(E, G, axes=([2], [0])) % sp.q
        weights += Y.reshape(Y.shape[0], -1).any(axis=1)
    return weights


FORGE_LADDER = [(2, 2, 3), (3, 2, 3), (2, 3, 4), (5, 2, 3), (3, 3, 4)]


class TestWeightOracle:
    def test_oracle_matches_tensordot_reference_on_random_codes(self, rng):
        for _ in range(150):
            q = int(rng.choice([2, 3, 5]))
            m = int(rng.integers(1, 4))
            t = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            if q ** (m * t) > 4000:
                continue
            code = random_code(rng, q, m, t, k, int(rng.integers(1, 7)))
            weights = codeword_weights(code)
            assert all(type(w) is int for w in weights)
            assert np.array_equal(weights, reference_weights(code))

    @pytest.mark.parametrize("q, m, k", [(2, 1, 2), (2, 2, 3), (3, 2, 3)])
    def test_oracle_matches_tensordot_reference_on_forged_pairs(self, q, m, k):
        for code in minimal_counterexample(q, m, k):
            assert np.array_equal(codeword_weights(code), reference_weights(code))

    def test_oracle_budget_checked_first(self, monkeypatch):
        code = identity_code(2, 2, 3, 2)  # q^(m t) = 64 source elements
        monkeypatch.setenv("MODCODE_BUDGET", "63")
        monkeypatch.setattr(codes, "module_elements", None)
        with pytest.raises(EnumerationBudgetError):
            codeword_weights(code)

    @pytest.mark.parametrize("q, m, k", FORGE_LADDER)
    def test_check_oracle_agrees_with_criterion_on_forge_ladder(self, q, m, k, tmp_path, cli):
        lam, mu = minimal_counterexample(q, m, k)
        rng = np.random.default_rng(q * 100 + m * 10 + k)
        image = apply_monomial(random_monomial(rng, q, k, mu.length), mu)
        cols = [col.matrix for col in image.columns]
        j = next(j for j, G in enumerate(cols) if any(map(any, G)))
        cols[j] = np.zeros_like(cols[j])
        broken = Code(image.alphabet, image.space, cols)
        paths = {}
        for name, code in (("lam", lam), ("img", image), ("broken", broken)):
            paths[name] = str(tmp_path / f"{name}.json")
            save_code(code, paths[name])
        for other, isometric in (("img", True), ("broken", False)):
            args = ["check", "--lambda", paths["lam"], "--mu", paths[other], "--oracle", "--json"]
            result = cli(args)
            assert result.exit_code == 0, result.output
            report = json.loads(result.output)
            assert report["isometry"] is report["isometry_oracle"] is isometric
