"""Functional calculus: square roots (both routes), |A|, powers, order, inverse."""

import numpy as np
import pytest

from absval import (
    DimensionMismatch,
    NotPositiveSemidefinite,
    NotSelfAdjoint,
    NumericallySingular,
    TolerancePolicy,
    abs_value,
    adjoint,
    as_matrix,
    condition_estimate,
    frobenius,
    EnsembleSpec,
    gen_general,
    inverse,
    loewner_leq,
    operator_norm,
    psd_power,
    psd_sqrt,
    psd_sqrt_iterative,
    sample,
    symmetrize,
)
from absval import calculus

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


def cm(rows):
    return as_matrix(rows)


def random_psd(n, seed):
    g = gen_general(n, seed)
    return symmetrize(adjoint(g) @ g)


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(cm([[1, 0], [0, 4]])), cm([[1, 0], [0, 2]]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)

    def test_closed_form_and_square(self):
        # sqrt([[1,1],[1,2]]) = ([[1,1],[1,2]] + I)/sqrt(5): det = 1, trace = 3
        p = cm([[1, 1], [1, 2]])
        r = psd_sqrt(p)
        np.testing.assert_allclose(r, cm([[2, 1], [1, 3]]) / SQRT5, atol=1e-13)
        assert frobenius(r @ r - p) <= 1e-10 * max(1.0, frobenius(p))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite) as exc:
            psd_sqrt(cm([[1, 0], [0, -1]]))
        assert exc.value.witness == pytest.approx(-1.0, abs=1e-12)

    def test_clamps_roundoff_negatives(self):
        p = cm([[1, 0], [0, -1e-13]])
        r = psd_sqrt(p)
        assert np.linalg.eigvalsh(r)[0] >= 0.0

    def test_square_residuals_random(self):
        for seed in range(50):
            p = random_psd(4, seed)
            r = psd_sqrt(p)
            assert frobenius(r @ r - p) <= 1e-10 * max(1.0, frobenius(p))


class TestPsdSqrtIterative:
    def test_scalar(self):
        np.testing.assert_allclose(psd_sqrt_iterative(cm([[4.0]])), cm([[2.0]]), atol=1e-10)

    def test_diagonal_agreement(self):
        p = cm([[1, 0], [0, 4]])
        assert frobenius(psd_sqrt_iterative(p) - psd_sqrt(p)) <= 1e-8 * max(1.0, frobenius(p))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt_iterative(cm([[0, 0], [0, -1]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_a_stack(self, n):
        # a stack of PSD matrices that psd_sqrt takes whole
        stack = np.stack([random_psd(n, seed) for seed in range(n)])
        assert psd_sqrt(stack).shape == (n, n, n)
        with pytest.raises(DimensionMismatch, match="takes one matrix"):
            psd_sqrt_iterative(stack)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_oracle_agreement_seeded(self, n):
        for seed in range(25):
            p = random_psd(n, 1000 * n + seed)
            scale = max(1.0, frobenius(p))
            r_eig, r_it = psd_sqrt(p), psd_sqrt_iterative(p)
            assert frobenius(r_eig - r_it) <= 1e-8 * scale
            assert frobenius(r_it @ r_it - p) <= 1e-10 * scale


class TestAbsValue:
    def test_diagonal_with_sign(self):
        np.testing.assert_allclose(abs_value(cm([[2, 0], [0, -1]])), cm([[2, 0], [0, 1]]), atol=1e-12)

    def test_rotation_scaled(self):
        np.testing.assert_allclose(abs_value(cm([[0, 2], [-1, 0]])), cm([[1, 0], [0, 2]]), atol=1e-12)

    def test_unitary_gives_identity(self):
        (u,) = sample(EnsembleSpec("unitary"), 5, 77)
        np.testing.assert_allclose(abs_value(u), np.eye(5), atol=1e-10)

    def test_norm_identity_random(self):
        for seed in range(60):
            a = gen_general(3, seed)
            assert abs(operator_norm(abs_value(a)) - operator_norm(a)) <= 1e-9


class TestPsdPower:
    def test_half_power_diagonal(self):
        np.testing.assert_allclose(
            psd_power(cm([[4, 0], [0, 9]]), 0.5), cm([[2, 0], [0, 3]]), atol=1e-12
        )

    def test_power_one_is_input(self):
        p = random_psd(3, 9)
        np.testing.assert_allclose(psd_power(p, 1.0), p, atol=1e-12)

    def test_power_zero_uses_zero_to_zero_is_one(self):
        np.testing.assert_allclose(psd_power(cm([[0, 0], [0, 4]]), 0.0), np.eye(2), atol=1e-13)

    def test_alpha_out_of_range(self):
        p = np.eye(2, dtype=complex)
        for alpha in (-0.1, 1.5, (0.5, 1.5)):
            with pytest.raises(ValueError):
                psd_power(p, alpha)

    def test_a_tuple_of_exponents_gives_each_power(self, monkeypatch):
        # one gated eigendecomposition serves every exponent, bit for bit
        calls = []
        real = calculus.hermitian_eigen
        monkeypatch.setattr(calculus, "hermitian_eigen", lambda *a: calls.append(1) or real(*a))
        for p in (random_psd(4, 7), np.stack([random_psd(3, s) for s in range(5)])):
            alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
            calls.clear()
            powers = psd_power(p, alphas)
            assert type(powers) is tuple and len(calls) == 1
            for t, power in zip(alphas, powers):
                assert power.tobytes() == psd_power(p, t).tobytes()
        with pytest.raises(NotPositiveSemidefinite):
            psd_power(cm([[1, 0], [0, -1]]), (0.25, 0.5))

    def test_half_power_matches_sqrt(self):
        for seed in range(20):
            p = random_psd(4, 100 + seed)
            assert frobenius(psd_power(p, 0.5) - psd_sqrt(p)) <= 1e-12 * max(1.0, frobenius(p))


class TestLoewner:
    def test_holds_with_witness(self):
        v = loewner_leq(cm([[1, 0], [0, 1]]), cm([[2, 0], [0, 3]]))
        assert v.holds and bool(v)
        assert v.residual == pytest.approx(1.0, abs=1e-12)

    def test_triangle_counterexample_fails(self):
        # det(B - sqrt(2) I) = 4 - 4 sqrt(2) < 0 forces a negative eigenvalue,
        # which is 2 - 2 sqrt(2)
        v = loewner_leq(SQRT2 * np.eye(2), cm([[3, -1], [-1, 1]]))
        assert not v.holds
        assert v.residual == pytest.approx(2 - 2 * SQRT2, abs=1e-12)

    def test_equal_operands(self):
        a = random_psd(3, 4)
        v = loewner_leq(a, a)
        assert v.holds
        assert v.residual == 0.0

    def test_holds_within_the_tolerance(self):
        # a witness eigenvalue down to -bound(||a||_F, ||b||_F) still holds
        pol = TolerancePolicy(rel=1e-6, abs=1e-9)
        a = 2 * np.eye(2, dtype=complex)
        tol = pol.rel * frobenius(a) + pol.abs
        for slack, holds in ((0.5, True), (2.0, False)):
            v = loewner_leq(a, a - slack * tol * np.eye(2), pol)
            assert bool(v) is holds
            assert v.residual == pytest.approx(-slack * tol)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            loewner_leq(cm([[0, 1], [0, 0]]), np.eye(2, dtype=complex))

    def test_rejects_operands_of_two_shapes(self):
        # neither two sizes nor a stack against one matrix (which numpy
        # would broadcast into two verdicts)
        eye = np.eye(2, dtype=complex)
        for a, b in ((eye, np.eye(3, dtype=complex)), (np.stack([eye, eye]), eye)):
            with pytest.raises(DimensionMismatch, match="loewner_leq takes operands of one shape"):
                loewner_leq(a, b)


class TestInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            inverse(cm([[2, 0], [0, 4]])), cm([[0.5, 0], [0, 0.25]]), atol=1e-14
        )

    def test_unitary_inverse_is_adjoint(self):
        (u,) = sample(EnsembleSpec("unitary"), 4, 13)
        assert frobenius(inverse(u) - adjoint(u)) <= 1e-10

    def test_product_diagonal(self):
        np.testing.assert_allclose(inverse(cm([[1, 0], [0, 4]])), cm([[1, 0], [0, 0.25]]), atol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(NumericallySingular):
            inverse(cm([[1, 0], [0, 0]]))

    def test_condition_bound_enforced(self):
        with pytest.raises(NumericallySingular):
            inverse(cm([[1, 0], [0, 1e-9]]))

    def test_condition_estimate(self):
        assert condition_estimate(cm([[2, 0], [0, 1]])) == pytest.approx(2.0, abs=1e-10)
        assert condition_estimate(np.zeros((2, 2), dtype=complex)) == np.inf

    def test_identity_residual_random(self):
        for seed in range(40):
            a = gen_general(4, 500 + seed)
            assert frobenius(a @ inverse(a) - np.eye(4)) <= 1e-8 * 4


class TestOrderAndRootLemmas:
    """Square-root lemmas for commuting positive pairs, order monotonicity."""

    def test_sqrt_lemmas_on_commuting_positive_pairs(self):
        for seed in range(50):
            a, b = sample(EnsembleSpec("commuting_positive_pair"), 3, seed)
            prod = a @ b
            assert loewner_leq(np.zeros_like(prod), symmetrize(prod)).holds
            lhs = psd_sqrt(symmetrize(prod))
            assert frobenius(lhs - psd_sqrt(a) @ psd_sqrt(b)) <= 1e-9 * max(1.0, frobenius(lhs))
            assert loewner_leq(psd_sqrt(a + b), psd_sqrt(a) + psd_sqrt(b)).holds

    def test_fractional_power_preserves_order(self):
        for seed in range(50):
            a, b = sample(EnsembleSpec("ordered_psd_pair"), 3, seed)
            for alpha in (0.25, 0.5, 0.75):
                diff = psd_power(a, alpha) - psd_power(b, alpha)
                assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    def test_square_preserves_order_when_commuting(self):
        for seed in range(50):
            a, b = sample(EnsembleSpec("ordered_psd_pair", commuting=True), 3, seed)
            assert loewner_leq(b @ b, a @ a).holds


class TestGatesFailClosed:
    """A NaN never passes an admission gate: NaN > bound is False, so each
    gate asks whether the value is within its bound instead."""

    NAN = np.array([[np.nan, 0], [0, 1]], dtype=complex)

    @pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
    def test_nan_fails_each_gate(self):
        from absval import hermitian_eigen

        with pytest.raises(NotSelfAdjoint):
            hermitian_eigen(self.NAN)
        with pytest.raises(NotSelfAdjoint):
            loewner_leq(self.NAN, np.eye(2))
        with pytest.raises(NotSelfAdjoint):
            loewner_leq(np.eye(2), self.NAN)
        with pytest.raises(NotPositiveSemidefinite, match="nan"):
            abs_value(self.NAN)  # no self-adjointness gate: the PSD gate catches it
        with pytest.raises(NumericallySingular, match="nan"):
            inverse(self.NAN)  # a NaN condition estimate is not within MAX_CONDITION

    @pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
    def test_nan_slice_fails_a_stack(self):
        good = np.stack([np.eye(2, dtype=complex)] * 3)
        assert np.all(loewner_leq(good, 2 * good).holds)
        bad = good.copy()
        bad[1] = self.NAN
        with pytest.raises(NotSelfAdjoint, match="nan"):
            loewner_leq(bad, 2 * good)
        with pytest.raises(NotSelfAdjoint, match="nan"):
            psd_sqrt(bad)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("diagonal", ([1e200, 2, 3], [2, 1e200, 3]))
    def test_a_gram_matrix_that_overflows_reads_nan(self, diagonal):
        # LAPACK reads the overflowed a* a as finite numbers, NaN or an error,
        # by where the overflow sits; both norms read NaN, alone and in a stack
        bad = cm(np.diag(diagonal))
        good = [gen_general(3, t) for t in (1, 2)]
        for fn in (operator_norm, condition_estimate):
            assert np.isnan(fn(bad))
            stacked = fn(np.stack([good[0], bad, good[1]]))
            assert np.isnan(stacked[1])
            assert stacked[[0, 2]].tobytes() == np.array([fn(m) for m in good]).tobytes()
