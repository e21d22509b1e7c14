"""Operator-class predicates and the finite-dimensional collapse."""

import numpy as np
import pytest

from absval import (
    DEFAULT_POLICY,
    DimensionMismatch,
    EnsembleSpec,
    NotPositiveSemidefinite,
    Seed,
    adjoint,
    as_matrix,
    commutes,
    frobenius,
    gen_general,
    hermitian_eigen,
    is_anti_symmetric,
    is_hyponormal,
    is_normal,
    is_positive,
    is_self_adjoint,
    loewner_leq,
    psd_sqrt,
    sample,
    symmetrize,
)


def cm(rows):
    return as_matrix(rows)


class TestSelfAdjoint:
    def test_real_diagonal(self):
        assert is_self_adjoint(cm([[2, 0], [0, -1]]))

    def test_nilpotent(self):
        res = is_self_adjoint(cm([[0, 1], [0, 0]]))
        assert not res
        assert res.residual == pytest.approx(np.sqrt(2.0))

    def test_imaginary_identity(self):
        assert not is_self_adjoint(1j * np.eye(2))


class TestNormal:
    def test_unitary(self):
        assert is_normal(*sample(EnsembleSpec("unitary"), 3, 8))

    def test_weighted_shift(self):
        assert not is_normal(cm([[0, 1], [2, 0]]))

    def test_jordan_block(self):
        # self-commutator of [[1,1],[0,1]] is diag(1, -1)
        res = is_normal(cm([[1, 1], [0, 1]]))
        assert not res
        assert res.residual == pytest.approx(np.sqrt(2.0))


class TestHyponormal:
    def test_normal_is_hyponormal(self):
        (a,) = sample(EnsembleSpec("commuting_normal_family", k=1), 3, 21)
        assert is_hyponormal(a)

    def test_nilpotent_is_not(self):
        # a*a - aa* = diag(-1, 1) is indefinite
        res = is_hyponormal(cm([[0, 1], [0, 0]]))
        assert not res
        assert res.residual == pytest.approx(-1.0, abs=1e-12)

    def test_complex_diagonal(self):
        assert is_hyponormal(cm([[1j, 0], [0, 2]]))


class TestPositive:
    def test_gram_matrices(self):
        for seed in range(10):
            a = gen_general(3, seed)
            assert is_positive(adjoint(a) @ a)

    def test_indefinite_diagonal(self):
        assert not is_positive(cm([[2, 0], [0, -1]]))

    def test_zero(self):
        assert is_positive(np.zeros((2, 2), dtype=complex))

    def test_non_self_adjoint_is_not_positive(self):
        assert not is_positive(cm([[1, 1], [0, 1]]))


def _at_the_psd_boundary(n, count, rng):
    """``count`` Hermitian n x n matrices with spectra from U(0.1, 100) and
    lambda_min moved to -bound(lambda_max) + U(-2e-13, 2e-13), where the
    positivity rule turns on the last bits of the computed lambda_min."""
    w = np.sort(rng.uniform(0.1, 100.0, (count, n)), axis=-1)
    w[:, 0] = -DEFAULT_POLICY.bound(w[:, -1]) + rng.uniform(-2e-13, 2e-13, count)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q = np.linalg.qr(z)[0]
    return symmetrize((q * w[:, None, :]) @ adjoint(q))


def _gate_admits(p):
    try:
        psd_sqrt(p)
    except NotPositiveSemidefinite:
        return False
    return True


class TestPositiveAgreesWithTheGate:
    """``is_positive`` reads the spectrum the PSD gate of ``psd_sqrt`` reads,
    so a matrix the hypothesis admits is never refused by the gate, even at
    the boundary, where two eigen-routines disagree in the last bits."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_one_matrix_and_a_stack(self, n):
        stack = _at_the_psd_boundary(n, 750, np.random.default_rng([1, n]))
        lam_min = hermitian_eigen(stack)[0][..., 0]
        for p, lam in zip(stack, lam_min):
            res = is_positive(p)
            assert res.holds == _gate_admits(p)
            assert np.float64(res.residual).tobytes() == lam.tobytes()
        res = is_positive(stack)
        assert res.holds.tolist() == [is_positive(p).holds for p in stack]
        assert 0 < res.holds.sum() < len(stack)  # both sides of the boundary are drawn
        assert res.residual.tobytes() == lam_min.tobytes()
        psd_sqrt(stack[res.holds])
        with pytest.raises(NotPositiveSemidefinite) as exc:
            psd_sqrt(stack[~res.holds])
        assert exc.value.witness == res.residual[~res.holds][0]


class TestAntiSymmetric:
    def test_rotation_generator(self):
        assert is_anti_symmetric(cm([[0, 1], [-1, 0]]))

    def test_skew_part(self):
        for seed in range(10):
            t = gen_general(3, seed)
            assert is_anti_symmetric(t - adjoint(t))

    def test_identity_is_not(self):
        assert not is_anti_symmetric(np.eye(2, dtype=complex))

    def test_square_is_nonpositive(self):
        for seed in range(25):
            t = gen_general(3, 50 + seed)
            a = (t - adjoint(t)) / 2
            sq = a @ a
            assert loewner_leq(sq, np.zeros_like(sq)).holds


class TestCommutes:
    def test_nilpotent_pair(self):
        assert commutes(cm([[1, 1], [0, 1]]), cm([[0, 1], [0, 0]]))

    def test_reflection_pair(self):
        a, b = cm([[2, 0], [0, -1]]), cm([[0, 1], [1, 0]])
        res = commutes(a, b)
        assert not res
        # ab = [[0,2],[-1,0]], ba = [[0,-1],[2,0]]
        assert res.residual == pytest.approx(frobenius(a @ b - b @ a))

    def test_with_own_square(self):
        a = gen_general(3, 3)
        assert commutes(a, a @ a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutes(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        eye = np.eye(2, dtype=complex)  # a stack against one matrix
        with pytest.raises(DimensionMismatch, match="commutes takes operands of one shape"):
            commutes(np.stack([eye, eye]), eye)


class TestFugledeEquivalences:
    """For normal a, the four commutation conditions share one truth value."""

    @staticmethod
    def _four_conditions(a, b):
        astar, bstar = adjoint(a), adjoint(b)
        return (
            commutes(a, b).holds,
            frobenius(astar @ b - b @ astar) <= 1e-9 * max(1.0, frobenius(a) * frobenius(b)),
            frobenius(a @ bstar - bstar @ a) <= 1e-9 * max(1.0, frobenius(a) * frobenius(b)),
            frobenius(astar @ bstar - bstar @ astar)
            <= 1e-9 * max(1.0, frobenius(a) * frobenius(b)),
        )

    def test_commuting_and_general_witnesses(self):
        for seed in range(100):
            a, b_comm = sample(EnsembleSpec("commuting_normal_family", k=2), 3, seed)
            assert set(self._four_conditions(a, b_comm)) == {True}
            b_free = gen_general(3, 10_000 + seed)
            assert len(set(self._four_conditions(a, b_free))) == 1


class TestFiniteDimensionalCollapse:
    def test_hyponormal_iff_normal(self):
        # trace(a*a - aa*) = 0, so a PSD self-commutator must vanish
        for n in range(2, 9):
            for trial in range(100):
                a = gen_general(n, Seed(5, f"collapse:{n}", trial))
                assert is_hyponormal(a).holds == is_normal(a).holds

