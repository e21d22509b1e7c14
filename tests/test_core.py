"""Core matrix primitives: adjoint, norms, Hermitian eigendecomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absval import (
    DimensionMismatch,
    EnsembleSpec,
    Seed,
    NotSelfAdjoint,
    TolerancePolicy,
    adjoint,
    as_matrix,
    frobenius,
    hermitian_eigen,
    is_self_adjoint,
    loewner_leq,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    sample,
    symmetrize,
)
from absval.core import trial_max, trial_min

EPS = np.finfo(float).eps


def cm(rows):
    return as_matrix(rows)


class TestAdjoint:
    def test_identity_self_adjoint(self):
        eye = np.eye(2, dtype=complex)
        np.testing.assert_array_equal(adjoint(eye), eye)

    def test_real_transpose(self):
        np.testing.assert_array_equal(adjoint(cm([[0, 1], [2, 0]])), cm([[0, 2], [1, 0]]))

    def test_scalar_conjugation(self):
        np.testing.assert_array_equal(adjoint(cm([[1j]])), cm([[-1j]]))

    def test_involution_is_exact(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            a = as_matrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            assert adjoint(adjoint(a)).tobytes() == a.tobytes()


def test_symmetrize_is_the_three_array_form():
    # made in one buffer: bit for bit (h + h*) / 2 in value, dtype and layout,
    # on complex, real, integer and transposed input, which stays as it was
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    for h in (g, g.real.copy(), g.swapaxes(-1, -2), np.arange(9).reshape(3, 3)):
        before, want = h.copy(), (h + h.conj().swapaxes(-1, -2)) / 2
        got = symmetrize(h)
        assert (got.dtype, got.strides, got.tobytes()) == (want.dtype, want.strides, want.tobytes())
        assert h.tobytes() == before.tobytes()


# Entries are kept moderate so the error bound below is meaningful, not
# because the operations care.
_entry = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_adjoint_anti_multiplicative(n, data):
    flat = data.draw(st.lists(st.tuples(_entry, _entry), min_size=2 * n * n, max_size=2 * n * n))
    z = np.array([complex(re, im) for re, im in flat])
    a, b = as_matrix(z[: n * n].reshape(n, n)), as_matrix(z[n * n :].reshape(n, n))
    bound = 8 * n * EPS * frobenius(a) * frobenius(b)
    assert frobenius(adjoint(a @ b) - adjoint(b) @ adjoint(a)) <= bound


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(cm([[2, 0], [0, -1]])) == pytest.approx(2.0, abs=1e-12)

    def test_nilpotent_block(self):
        # a* a = diag(0, 1), so the singular values are {0, 1}
        assert operator_norm(cm([[0, 1], [0, 0]])) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_unitaries_have_norm_one(self):
        for seed in range(25):
            (u,) = sample(EnsembleSpec("unitary"), 4, seed)
            assert abs(operator_norm(u) - 1.0) <= 1e-10


class TestHermitianEigen:
    def test_already_diagonal(self):
        w, u = hermitian_eigen(cm([[3, 0], [0, 1]]))
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-14)

    def test_two_by_two_closed_form(self):
        # characteristic polynomial x^2 - 3x + 1, roots (3 +- sqrt 5)/2
        w, _ = hermitian_eigen(cm([[1, 1], [1, 2]]))
        expected = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_rank_one_plus_trace(self):
        # rank-1 matrix with trace 4: spectrum {0, 4}
        w, _ = hermitian_eigen(cm([[2, -2], [-2, 2]]))
        np.testing.assert_allclose(w, [0.0, 4.0], atol=1e-14)

    def test_rejects_asymmetry(self):
        with pytest.raises(NotSelfAdjoint):
            hermitian_eigen(cm([[0, 1], [0, 0]]))

    def test_ascending_and_deterministic(self):
        (h,) = sample(EnsembleSpec("self_adjoint"), 6, 11)
        (w1, u1), (w2, u2) = hermitian_eigen(h), hermitian_eigen(h)
        assert np.all(np.diff(w1) >= 0)
        assert w1.tobytes() == w2.tobytes()
        assert u1.tobytes() == u2.tobytes()

    def test_residual_bounds_across_sizes(self):
        # unitarity within 64 n eps sqrt(n), reconstruction within 64 n eps ||h||
        for n in range(2, 17):
            for trial in range(500):
                (h,) = sample(EnsembleSpec("self_adjoint"), n, Seed(11, f"eig:{n}", trial))
                w, u = hermitian_eigen(h)
                assert frobenius(u @ u.conj().T - np.eye(n)) <= 64 * n * EPS * np.sqrt(n)
                assert frobenius((u * w) @ u.conj().T - h) <= 64 * n * EPS * frobenius(h)


@st.composite
def _near_self_adjoint(draw):
    """A matrix or a stack of them, each a Hermitian matrix plus an
    anti-Hermitian part whose size is drawn around the self-adjointness
    bound; some carry a NaN entry."""
    n = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (n, n)
    pol = TolerancePolicy(rel=draw(st.sampled_from([1e-9, 1e-3])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g, k = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    h = symmetrize(g) * 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    skew = k - adjoint(k)  # its own ||x - x*||_F is 2 ||skew||_F
    size = rng.uniform(0.5, 2.0, shape[:-2]) * pol.bound(frobenius(h)) / (2 * frobenius(skew))
    x = h + np.asarray(size)[..., None, None] * skew
    if draw(st.booleans()):
        x.flat[draw(st.integers(min_value=0, max_value=x.size - 1))] = np.nan
    return x, pol


@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=_near_self_adjoint())
def test_one_self_adjointness_gate(case):
    """``is_self_adjoint`` fails on some trial exactly when the gates of
    ``hermitian_eigen`` and ``loewner_leq`` raise ``NotSelfAdjoint``."""
    x, pol = case
    admitted = bool(np.all(is_self_adjoint(x, pol).holds))
    for gate in (lambda: hermitian_eigen(x, pol), lambda: loewner_leq(x, x, pol)):
        if admitted:
            gate()
        else:
            with pytest.raises(NotSelfAdjoint):
                gate()


class TestValidationAndLiterals:
    def test_as_matrix_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_literal_round_trip(self):
        a = cm([[1 + 2j, -0.5], [3j, 4]])
        again = matrix_from_literal(matrix_to_literal(a))
        assert again.tobytes() == a.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5), data=st.data())
    def test_literal_round_trip_property(self, n, data):
        flat = data.draw(st.lists(st.tuples(_entry, _entry), min_size=n * n, max_size=n * n))
        a = as_matrix(np.array([complex(re, im) for re, im in flat]).reshape(n, n))
        assert matrix_from_literal(matrix_to_literal(a)).tobytes() == a.tobytes()

    def test_literal_shape_check(self):
        with pytest.raises(ValueError):
            matrix_from_literal({"dim": 2, "entries": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_literal({"entries": []})

    @pytest.mark.parametrize(
        "literal",
        [
            {"dim": 2, "entries": [1, 2, 3, 4]},
            {"dim": 1, "entries": None},
            {"dim": 1, "entries": [["a", "b"]]},
            {"dim": 1, "entries": [[1, 2, 3]]},
            {"dim": 1, "entries": [[10**400, 0]]},
            {"dim": 2.5, "entries": [[1, 0]] * 4},
            {"dim": 2.0, "entries": [[1, 0]] * 4},
            {"dim": "2", "entries": [[1, 0]] * 4},
            {"dim": True, "entries": [[1, 0]]},
            {"dim": 1, "entries": [[True, False]]},
            [[1, 0]],
        ],
        ids=[
            "flat-entries", "null-entries", "string-entries", "triple-entry", "huge-entry",
            "fractional-dim", "float-dim", "string-dim", "boolean-dim", "boolean-entries",
            "not-a-dict",
        ],
    )
    def test_malformed_literal_is_a_value_error(self, literal):
        with pytest.raises(ValueError, match="malformed matrix literal"):
            matrix_from_literal(literal)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rel=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(abs=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel": math.inf},
            {"abs": math.inf},
            {"rel": math.nan},
            {"abs": math.nan},
            {"rel": 1.0},
            {"abs": 2.0},
        ],
    )
    def test_policy_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            TolerancePolicy(**kwargs)


class TestTrialValues:
    """The stacked form is chosen by type, and a NaN stays NaN for one trial
    as it does in the slice of a stack."""

    def test_one_entry_array_stays_an_array(self):
        # a (1,) comparison has a truth value, so Python's max would take it
        for extreme, expected in ((trial_max, 0.0), (trial_min, -1.0)):
            got = extreme(0.0, np.array([-1.0]))
            assert type(got) is np.ndarray and got.tolist() == [expected]

    @pytest.mark.parametrize("extreme", [trial_max, trial_min])
    def test_nan_stays_nan(self, extreme):
        nan = float("nan")
        for values in ((0.0, nan), (nan, 0.0), (1.0, nan, -1.0), (0.0, np.float64(nan))):
            assert math.isnan(extreme(*values)), values
        stacked = extreme(np.array([0.0, 2.0]), np.array([nan, 1.0]))
        assert math.isnan(stacked[0]) and math.isnan(extreme(0.0, nan))
        assert stacked[1] == extreme(2.0, 1.0)

    @pytest.mark.parametrize("extreme", [trial_max, trial_min])
    def test_slices_match_one_trial(self, extreme):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((3, 5))
        stacked = extreme(a, 0.5, b, c)
        for t in range(5):
            one = extreme(float(a[t]), 0.5, float(b[t]), float(c[t]))
            assert type(one) is float and one == stacked[t]

    def test_bound(self):
        pol = TolerancePolicy(rel=1e-6, abs=1e-12)
        assert pol.bound(0.5) == 1e-6 * 1.0 + 1e-12
        assert pol.bound(0.5, 3.0) == 1e-6 * 3.0 + 1e-12
        scales = np.array([0.5, 3.0, float("nan")]), np.array([2.0, 1.0, 1.0])
        stacked = pol.bound(*scales)
        assert type(stacked) is np.ndarray
        for t in range(3):
            one = pol.bound(*(float(s[t]) for s in scales))
            assert one == stacked[t] or (math.isnan(one) and math.isnan(stacked[t]))
        assert math.isnan(pol.bound(1.0, float("nan")))
