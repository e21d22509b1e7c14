"""Functional calculus for matrices: |A|, PSD square roots, fractional powers,
the semidefinite partial order, and inversion.

Two independent square-root routes are kept on purpose: :func:`psd_sqrt`
diagonalizes, :func:`psd_sqrt_iterative` runs a coupled Newton (Denman-Beavers)
iteration.  They cross-check each other in the test suite and must never be
collapsed into one.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ConvergenceError,
    DimensionMismatch,
    NumericalError,
    PredicateResult,
    TolerancePolicy,
    _from_spectrum,
    _gram_extremes,
    adjoint,
    eigh_exact,
    extreme_eigenvalues,
    failing,
    frobenius,
    hermitian_eigen,
    positivity,
    require_same_shape,
    require_self_adjoint,
    select,
    symmetrize,
    trial_sqrt,
)

# Hard ceiling on the condition number accepted by inverse().
MAX_CONDITION = 1e8
# Steps psd_sqrt_iterative takes before it raises ConvergenceError.
MAX_ITERATIONS = 100


class NotPositiveSemidefinite(NumericalError, ValueError):
    """Input claimed PSD has an eigenvalue below tolerance; ``witness`` holds it."""

    def __init__(self, message: str, witness: float):
        super().__init__(message)
        self.witness = witness


class NumericallySingular(NumericalError, ValueError):
    """Condition estimate exceeds MAX_CONDITION or is NaN."""


def _psd_eigenvalues(w: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """The eigenvalues of a claimed-PSD matrix, round-off negatives clamped.

    Eigenvalues in [-tol, 0) are clamped to 0; a spectrum that fails
    :func:`positivity` is a real indefiniteness and raises, carrying the
    offending eigenvalue.
    """
    holds, lam_min = positivity(w, pol)
    witness = failing(holds, lam_min)
    if witness is not None:
        raise NotPositiveSemidefinite(
            f"matrix is not positive semidefinite: lambda_min = {witness:.3e}", witness
        )
    return np.maximum(w, 0.0)


def psd_sqrt(p: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Principal square root of a PSD matrix: :func:`psd_power` at 1/2."""
    return psd_power(p, 0.5, pol)


def psd_sqrt_iterative(p: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Principal square root via the coupled Denman-Beavers iteration.

    Takes one ``(n, n)`` matrix, unlike every other routine here: a stack
    raises :class:`~absval.core.DimensionMismatch`.  The input is shifted by
    ``pol.abs * max(1, ||p||) * I`` so the iteration's inverses exist for
    semidefinite input.  Determinant scaling accelerates
    the early phase; a single Newton correction against the shifted input
    polishes the limit.  Deliberately shares no code with :func:`psd_sqrt`.
    """
    if p.ndim != 2:
        raise DimensionMismatch(f"psd_sqrt_iterative takes one matrix, got shape {p.shape}")
    _psd_eigenvalues(hermitian_eigen(p, pol)[0], pol)  # same admission gates as psd_sqrt
    n = p.shape[0]
    a = symmetrize(p) + pol.abs * max(1.0, frobenius(p)) * np.eye(n)
    y = a.copy()
    z = np.eye(n, dtype=complex)
    scaling = True
    delta = np.inf
    for _ in range(MAX_ITERATIONS):
        try:
            if scaling:
                _, logdet_y = np.linalg.slogdet(y)
                _, logdet_z = np.linalg.slogdet(z)
                gamma = float(np.exp(-(logdet_y + logdet_z) / (2 * n)))
            else:
                gamma = 1.0
            yk, zk = gamma * y, gamma * z
            y_next = 0.5 * (yk + np.linalg.inv(zk))
            z_next = 0.5 * (zk + np.linalg.inv(yk))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"iteration hit a singular factor: {exc}", delta) from exc
        delta = frobenius(y_next - yk) / max(frobenius(y_next), np.finfo(float).tiny)
        y, z = symmetrize(y_next), symmetrize(z_next)
        if scaling and delta < 1e-2:
            scaling = False  # scaling near the fixed point slows the quadratic phase
        if delta < 50 * n * np.finfo(float).eps:
            y = symmetrize(0.5 * (y + np.linalg.inv(y) @ a))
            return y
    raise ConvergenceError(
        f"square root iteration did not converge in {MAX_ITERATIONS} steps", delta
    )


def abs_value(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Absolute value sqrt(a* a): the unique PSD matrix whose square is a* a.

    The symmetrized Gram matrix is exactly Hermitian, so it goes to the
    eigensolver without the self-adjointness gate; the PSD gate stays.
    """
    w, u = eigh_exact(symmetrize(adjoint(a) @ a))
    return symmetrize(_from_spectrum(u, np.sqrt(_psd_eigenvalues(w, pol))))


def psd_power(p: np.ndarray, alpha, pol: TolerancePolicy = DEFAULT_POLICY):
    """Fractional power of a PSD matrix for alpha in [0, 1]; for a tuple of
    exponents, the tuple of powers, all from one gated eigendecomposition.

    Uses the 0**0 = 1 convention, so alpha = 0 always yields the identity.
    """
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    if not all(0.0 <= t <= 1.0 for t in alphas):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    w, u = hermitian_eigen(p, pol)
    w = _psd_eigenvalues(w, pol)
    powers = tuple(symmetrize(_from_spectrum(u, w**t)) for t in alphas)
    return powers if alphas is alpha else powers[0]


def loewner_leq(
    a: np.ndarray, b: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> PredicateResult:
    """Decide a <= b in the semidefinite order; the residual is the witness
    eigenvalue lambda_min(b - a), held to ``-pol.bound(||a||_F, ||b||_F)``."""
    require_same_shape(a, b, "loewner_leq")
    norm_a = require_self_adjoint(a, pol, "left operand")
    norm_b = require_self_adjoint(b, pol, "right operand")
    witness = extreme_eigenvalues(eigh_exact(symmetrize(b - a), "eigvalsh"))[0]
    return PredicateResult(witness >= -pol.bound(norm_a, norm_b), witness)


def condition_estimate(a: np.ndarray):
    """Ratio of extreme singular values, from the eigenvalues of a* a.

    Returns +inf when the smallest eigenvalue is nonpositive, i.e. the matrix
    is singular to working precision, and NaN where a* a is not finite.
    """
    lam_min, lam_max = _gram_extremes(a)
    singular = (lam_max <= 0.0) | (lam_min <= 0.0)
    if type(singular) is bool:
        return float("inf") if singular else trial_sqrt(lam_max / lam_min)
    with np.errstate(divide="ignore", invalid="ignore"):
        return select(singular, np.inf, trial_sqrt(lam_max / lam_min))


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse, guarded by a singular-value condition estimate.

    Anything beyond MAX_CONDITION, or a NaN estimate, is refused rather than
    silently amplified.
    """
    return _guarded_inverse(a, condition_estimate(a))


def _guarded_inverse(a: np.ndarray, condition) -> np.ndarray:
    """:func:`inverse` of ``a``, its :func:`condition_estimate` given."""
    witness = failing(condition <= MAX_CONDITION, condition)
    if witness is not None:
        raise NumericallySingular(
            f"matrix is numerically singular: condition estimate {witness:.3e}"
        )
    return np.linalg.inv(a)
