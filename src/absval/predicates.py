"""Operator-class predicates with tolerance-aware residuals.

Each predicate returns a :class:`~absval.core.PredicateResult` that is
truthy exactly when the property holds and carries the numerical witness (a
deviation norm or an extreme eigenvalue) so callers can rank near-violations
instead of staring at bare booleans.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DimensionMismatch,
    PredicateResult,
    TolerancePolicy,
    adjoint,
    frobenius,
    positivity,
    select,
    self_adjointness,
    symmetrize,
)
from .calculus import loewner_leq


def is_self_adjoint(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a == a* by :func:`~absval.core.self_adjointness`; residual is ||a - a*||_F."""
    return PredicateResult(*self_adjointness(a, pol)[:2])


def is_normal(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a a* == a* a up to tolerance; residual is the commutator norm."""
    star = adjoint(a)
    r = frobenius(a @ star - star @ a)
    return PredicateResult(r <= pol.bound(frobenius(a) ** 2), r)


def is_hyponormal(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a a* <= a* a in the semidefinite order; residual is the witness eigenvalue."""
    star = adjoint(a)
    return loewner_leq(a @ star, star @ a, pol)


def is_positive(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """Self-adjoint with a spectrum that passes
    :func:`~absval.core.positivity`; residual is lambda_min."""
    sa = is_self_adjoint(a, pol).holds
    if sa is False:  # one matrix, not self-adjoint: no spectrum to check
        return PredicateResult(False, float("-inf"))
    psd, lam_min = positivity(np.linalg.eigvalsh(symmetrize(a)), pol)
    return PredicateResult(sa & psd, select(sa, lam_min, float("-inf")))


def is_anti_symmetric(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a* == -a up to tolerance; residual is ||a + a*||_F."""
    r = frobenius(a + a.conj().swapaxes(-1, -2))
    return PredicateResult(r <= pol.bound(frobenius(a)), r)


def commutes(a: np.ndarray, b: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a b == b a up to tolerance; residual is ||ab - ba||_F."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare commutation of shapes {a.shape} and {b.shape}")
    r = frobenius(a @ b - b @ a)
    return PredicateResult(r <= pol.bound(frobenius(a) * frobenius(b)), r)
