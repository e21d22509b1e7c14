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
    eigh_exact,
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
    """a a* == a* a, by :func:`commutes` of a and a*; residual is ||a a* - a* a||_F."""
    return commutes(a, adjoint(a), pol)


def is_hyponormal(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a a* <= a* a in the semidefinite order; residual is the witness eigenvalue."""
    star = adjoint(a)
    return loewner_leq(a @ star, star @ a, pol)


def is_positive(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """Self-adjoint, with an ``eigh`` spectrum (the PSD gates' own) that passes
    :func:`~absval.core.positivity`; residual is lambda_min."""
    sa = is_self_adjoint(a, pol).holds
    if sa is False:  # one matrix, not self-adjoint: no spectrum to check
        return PredicateResult(False, float("-inf"))
    psd, lam_min = positivity(eigh_exact(symmetrize(a))[0], pol)
    return PredicateResult(sa & psd, select(sa, lam_min, float("-inf")))


def is_anti_symmetric(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a* == -a, by :func:`is_self_adjoint` of i a; residual is ||a + a*||_F."""
    return is_self_adjoint(1j * a, pol)


def commutes(a: np.ndarray, b: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> PredicateResult:
    """a b == b a up to tolerance; residual is ||ab - ba||_F."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare commutation of shapes {a.shape} and {b.shape}")
    r = frobenius(a @ b - b @ a)
    return PredicateResult(r <= pol.bound(frobenius(a) * frobenius(b)), r)
