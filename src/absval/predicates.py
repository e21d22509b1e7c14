"""Operator-class predicates with tolerance-aware residuals.

Each predicate returns a :class:`PredicateResult` that is truthy exactly when
the property holds and carries the numerical witness (a deviation norm or an
extreme eigenvalue) so callers can rank near-violations instead of staring at
bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DimensionMismatch,
    TolerancePolicy,
    adjoint,
    frobenius,
    positivity,
    select,
    self_adjointness,
    symmetrize,
)
from .calculus import loewner_leq


@dataclass(frozen=True)
class PredicateResult:
    """``holds`` and ``residual`` are a bool and a float for one matrix, and
    arrays with one entry per trial for a stack."""

    holds: bool
    residual: float

    def __bool__(self) -> bool:
        return bool(self.holds)


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
    verdict = loewner_leq(a @ star, star @ a, pol)
    return PredicateResult(verdict.holds, verdict.witness_lambda_min)


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


@dataclass(frozen=True)
class ClassReport:
    """All class predicates of one matrix, rounded into a consistent chain.

    After tolerance rounding the implications positive => self-adjoint,
    self-adjoint => normal and normal => hyponormal are enforced, so the
    report never shows an impossible combination.
    """

    self_adjoint: bool
    normal: bool
    hyponormal: bool
    positive: bool
    anti_symmetric: bool
    residuals: dict = field(default_factory=dict)


def class_report(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> ClassReport:
    sa = is_self_adjoint(a, pol)
    nm = is_normal(a, pol)
    hypo = is_hyponormal(a, pol)
    pos = is_positive(a, pol)
    anti = is_anti_symmetric(a, pol)
    normal = nm.holds | sa.holds
    return ClassReport(
        self_adjoint=sa.holds,
        normal=normal,
        hyponormal=hypo.holds | normal,
        positive=pos.holds,
        anti_symmetric=anti.holds,
        residuals={
            "self_adjoint": sa.residual,
            "normal": nm.residual,
            "hyponormal": hypo.residual,
            "positive": pos.residual,
            "anti_symmetric": anti.residual,
        },
    )
