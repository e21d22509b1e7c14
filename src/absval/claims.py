"""The claim catalog: every identity and inequality as a checkable statement.

A claim couples a hypothesis predicate, a conclusion predicate and the seeded
ensemble it is exercised against.  Claims expected to hold always are run over
many random trials; the five fixed counterexample instances live in a registry
with their known verdict structure.  ``run_suite`` drives everything and
aggregates a replayable report.
"""

from __future__ import annotations

import math
import operator
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, reduce
from itertools import chain, groupby
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DimensionMismatch,
    NumericalError,
    PredicateResult,
    TolerancePolicy,
    _checked_int,
    _is_integer,
    adjoint,
    as_matrix,
    commutation,
    equality,
    frobenius,
    operator_norm,
    select,
    symmetrize,
    trial_max,
    trial_min,
)
from .calculus import (
    MAX_CONDITION,
    _guarded_inverse,
    abs_value,
    inverse,
    condition_estimate,
    loewner_leq,
    psd_power,
    psd_sqrt,
)
from .predicates import (
    commutes,
    is_anti_symmetric,
    is_hyponormal,
    is_normal,
    is_positive,
    is_self_adjoint,
)
from . import generators
from .generators import EnsembleSpec, Seed, _block_generators, build, sample_block

ALWAYS_HOLDS = "ALWAYS_HOLDS"
REGISTRY_VIOLATION = "REGISTRY_VIOLATION"

PASS = "PASS"
VIOLATION = "VIOLATION"
HYPOTHESIS_FAIL = "HYPOTHESIS_FAIL"

# Annotation attached to the theorem claims with a conjunct that names
# hyponormality; the hyponormal predicate is still evaluated, never assumed.
_COLLAPSE_NOTE = (
    "hyponormal slot instantiated with normal witnesses: in finite dimension "
    "a hyponormal matrix is already normal"
)


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    arity: int  # -1 means the ensemble decides per trial
    ensemble: EnsembleSpec | None
    hypothesis: Callable
    conclusion: Callable
    expect: str = ALWAYS_HOLDS
    note: str = ""
    # conclusion extras that some trials leave out; on a stack they read NaN there
    per_trial_extras: tuple = ()


@dataclass(frozen=True)
class ClaimInstance:
    claim_id: str
    matrices: tuple

    def __post_init__(self):
        claim = catalog()[self.claim_id]
        object.__setattr__(self, "matrices", tuple(map(as_matrix, self.matrices)))
        if not self.matrices:
            raise ValueError(f"{self.claim_id} takes at least one matrix, got none")
        if claim.arity > 0 and len(self.matrices) != claim.arity:
            raise ValueError(
                f"{self.claim_id} takes {claim.arity} matrices, got {len(self.matrices)}"
            )
        shapes = [m.shape for m in self.matrices]
        if len(set(shapes)) > 1:
            raise DimensionMismatch(f"{self.claim_id} takes matrices of one shape, got {shapes}")
        if len(shapes[0]) != 2:
            raise DimensionMismatch(f"{self.claim_id} takes n x n matrices, got shapes {shapes}")


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    hypothesis_ok: bool
    conclusion_ok: bool | None
    hypothesis_flags: dict
    residuals: dict
    verdict: str


# ---------------------------------------------------------------------------
# hypothesis / conclusion building blocks


def _all(flags):
    """Conjunction of per-trial flags; True for none, as for a family of one's pairs."""
    return reduce(operator.and_, flags, True)


def _grouped(fn, rows, *args):
    """Yield ``fn(*row, *args)`` for each tuple of arrays in ``rows``, in
    order, from calls on the stacked columns of consecutive rows, each call
    within ``generators.STACK_BYTES // 4``: a trial's operands go as one
    call, a sweep stack's rows one by one and none made early.  Results are
    bit for bit the rows' own calls, one trial's scalars as Python scalars.
    A group that raises runs row by row, so the first row to raise in the
    conclusion's order (the n-fold ones put the whole first) names the error."""
    group = []
    for row in rows:
        group.append(row)
        room = generators.STACK_BYTES // 4 // (len(row) * row[0].nbytes)  # one shape per row
        del row  # a called row is freed before the next one is made
        if len(group) >= room:
            yield from _group_call(fn, group, args)
            group = []
    yield from _group_call(fn, group, args)


def _group_call(fn, group, args):
    if len(group) > 1:
        try:
            return _unstack(fn(*map(np.array, zip(*group)), *args))
        except (NumericalError, ValueError):  # an eigensolver's LinAlgError is a ConvergenceError
            pass  # row by row the sequence raises its own error
    return [fn(*row, *args) for row in group]


def _unstack(value):
    if isinstance(value, tuple):
        return list(zip(*map(_unstack, value)))
    return value.tolist() if value.ndim == 1 else list(value)


def _commuting_product(a, b, pol):
    """``(sym(ab), holds, asymmetry)`` for operands whose hypothesis has them
    commute.  The product is symmetrized before any gate sees it, and its
    asymmetry ``||ab - (ab)*||_F``, the commutator for self-adjoint operands,
    is judged by the hypothesis' :func:`~absval.core.commutation`, not absorbed."""
    p = a @ b
    holds, asym = commutation(p - p.conj().swapaxes(-1, -2), a, b, pol)
    return symmetrize(p), holds, asym


def _concl_loewner(x, y, pol):
    """Order conclusion x <= y; residual is the negated witness eigenvalue,
    so larger means closer to (or deeper into) violation."""
    v = loewner_leq(x, y, pol)
    return v.holds, -v.residual, {"witness_lambda_min": v.residual}


def _concl_opnorm_leq(x, y, pol, *scale_of):
    """Norm conclusion ||x|| <= ||y|| with additive slack tol*max(1, scales),
    the scales being the norms of ``scale_of``, or else ||x|| and ||y||."""
    lhs, rhs, *scales = _grouped(operator_norm, zip([x, y, *scale_of]))
    slack = pol.bound(*(scales or (lhs, rhs)))
    return lhs <= rhs + slack, lhs - rhs, {"lhs_norm": lhs, "rhs_norm": rhs}


# --- hypotheses ------------------------------------------------------------
#
# A hypothesis is a conjunction of rows ``(name, predicate, operands)``: the
# conjunct ``name`` holds where ``predicate(*operands(mats), pol)`` does.


def _conjunction(*rows):
    """The hypothesis of ``rows``, as ``(ok, flags, residuals)``: each row's
    :class:`PredicateResult` gives ``flags[name]`` and ``residuals["hyp_" +
    name]``, and ``ok`` is their conjunction.  The rows run in order, which
    keys both dicts in row order, and stay readable as ``.conjuncts``."""
    def hypothesis(mats, pol):
        results = {name: predicate(*operands(mats), pol) for name, predicate, operands in rows}
        flags = {name: res.holds for name, res in results.items()}
        residuals = {f"hyp_{name}": res.residual for name, res in results.items()}
        return _all(flags.values()), flags, residuals

    hypothesis.conjuncts = rows
    return hypothesis


def _slots(*slots):
    """Operands: the matrices at ``slots``, in that order."""
    return lambda mats: [mats[i] for i in slots]


def _family(mats):
    """Operands: the whole tuple, for a predicate on a family."""
    return (mats,)


def _cross_term(mats):
    """Operands of ``A*B + B*A <= 0``."""
    a, b = mats
    cross = adjoint(a) @ b + adjoint(b) @ a
    return cross, np.zeros_like(cross)


def _invertible_pred(a, pol) -> PredicateResult:
    kappa = condition_estimate(a)
    return PredicateResult(kappa <= MAX_CONDITION, kappa)


def _pairwise_commute(mats, pol) -> PredicateResult:
    pairs = [commutes(x, y, pol) for i, x in enumerate(mats) for y in mats[i + 1 :]]
    worst = trial_max(0.0, *(r.residual for r in pairs))
    return PredicateResult(_all(r.holds for r in pairs), worst)


def _every(predicate, worst, but=0):
    """The family predicate "every member but ``but`` of them satisfies
    ``predicate``"; its residual is the ``worst`` (``trial_max`` or
    ``trial_min``) of the members' residuals."""
    def every(mats, pol):
        res = [predicate(m, pol) for m in mats]
        holds = sum(r.holds for r in res) >= len(res) - but
        return PredicateResult(holds, worst(*(r.residual for r in res)))

    return every


_COMMUTES = ("commutes", commutes, _slots(0, 1))
_NORMAL_A = ("normal_a", is_normal, _slots(0))
_NORMAL_B = ("normal_b", is_normal, _slots(1))
_POSITIVE_A = ("positive_a", is_positive, _slots(0))
_POSITIVE_B = ("positive_b", is_positive, _slots(1))
_ORDER_B_LEQ_A = ("order_b_leq_a", loewner_leq, _slots(1, 0))
_HYPONORMAL_B = ("hyponormal_b", is_hyponormal, _slots(1))
_PAIRWISE_COMMUTE = ("pairwise_commute", _pairwise_commute, _family)
_ALL_BUT_ONE_NORMAL = ("all_but_one_normal", _every(is_normal, trial_max, but=1), _family)

# the hypotheses that several claims share
_COMMUTING_POSITIVE = _conjunction(_COMMUTES, _POSITIVE_A, _POSITIVE_B)
_NORMAL = _conjunction(_NORMAL_A)
_COMMUTING_NORMAL_A = _conjunction(_COMMUTES, _NORMAL_A)
_COMMUTING_NORMALS = _conjunction(_COMMUTES, _NORMAL_A, _NORMAL_B)
_COMMUTING_NORMAL_A_HYPONORMAL_B = _conjunction(_COMMUTES, _NORMAL_A, _HYPONORMAL_B)
_NORMAL_INVERTIBLE = _conjunction(_NORMAL_A, ("invertible_a", _invertible_pred, _slots(0)))
_SA_PAIR_NORMAL_PRODUCT = _conjunction(
    ("self_adjoint_a", is_self_adjoint, _slots(0)),
    ("self_adjoint_b", is_self_adjoint, _slots(1)),
    ("normal_product", is_normal, lambda mats: [mats[0] @ mats[1]]),
)


# --- conclusions -----------------------------------------------------------


def _concl_product_positive(mats, pol):
    p, symmetric, asym = _commuting_product(*mats, pol)
    res = is_positive(p, pol)
    extras = {"lambda_min": res.residual, "product_asymmetry": asym}
    return res.holds & symmetric, -res.residual, extras


def _concl_sqrt_factor(mats, pol):
    a, b = mats
    roots = psd_sqrt(a, pol) @ psd_sqrt(b, pol)  # first: input that fails a gate fails cheaply
    p, symmetric, asym = _commuting_product(a, b, pol)
    same, residual = equality(psd_sqrt(p, pol), roots, pol)
    return same & symmetric, residual, {"product_asymmetry": asym}


def _concl_sqrt_sum(mats, pol):
    a, b = mats
    return _concl_loewner(psd_sqrt(a + b, pol), psd_sqrt(a, pol) + psd_sqrt(b, pol), pol)


_LH_ALPHAS = (0.25, 0.5, 0.75)


def _concl_loewner_heinz(mats, pol):
    a, b = mats
    lower, upper = psd_power(b, _LH_ALPHAS, pol), psd_power(a, _LH_ALPHAS, pol)
    orders = [loewner_leq(x, y, pol) for x, y in zip(lower, upper)]
    worst = trial_max(*(-v.residual for v in orders))
    extras = {f"witness_alpha_{t}": v.residual for t, v in zip(_LH_ALPHAS, orders)}
    return _all(v.holds for v in orders), worst, extras


def _concl_square_mono(mats, pol):
    a, b = mats
    return _concl_loewner(b @ b, a @ a, pol)


def _concl_fuglede(mats, pol):
    a, b = mats
    astar, bstar = adjoint(a), adjoint(b)
    pairs = (a, b), (astar, b), (a, bstar), (astar, bstar)
    flags, norms = zip(*_grouped(lambda x, y: commutation(x @ y - y @ x, a, b, pol), pairs))
    residuals = dict(zip(("comm", "comm_astar", "comm_bstar", "comm_both"), norms))
    ok = _all(f == flags[0] for f in flags[1:])
    spread = trial_max(*residuals.values()) - trial_min(*residuals.values())
    return ok, select(ok, 0.0, spread), residuals


def _concl_abs_commute(mats, pol):
    aa, ab = _grouped(abs_value, zip(mats), pol)
    return *equality(aa @ ab, ab @ aa, pol), {}


def _concl_prodsa_cor(mats, pol):
    a, b = mats
    aa, ab = _grouped(abs_value, zip(mats), pol)
    p = aa @ ab
    sa = is_self_adjoint(p, pol)
    commute_ok, commute_residual = equality(p, ab @ aa, pol)
    ok = sa.holds & commute_ok
    residual = trial_max(sa.residual, commute_residual)
    extras = {"self_adjoint_residual": sa.residual}
    both_positive = is_positive(a, pol).holds & is_positive(b, pol).holds
    if np.any(both_positive):
        # L-SQRT-PROD's conclusion; on a stack, trials outside the positive case
        # keep their verdict and carry NaN in place of its lambda_min and asymmetry
        holds, negated, product = _concl_product_positive(mats, pol)
        ok = ok & select(both_positive, holds, True)
        residual = select(both_positive, trial_max(residual, negated), residual)
        extras["product_lambda_min"] = select(both_positive, product["lambda_min"], np.nan)
        extras["product_asymmetry"] = select(both_positive, product["product_asymmetry"], np.nan)
    return ok, residual, extras


def _concl_eight_products(mats, pol):
    a, b = mats
    astar, bstar = adjoint(a), adjoint(b)
    pairs = (a, b), (astar, b), (a, bstar), (astar, bstar), (bstar, astar), (bstar, a)
    pairs += (b, astar), (b, a)
    first, *rest = _grouped(lambda x, y: abs_value(x @ y, pol), pairs)
    same, residuals = zip(*_grouped(equality, ((first, v) for v in rest), pol))
    return _all(same), trial_max(0.0, *residuals), {}


def _concl_inv_product(mats, pol):
    return _concl_nfold_product((mats[0], inverse(mats[1])), pol)


def _concl_inverse_abs(mats, pol):
    (a,) = mats
    kappa = condition_estimate(a)  # the estimate inverse would compute again
    abs_inv, abs_a = _grouped(abs_value, zip([_guarded_inverse(a, kappa), a]), pol)
    prod = abs_inv @ abs_a
    r = frobenius(prod - np.eye(a.shape[-1]))
    extras = {"identity_residual": r, "condition": kappa}
    return r <= pol.bound(kappa), r / trial_max(1.0, kappa), extras


def _concl_nfold_product(mats, pol):  # |AB| = |A||B| at k = 2
    whole, *factors = _grouped(abs_value, zip([reduce(operator.matmul, mats), *mats]), pol)
    return *equality(whole, reduce(operator.matmul, factors), pol), {}


def _concl_integer_powers(mats, pol):
    (a,) = mats
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)  # one shape per row
    abs_a = abs_value(a, pol)

    def powers(b, c):  # (B^e, C^e), e = 1..3, from eye @ B: B alone may differ in a zero's sign
        pb, pc = eye, eye
        for _ in range(3):
            pb, pc = pb @ b, pc @ c
            yield pb, pc

    # (A^e, |A|^e) for e = -3 .. 3 in turn, the positive powers made as they are asked for
    rows = chain(reversed([*powers(inverse(a), inverse(abs_a))]), [(eye, eye)], powers(a, abs_a))
    same, residuals = zip(*_grouped(lambda x, y: equality(abs_value(x, pol), y, pol), rows))
    return _all(same), trial_max(0.0, *residuals), {}


def _concl_square_nonpositive(mats, pol):
    (a,) = mats
    sq = a @ a
    return _concl_loewner(sq, np.zeros_like(sq), pol)


def _concl_re_below_abs(mats, pol):
    (t,) = mats
    return _concl_loewner(symmetrize(t), abs_value(t, pol), pol)


def _concl_adjoint_product_hyponormal(mats, pol):
    a, b = mats
    res = is_hyponormal(adjoint(a) @ b, pol)
    return res.holds, -res.residual, {"witness_lambda_min": res.residual}


def _concl_re_im_split(mats, pol):
    (t,) = mats
    re = symmetrize(t)
    im = (t - adjoint(t)) / 2j
    abs_t, abs_re, abs_im = _grouped(abs_value, zip([t, re, im]), pol)
    return _concl_loewner(abs_t, abs_re + abs_im, pol)


def _concl_triangle_n(mats, pol):  # |A + B| <= |A| + |B| at k = 2
    whole, first, *rest = _grouped(abs_value, zip([sum(mats[1:], start=mats[0]), *mats]), pol)
    return _concl_loewner(whole, sum(rest, start=first), pol)


def _concl_sum_normal(mats, pol):
    total = sum(mats[1:], start=mats[0])
    res = is_normal(total, pol)
    return res.holds, res.residual, {"normality_residual": res.residual}


def _concl_normdiff_plus(mats, pol):
    a, b = mats
    abs_a, abs_b = _grouped(abs_value, zip(mats), pol)
    return _concl_opnorm_leq(abs_a - abs_b, a + b, pol, *mats)


def _concl_absdiff_plus(mats, pol):
    a, b = mats
    abs_a, abs_b = _grouped(abs_value, zip(mats), pol)
    return _concl_loewner(*_grouped(abs_value, zip([abs_a - abs_b, a + b]), pol), pol)


def _minus_form(conclusion):
    """The A - B form of an A + B conclusion: it runs on (A, -B), and |-B|
    and A + (-B) are bit for bit |B| and A - B.  ``plus_form`` is the A + B
    conclusion (C-TRIN's for C-TRIMINUS), run by the probe on both forms' trials."""
    def minus(mats, pol):
        return conclusion((mats[0], -mats[1]), pol)

    minus.plus_form = conclusion
    return minus


# ---------------------------------------------------------------------------
# catalog


@cache
def catalog() -> dict[str, Claim]:
    claims = [
        Claim(
            "L-SQRT-PROD",
            "commuting A, B >= 0 imply AB >= 0",
            2,
            EnsembleSpec("commuting_positive_pair"),
            _COMMUTING_POSITIVE,
            _concl_product_positive,
        ),
        Claim(
            "L-SQRT-FACTOR",
            "commuting A, B >= 0 imply sqrt(AB) = sqrt(A) sqrt(B)",
            2,
            EnsembleSpec("commuting_positive_pair"),
            _COMMUTING_POSITIVE,
            _concl_sqrt_factor,
        ),
        Claim(
            "L-SQRT-SUM",
            "commuting A, B >= 0 imply sqrt(A+B) <= sqrt(A) + sqrt(B)",
            2,
            EnsembleSpec("commuting_positive_pair"),
            _COMMUTING_POSITIVE,
            _concl_sqrt_sum,
        ),
        Claim(
            "T-LH",
            "A >= B >= 0 implies A^t >= B^t for t in {0.25, 0.5, 0.75}",
            2,
            EnsembleSpec("ordered_psd_pair"),
            _conjunction(_ORDER_B_LEQ_A, _POSITIVE_B),
            _concl_loewner_heinz,
        ),
        Claim(
            "R-SQMONO",
            "A >= B >= 0 with AB = BA implies A^2 >= B^2",
            2,
            EnsembleSpec("ordered_psd_pair", commuting=True),
            _conjunction(_ORDER_B_LEQ_A, _POSITIVE_B, _COMMUTES),
            _concl_square_mono,
        ),
        Claim(
            "L-FUG",
            "for normal A the four conditions AB=BA, A*B=BA*, AB*=B*A, A*B*=B*A* agree",
            2,
            EnsembleSpec("fuglede_pair"),
            _NORMAL,
            _concl_fuglede,
        ),
        Claim(
            "C-ABSCOMM",
            "AB = BA with A normal implies |A||B| = |B||A|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A,
            _concl_abs_commute,
        ),
        Claim(
            "C-PRODSA",
            "self-adjoint A, B with AB normal satisfy |AB| = |A||B|",
            2,
            EnsembleSpec("sa_pair_normal_product", dim=2),
            _SA_PAIR_NORMAL_PRODUCT,
            _concl_nfold_product,
        ),
        Claim(
            "C-PRODSA-COR",
            "self-adjoint A, B with AB normal: |A||B| is self-adjoint, and AB >= 0 when A, B >= 0",
            2,
            EnsembleSpec("sa_pair_normal_product", dim=2),
            _SA_PAIR_NORMAL_PRODUCT,
            _concl_prodsa_cor,
            per_trial_extras=("product_lambda_min", "product_asymmetry"),
        ),
        Claim(
            "C-PRODNORM",
            "AB = BA with A normal implies |AB| = |A||B|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A,
            _concl_nfold_product,
        ),
        Claim(
            "C-EIGHT",
            "commuting normal A, B: the eight products AB, A*B, ..., BA share one absolute value",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMALS,
            _concl_eight_products,
        ),
        Claim(
            "C-INV1",
            "AB = BA, A normal, B invertible imply |A B^-1| = |A| |B^-1|",
            2,
            EnsembleSpec("commuting_normal_family", k=2, invertible=True),
            _conjunction(_COMMUTES, _NORMAL_A, ("invertible_b", _invertible_pred, _slots(1))),
            _concl_inv_product,
        ),
        Claim(
            "C-INV2",
            "normal invertible A satisfies |A^-1| = |A|^-1",
            1,
            EnsembleSpec("normal", invertible=True),
            _NORMAL_INVERTIBLE,
            _concl_inverse_abs,
        ),
        Claim(
            "C-NFOLD",
            "pairwise commuting family with all but one member normal: |prod A_i| = prod |A_i|",
            -1,
            EnsembleSpec("commuting_family_one_nonnormal"),
            _conjunction(_PAIRWISE_COMMUTE, _ALL_BUT_ONE_NORMAL),
            _concl_nfold_product,
        ),
        Claim(
            "C-POWZ",
            "normal invertible A satisfies |A^n| = |A|^n for n in -3..3",
            1,
            EnsembleSpec("normal", invertible=True),
            _NORMAL_INVERTIBLE,
            _concl_integer_powers,
        ),
        Claim(
            "L-ANTI",
            "A* = -A implies A^2 <= 0",
            1,
            EnsembleSpec("anti_symmetric"),
            _conjunction(("anti_symmetric", is_anti_symmetric, _slots(0))),
            _concl_square_nonpositive,
        ),
        Claim(
            "L-REPART",
            "hyponormal T satisfies (T + T*)/2 <= |T|",
            1,
            EnsembleSpec("normal"),
            _conjunction(("hyponormal", is_hyponormal, _slots(0))),
            _concl_re_below_abs,
        ),
        Claim(
            "L-HYPROD",
            "A normal, B hyponormal, AB = BA imply A*B hyponormal",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A_HYPONORMAL_B,
            _concl_adjoint_product_hyponormal,
        ),
        Claim(
            "C-TRI",
            "AB = BA, A normal, B hyponormal imply |A + B| <= |A| + |B|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A_HYPONORMAL_B,
            _concl_triangle_n,
        ),
        Claim(
            "C-REIM",
            "normal T satisfies |T| <= |Re T| + |Im T|",
            1,
            EnsembleSpec("normal"),
            _NORMAL,
            _concl_re_im_split,
        ),
        Claim(
            "C-TRIMINUS",
            "AB = BA, A normal, B hyponormal imply |A - B| <= |A| + |B|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A_HYPONORMAL_B,
            _minus_form(_concl_triangle_n),
        ),
        Claim(
            "C-TRIN",
            "pairwise commuting family, normal except one hyponormal member: "
            "|sum A_i| <= sum |A_i|",
            3,
            EnsembleSpec("commuting_normal_family", k=3),
            _conjunction(
                _PAIRWISE_COMMUTE,
                _ALL_BUT_ONE_NORMAL,
                ("all_hyponormal", _every(is_hyponormal, trial_min), _family),
            ),
            _concl_triangle_n,
        ),
        Claim(
            "C-SUMNORM",
            "a pairwise commuting normal family has a normal sum",
            3,
            EnsembleSpec("commuting_normal_family", k=3),
            _conjunction(_PAIRWISE_COMMUTE, ("all_normal", _every(is_normal, trial_max), _family)),
            _concl_sum_normal,
        ),
        Claim(
            "C-NORMDIFF+",
            "AB = BA with A, B normal implies || |A| - |B| || <= ||A + B||",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMALS,
            _concl_normdiff_plus,
        ),
        Claim(
            "C-NORMDIFF-",
            "AB = BA with A, B normal implies || |A| - |B| || <= ||A - B||",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMALS,
            _minus_form(_concl_normdiff_plus),
        ),
        Claim(
            "L-SANDWICH",
            "self-adjoint T, S with -S <= T <= S satisfy ||T|| <= ||S||",
            2,
            EnsembleSpec("sandwich_pair"),
            _conjunction(
                ("self_adjoint_t", is_self_adjoint, _slots(0)),
                ("self_adjoint_s", is_self_adjoint, _slots(1)),
                ("positive_s", is_positive, _slots(1)),
                ("lower", loewner_leq, lambda mats: [-mats[1], mats[0]]),
                ("upper", loewner_leq, _slots(0, 1)),
            ),
            lambda mats, pol: _concl_opnorm_leq(*mats, pol),
        ),
        Claim(
            "C-ABSDIFF-",
            "AB = BA, A normal, B hyponormal imply ||A| - |B|| <= |A - B|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A_HYPONORMAL_B,
            _minus_form(_concl_absdiff_plus),
        ),
        Claim(
            "C-ABSDIFF+",
            "AB = BA, A normal, B hyponormal imply ||A| - |B|| <= |A + B|",
            2,
            EnsembleSpec("commuting_normal_family", k=2),
            _COMMUTING_NORMAL_A_HYPONORMAL_B,
            _concl_absdiff_plus,
        ),
        Claim(
            "C-NEGCROSS",
            "AB = BA, A normal, A*B + B*A <= 0 imply |A + B| <= |A| + |B|",
            2,
            EnsembleSpec("negative_cross_pair"),
            _conjunction(
                _COMMUTES, _NORMAL_A, ("cross_nonpositive", loewner_leq, _cross_term)
            ),
            _concl_triangle_n,
        ),
    ]
    table = {}
    for claim in claims:
        if claim.id in table:
            raise RuntimeError(f"duplicate claim id {claim.id}")
        if any("hyponormal" in name for name, _, _ in claim.hypothesis.conjuncts):
            claim = replace(claim, note=_COLLAPSE_NOTE)
        table[claim.id] = claim
    # a counterexample is checked with the hypothesis and conclusion of the
    # claim it witnesses against, on its own fixed matrices
    for inst in registry():
        table[inst.ce_id] = replace(
            table[inst.target_claim],
            id=inst.ce_id,
            description=inst.description,
            arity=len(inst.matrices),
            ensemble=None,
            expect=REGISTRY_VIOLATION,
            note="",
        )
    return table


# ---------------------------------------------------------------------------
# counterexample registry


@dataclass(frozen=True)
class RegistryInstance:
    """A fixed counterexample with its known verdict structure.

    ``target_claim`` names the catalog claim it witnesses against: the one
    whose hypothesis, once dropped, lets this instance break its conclusion.
    """

    ce_id: str
    target_claim: str
    description: str
    matrices: tuple
    expected_flags: dict
    expected_values: dict
    values: Callable
    caveat: str = ""


_SQRT5 = float(np.sqrt(5.0))
_SQRT2 = float(np.sqrt(2.0))


@cache
def registry() -> tuple[RegistryInstance, ...]:
    def pair_values(name, combine):
        """|A|, |B|, and |combine(A, B)| as ``name``."""
        return lambda mats, pol: dict(
            zip(("abs_a", "abs_b", name), _grouped(abs_value, zip([*mats, combine(*mats)]), pol))
        )

    def square_values(mats, pol):
        (a,) = mats
        aa = abs_value(a, pol)
        return {"abs_square": abs_value(a @ a, pol), "abs_a_squared": aa @ aa}

    return (
        RegistryInstance(
            "CE-0",
            "C-ABSCOMM",
            "commuting non-normal pair with |A||B| != |B||A|",
            (as_matrix([[1, 1], [0, 1]]), as_matrix([[0, 1], [0, 0]])),
            {"commutes": True, "normal_a": False},
            {
                "abs_a": as_matrix([[2, 1], [1, 3]]) / _SQRT5,
                "abs_b": as_matrix([[0, 0], [0, 1]]),
            },
            pair_values("abs_product", operator.matmul),
        ),
        RegistryInstance(
            "CE-1",
            "C-PRODSA",
            "self-adjoint pair with non-normal product: |AB| != |A||B|",
            (as_matrix([[2, 0], [0, -1]]), as_matrix([[0, 1], [1, 0]])),
            {"self_adjoint_a": True, "self_adjoint_b": True, "normal_product": False},
            {
                "abs_a": as_matrix([[2, 0], [0, 1]]),
                "abs_b": as_matrix([[1, 0], [0, 1]]),
                "abs_product": as_matrix([[1, 0], [0, 2]]),
            },
            pair_values("abs_product", operator.matmul),
        ),
        RegistryInstance(
            "CE-2",
            "C-PRODNORM",
            "non-normal pair with self-adjoint product: |AB| != |A||B|",
            (as_matrix([[0, 1], [2, 0]]), as_matrix([[0, 2], [1, 0]])),
            {"commutes": False, "normal_a": False},
            {
                "abs_a": as_matrix([[2, 0], [0, 1]]),
                "abs_b": as_matrix([[1, 0], [0, 2]]),
                "abs_product": as_matrix([[1, 0], [0, 4]]),
            },
            pair_values("abs_product", operator.matmul),
            caveat=(
                "|AB| equals diag(1, 4): the product AB = diag(1, 4) is already "
                "positive, so it is its own absolute value; the diag(1, 2) "
                "sometimes quoted for this example is |B|, not |AB|"
            ),
        ),
        RegistryInstance(
            "CE-3",
            "C-POWZ",
            "non-normal A with |A^2| != |A|^2",
            (as_matrix([[0, 2], [1, 0]]),),
            {"normal_a": False, "invertible_a": True},
            {
                "abs_square": as_matrix([[2, 0], [0, 2]]),
                "abs_a_squared": as_matrix([[1, 0], [0, 4]]),
            },
            square_values,
            caveat=(
                "computed values: A^2 = 2I gives |A^2| = 2I, and A*A = diag(1, 4) "
                "gives |A|^2 = diag(1, 4); the sqrt(2) I and diag(2, 1) sometimes "
                "quoted for this example contradict direct computation, though the "
                "inequality |A^2| != |A|^2 survives either way"
            ),
        ),
        RegistryInstance(
            "CE-4",
            "C-TRI",
            "non-commuting self-adjoint pair violating |A+B| <= |A|+|B|",
            (as_matrix([[-1, 1], [1, -1]]), as_matrix([[2, 0], [0, 0]])),
            {"commutes": False, "normal_a": True, "hyponormal_b": True},
            {
                "abs_a": as_matrix([[1, -1], [-1, 1]]),
                "abs_b": as_matrix([[2, 0], [0, 0]]),
                "abs_sum": _SQRT2 * as_matrix([[1, 0], [0, 1]]),
            },
            pair_values("abs_sum", operator.add),
        ),
    )


@dataclass(frozen=True)
class RegistryResult:
    ce_id: str
    ok: bool
    mismatches: tuple
    result: ClaimResult
    value_residuals: dict
    caveat: str = ""


def check_registry_instance(
    inst: RegistryInstance, pol: TolerancePolicy = DEFAULT_POLICY
) -> RegistryResult:
    """Re-derive one counterexample and compare against its known structure.

    The expected structure is: the recorded hypothesis flags, a failing
    conclusion, and the recorded matrix values (within 1e-10)."""
    result = check_claim(ClaimInstance(inst.ce_id, inst.matrices), pol)
    mismatches = []
    for name, expected in inst.expected_flags.items():
        got = result.hypothesis_flags.get(name)
        if got is not expected:
            mismatches.append(f"hypothesis flag {name}: expected {expected}, got {got}")
    if result.conclusion_ok is not False:
        mismatches.append(f"conclusion expected to fail, got {result.conclusion_ok}")
    value_residuals = {}
    actual = inst.values(inst.matrices, pol)
    for name, expected in inst.expected_values.items():
        r = frobenius(actual[name] - expected)
        value_residuals[name] = r
        if r > 1e-10 * max(1.0, frobenius(expected)):
            mismatches.append(f"value {name}: residual {r:.3e} beyond 1e-10")
    return RegistryResult(
        inst.ce_id, not mismatches, tuple(mismatches), result, value_residuals, inst.caveat
    )


# ---------------------------------------------------------------------------
# claim evaluation and suites


def _evaluate(claim: Claim, mats: tuple, pol: TolerancePolicy):
    """The one evaluation of a claim: ``(hypothesis_ok, conclusion_ok,
    flags, residuals)`` for one trial, or per-trial arrays for ``(B, n, n)``
    stacks.  ``residuals`` holds the hypothesis residuals, ``"conclusion"``
    and the conclusion's extras, as Python floats for one trial.

    The conclusion runs under a failed hypothesis too (the registry needs
    both flags).  A one-trial conclusion that raises under a failed
    hypothesis gives ``conclusion_ok`` None and a NaN residual; any other
    raise propagates, and a stack that raises has its trials run alone.
    """
    hyp_ok, flags, residuals = claim.hypothesis(mats, pol)
    stacked = mats[0].ndim > 2
    try:
        concl_ok, concl_residual, extras = claim.conclusion(mats, pol)
    except Exception:
        if stacked or hyp_ok:
            raise
        concl_ok, concl_residual, extras = None, math.nan, {}
    residuals = {**residuals, "conclusion": concl_residual, **extras}
    return hyp_ok, concl_ok, flags, residuals if stacked else _trial_residuals(claim, residuals)


def _verdict(hyp_ok, concl_ok):
    """PASS, VIOLATION or HYPOTHESIS_FAIL, per trial."""
    return select(hyp_ok, select(concl_ok, PASS, VIOLATION), HYPOTHESIS_FAIL)


def _trial_residuals(claim: Claim, values: dict) -> dict:
    """One trial's residuals as Python floats.  A per-trial extra that reads
    NaN is one the trial leaves out, so a stack's slice gives its trial's record."""
    extras = claim.per_trial_extras
    return {name: float(v) for name, v in values.items() if v == v or name not in extras}


def check_claim(instance: ClaimInstance, pol: TolerancePolicy = DEFAULT_POLICY) -> ClaimResult:
    """:func:`_evaluate` on one bound tuple of matrices, with its verdict."""
    hyp_ok, concl_ok, *rest = _evaluate(catalog()[instance.claim_id], instance.matrices, pol)
    return ClaimResult(instance.claim_id, hyp_ok, concl_ok, *rest, _verdict(hyp_ok, concl_ok))


@dataclass
class ClaimStats:
    claim_id: str
    trials: int = 0
    passes: int = 0
    violations: list = field(default_factory=list)
    hypothesis_failures: int = 0
    errors: list = field(default_factory=list)
    worst_residual: float = float("-inf")
    worst_residual_seed: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "trials": self.trials,
            "passes": self.passes,
            "violations": self.violations,
            "hypothesis_failures": self.hypothesis_failures,
            "errors": self.errors,
            "worst_residual": self.worst_residual if self.worst_residual_seed else None,
            "worst_residual_seed": self.worst_residual_seed,
            "note": self.note,
        }

    def record(self, verdict: str, residuals: dict, where: dict, /, **details) -> None:
        """Count one checked trial: a PASS or a HYPOTHESIS_FAIL by number, a
        VIOLATION as ``where`` it came from (seed, claim_tag, dim, trial),
        its residuals and ``details`` (positional-only parameters leave any
        name, ``verdict`` too, free for a detail).  Keeps the worst finite
        conclusion residual."""
        if verdict == PASS:
            self.passes += 1
        elif verdict == VIOLATION:
            self.violations.append({**where, "residuals": residuals, **details})
        else:
            self.hypothesis_failures += 1
        self._keep_worst(residuals.get("conclusion"), where)

    def _keep_worst(self, residual, where: dict) -> None:
        """Take a finite residual as the worst if it ranks above the current
        one by (residual, dim, trial)."""
        if residual is None or not math.isfinite(residual):
            return
        worst = self.worst_residual_seed
        if worst is None or (residual, where["dim"], where["trial"]) > (
            self.worst_residual, worst["dim"], worst["trial"]
        ):
            self.worst_residual, self.worst_residual_seed = residual, where


@dataclass
class SuiteReport:
    config: dict
    claims: list
    wall_time: float

    @property
    def verdict(self) -> str:
        """``"fail"`` if any claim recorded a violation or an error."""
        return "fail" if any(st.violations or st.errors for st in self.claims) else "pass"

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "claims": [c.to_dict() for c in self.claims],
            "wall_time_seconds": self.wall_time,
            "verdict": self.verdict,
        }


def _seed_record(claim: Claim, dim: int, trial: int) -> dict:
    """The record of a seeded trial.  Its "seed" is None until
    :func:`_run_block` puts in the replay seed, a hash fold that only the
    records a block keeps pay for."""
    return {"seed": None, "claim_tag": f"{claim.id}:{dim}", "dim": dim, "trial": trial}


def _run_block(claim_id: str, dim: int, start: int, count: int, master: int, pol: TolerancePolicy):
    """Run a contiguous block of trials for one (claim, dim) into a
    :class:`ClaimStats`, which process pools ship back whole.

    :func:`sample_block` draws the trials over the block's generators,
    their seeds derived in one pass by :func:`_block_generators`, in stacks
    :func:`stack_depth` trials deep, the same for every claim at a dim;
    :func:`_split_on_raise` builds and evaluates each, and
    :func:`_run_group` reads a whole stack's records from its arrays.  A
    trial alone (a stack's only one, as in every replay, or one of a stack
    whose build or evaluation raised) is built from its own row
    of the draws, as :func:`sample` builds it, evaluated on 2-D matrices and
    counts as it would in any block.  No trial is drawn twice, and a
    :class:`Seed` is made only for a record the block keeps.
    """
    claim = catalog()[claim_id]
    stats = ClaimStats(claim_id, trials=count)
    tag = f"{claim_id}:{dim}"

    def evaluate(drawn):
        return _evaluate(claim, build(claim.ensemble, drawn), pol)

    rngs = _block_generators(master, [tag], start, count)
    for trials, drawn in sample_block(claim.ensemble, dim, rngs, np.arange(start, start + count)):
        for i, value in _split_on_raise(evaluate, drawn, len(trials)):
            if i is None:
                _run_group(claim, dim, trials, value, stats)
                continue
            where = _seed_record(claim, dim, int(trials[i]))
            if isinstance(value, Exception):
                stats.errors.append({**where, "message": str(value)})
            else:
                hyp_ok, concl_ok, _, residuals = value
                stats.record(_verdict(hyp_ok, concl_ok), residuals, where)
    kept = [*stats.violations, *stats.errors]
    if stats.worst_residual_seed is not None:  # the block's one worst-trial record
        kept.append(stats.worst_residual_seed)
    for record in kept:
        record["seed"] = Seed(master, tag, record["trial"]).replay_master
    return claim_id, stats


def _run_group(claim: Claim, dim: int, trials, evaluated, stats: ClaimStats):
    """Count one stack's trials, numbered ``trials``, from its
    :func:`_evaluate` arrays into ``stats`` as :meth:`ClaimStats.record`
    counts each: PASS and HYPOTHESIS_FAIL by number, each VIOLATION from its
    slice of the residual columns, the worst trial with one pick."""
    hyp_ok, concl_ok, _, residuals = evaluated
    size = len(trials)
    verdicts = np.broadcast_to(_verdict(hyp_ok, concl_ok), (size,))
    stats.passes += int(np.count_nonzero(verdicts == PASS))
    stats.hypothesis_failures += int(np.count_nonzero(verdicts == HYPOTHESIS_FAIL))
    violated = np.flatnonzero(verdicts == VIOLATION)
    if violated.size:
        columns = {name: np.broadcast_to(v, (size,)) for name, v in residuals.items()}
        for t in violated:
            row = _trial_residuals(claim, {name: c[t] for name, c in columns.items()})
            stats.record(VIOLATION, row, _seed_record(claim, dim, int(trials[t])))
    worst = np.broadcast_to(residuals["conclusion"], (size,))
    finite = worst[np.isfinite(worst)]
    if finite.size:  # the stack's worst by (residual, trial): the last of its largest
        t = np.flatnonzero(worst == finite.max())[-1]
        stats._keep_worst(float(worst[t]), _seed_record(claim, dim, int(trials[t])))


def _checked_claims(claim_ids, dims=()) -> dict:
    """The catalog, once ``claim_ids`` name claims in it and neither they nor
    ``dims`` repeat: a repeated claim or dim would count the same trials twice."""
    table = catalog()
    unknown = [c for c in claim_ids if c not in table]
    if unknown:
        raise KeyError(f"unknown claim ids: {unknown}")
    for name, values in (("claim ids", claim_ids), ("dims", dims)):
        if len(set(values)) < len(values):
            repeated = [v for v, times in Counter(values).items() if times > 1]
            raise ValueError(f"duplicate {name}: {repeated}")
    return table


def _checked_run(claim_ids, dims, trials, master_seed, jobs) -> tuple:
    """``(catalog, dims, trials, master_seed, jobs)``, the numbers as ints,
    once a run's arguments pass the one check that :func:`run_suite` and the
    CLI make: ``KeyError`` for an unknown claim id, ``ValueError`` for any
    other bad argument, before any trial runs."""
    trials = _checked_int(trials, "trials")
    if not len(dims) or not all(_is_integer(dim) for dim in dims):  # len: dims may be an array
        raise ValueError(
            f"dims must be nonempty and each >= 1, an integer and not a bool, got {list(dims)}"
        )
    dims = [int(dim) for dim in dims]
    jobs = _checked_int(jobs, "jobs")
    master_seed = _checked_int(master_seed, "master seed", 0)
    return _checked_claims(claim_ids, dims), dims, trials, master_seed, jobs


def _merge_block(agg: ClaimStats, block: ClaimStats):
    agg.trials += block.trials
    agg.passes += block.passes
    agg.violations.extend(block.violations)
    agg.hypothesis_failures += block.hypothesis_failures
    agg.errors.extend(block.errors)
    agg._keep_worst(block.worst_residual, block.worst_residual_seed)  # -inf when none


def run_suite(
    claim_ids,
    dims,
    trials: int,
    master_seed: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
    jobs: int = 1,
) -> SuiteReport:
    """Check claims over seeded trials and aggregate a replayable report.

    Claims that always hold run ``trials`` times per requested dimension
    (dimension-pinned families run at their own size); registry
    counterexamples are re-derived once each.  The report is identical for
    serial and parallel execution: every trial's matrices depend only on its
    own seed and aggregation is order-insensitive.  Arguments are checked
    first, by :func:`_checked_run`: ``dims``, ``trials``, ``jobs`` and the
    master seed must be integers (not bools or floats) in range, and the
    report holds them as ints.
    """
    run = _checked_run(claim_ids, dims, trials, master_seed, jobs)
    table, dims, trials, master_seed, jobs = run
    started = time.perf_counter()
    stats = {cid: ClaimStats(claim_id=cid, note=table[cid].note) for cid in claim_ids}

    tasks = []
    block = 250
    for cid in claim_ids:
        claim = table[cid]
        if claim.expect == REGISTRY_VIOLATION:
            continue
        claim_dims = [claim.ensemble.dim] if claim.ensemble.dim is not None else list(dims)
        for dim in claim_dims:
            for start in range(0, trials, block):
                tasks.append((cid, dim, start, min(block, trials - start), master_seed, pol))

    # the pool starts all its workers at once: no more than tasks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported by the runs that start one

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, *zip(*tasks), chunksize=1))
    else:
        results = [_run_block(*t) for t in tasks]
    for cid, blk in results:
        _merge_block(stats[cid], blk)

    by_ce = {inst.ce_id: inst for inst in registry()}
    for cid in claim_ids:
        if table[cid].expect != REGISTRY_VIOLATION:
            continue
        reg = check_registry_instance(by_ce[cid], pol)
        st = stats[cid]
        st.trials = 1
        st.note = reg.caveat
        st.record(
            PASS if reg.ok else VIOLATION,
            reg.result.residuals,
            {"seed": "REGISTRY", "claim_tag": cid, "dim": None, "trial": 0},
            mismatches=list(reg.mismatches),
        )

    for st in stats.values():  # a record's tag holds its dim
        for records in (st.violations, st.errors):
            records.sort(key=lambda v: (v["claim_tag"], v["trial"]))

    config = {
        "claims": list(claim_ids),
        "dims": list(dims),
        "trials": trials,
        "master_seed": master_seed,
        "tol_rel": pol.rel,
        "tol_abs": pol.abs,
        "jobs": jobs,
    }
    return SuiteReport(
        config=config,
        claims=[stats[cid] for cid in claim_ids],
        wall_time=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class ProbeStats:
    claim_id: str
    evaluated: int
    conclusion_failures: int
    errors: int
    first_failure_seed: int | None


@lru_cache(maxsize=64)
def _probe_plan(claim_ids: tuple, dim: int, count: int):
    """The calls of a probe, whatever its master seed: the claims in run
    order, their tags, and for each arity the spec of its draws, its rows
    (``count`` a claim, numbered across arities in run order), the
    ``(conclusion, at, stop)`` of each run of rows that share a conclusion
    and, if it has A - B forms, a mask of their rows."""
    table = _checked_claims(claim_ids)
    runs = {}  # the claims of one arity share its draws, of one conclusion each run
    for cid in claim_ids:
        f = table[cid].conclusion
        runs.setdefault((max(table[cid].arity, 0) or 3, getattr(f, "plus_form", f)), []).append(cid)
    keys = sorted(runs, key=lambda key: key[0])
    order = [cid for key in keys for cid in runs[key]]
    minus = np.repeat([hasattr(table[cid].conclusion, "plus_form") for cid in order], count)
    plan, at = [], 0
    for k, same_arity in groupby(keys, key=lambda key: key[0]):
        first, parts = at, []
        for key in same_arity:
            parts.append((key[1], at, at + len(runs[key]) * count))
            at = parts[-1][2]
        mask = minus if minus[first:at].any() else None
        plan.append((EnsembleSpec("general", k=k), np.arange(first, at), parts, mask))
    return order, tuple(f"probe:{cid}:{dim}" for cid in order), plan


def _split_on_raise(evaluate, stack: tuple, size: int):
    """The split of the suite and the probe: ``(None, evaluate(stack))``
    for a stack of ``size`` > 1 trials that does not raise, else ``(i,
    evaluate(row i))`` for each trial in turn, row ``i`` holding ``m[i]`` of
    each of ``stack``'s arrays, the exception in place of the value of a
    trial that raises."""
    if size > 1:
        try:
            value = evaluate(stack)
        except Exception:
            pass
        else:
            yield None, value
            return
    for i in range(size):
        try:
            value = evaluate(tuple([m[i] for m in stack]))
        except Exception as exc:
            value = exc
        yield i, value


def probe_conclusions(
    claim_ids,
    dim: int,
    count: int,
    master_seed: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> list[ProbeStats]:
    """Run conclusions alone against unconstrained general matrices.

    This is the non-vacuity check: a conclusion that can never fail on
    arbitrary input is not testing anything.  Conclusions that cannot even be
    evaluated off-hypothesis (e.g. square roots of indefinite matrices) are
    counted as errors, not failures.

    Trial ``t`` of a claim draws its ``arity`` matrices (3 for a family
    claim) in turn from ``Seed(master_seed, "probe:{id}:{dim}", t)``, all
    seeds derived in one pass.  The claims of one arity draw their trials
    from one :func:`sample_block` call of the ``general`` kind, so in stacks
    :func:`stack_depth` trials deep as the suite's; claims that share a
    conclusion share its stacks, an A - B form on the negated second
    operand (:func:`_minus_form`).  A stack that raises is split by
    :func:`_split_on_raise`, so each trial counts as it would alone.
    ``dim``, ``count`` and the master seed must be integers (not bools or
    floats) in range, as in :func:`run_suite`, and are used as ints.
    """
    count = _checked_int(count, "count")
    dim = _checked_int(dim, "dim")
    master_seed = _checked_int(master_seed, "master seed", 0)
    order, tags, plan = _probe_plan(tuple(claim_ids), dim, count)
    rngs = _block_generators(master_seed, tags, 0, count)
    verdicts = np.empty(len(order) * count, dtype=np.int8)  # 1 holds, 0 fails, -1 raised
    for spec, rows, parts, minus in plan:
        for trials, drawn in sample_block(spec, dim, rngs, rows):
            lo, hi = int(trials[0]), int(trials[-1]) + 1
            drawn = build(spec, drawn)
            if minus is not None:  # an A - B form runs on -B, as its conclusion does
                drawn[1][minus[lo:hi]] = -drawn[1][minus[lo:hi]]
            for conclusion, at, stop in parts:
                at, stop = max(at, lo), min(stop, hi)
                if at >= stop:  # a run outside this stack
                    continue
                stack = tuple(m[at - lo : stop - lo] for m in drawn)
                for i, ok in _split_on_raise(lambda m: conclusion(m, pol)[0], stack, stop - at):
                    where = slice(at, stop) if i is None else at + i
                    verdicts[where] = -1 if isinstance(ok, Exception) else ok
    found = verdicts.reshape(len(order), count)
    failures = found == 0
    columns = failures.sum(1).tolist(), (found < 0).sum(1).tolist(), failures.argmax(1).tolist()
    out = {}
    for cid, tag, fails, errors, t in zip(order, tags, *columns):
        seed = Seed(master_seed, tag, t).replay_master if fails else None
        out[cid] = ProbeStats(cid, count - errors, fails, errors, seed)
    return [out[cid] for cid in claim_ids]
