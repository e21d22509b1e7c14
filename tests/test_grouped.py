"""Grouped conclusions give what their per-operand forms give, bit for bit.

A conclusion that applies one primitive (``abs_value``, ``operator_norm``,
``equality``, ``@``) to several operands calls it on their stack through
``claims._grouped``.  The per-operand forms those conclusions replaced are
kept below as the reference: one primitive call per operand, in the order
the grouped forms keep.  Every claim must give the reference's output, types
included, on one trial and on stacks, and the reference's error where the
sequence of calls raises.
"""

import operator
from functools import reduce

import numpy as np
import pytest

from absval import (
    Seed,
    TolerancePolicy,
    abs_value,
    adjoint,
    as_matrix,
    catalog,
    condition_estimate,
    frobenius,
    gen_general,
    inverse,
    is_positive,
    is_self_adjoint,
    loewner_leq,
    operator_norm,
    psd_power,
    psd_sqrt,
    sample,
)
from absval import claims as claims_module, generators
from absval.core import equality, select, trial_max

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
POLICIES = (TolerancePolicy(), TolerancePolicy(rel=1e-15, abs=1e-300))
DEPTH = 6

# ---------------------------------------------------------------------------
# the per-operand forms


def _loewner(x, y, pol):
    v = loewner_leq(x, y, pol)
    return v.holds, -v.residual, {"witness_lambda_min": v.residual}


def _opnorm_leq(x, y, pol, scale_of):
    lhs, rhs = operator_norm(x), operator_norm(y)
    slack = pol.bound(*(operator_norm(m) for m in scale_of))
    return lhs <= rhs + slack, lhs - rhs, {"lhs_norm": lhs, "rhs_norm": rhs}


def loewner_heinz(mats, pol):
    a, b = mats
    alphas = (0.25, 0.5, 0.75)
    orders = [loewner_leq(psd_power(b, t, pol), psd_power(a, t, pol), pol) for t in alphas]
    worst = trial_max(*(-v.residual for v in orders))
    extras = {f"witness_alpha_{t}": v.residual for t, v in zip(alphas, orders)}
    return reduce(operator.and_, (v.holds for v in orders)), worst, extras


def abs_commute(mats, pol):
    a, b = mats
    aa, ab = abs_value(a, pol), abs_value(b, pol)
    return *equality(aa @ ab, ab @ aa, pol), {}


def abs_product(mats, pol):
    a, b = mats
    return *equality(abs_value(a @ b, pol), abs_value(a, pol) @ abs_value(b, pol), pol), {}


def prodsa_cor(mats, pol):
    a, b = mats
    aa, ab = abs_value(a, pol), abs_value(b, pol)
    p = aa @ ab
    sa = is_self_adjoint(p, pol)
    commute_ok, commute_residual = equality(p, ab @ aa, pol)
    ok = sa.holds & commute_ok
    residual = trial_max(sa.residual, commute_residual)
    extras = {"self_adjoint_residual": sa.residual}
    both_positive = is_positive(a, pol).holds & is_positive(b, pol).holds
    if np.any(both_positive):
        prod, symmetric, asym = claims_module._commuting_product(a, b, pol)
        pos = is_positive(prod, pol)
        ok = ok & select(both_positive, pos.holds & symmetric, True)
        residual = select(both_positive, trial_max(residual, -pos.residual), residual)
        extras["product_lambda_min"] = select(both_positive, pos.residual, np.nan)
        extras["product_asymmetry"] = select(both_positive, asym, np.nan)
    return ok, residual, extras


def eight_products(mats, pol):
    a, b = mats
    astar, bstar = adjoint(a), adjoint(b)
    products = (a @ b, astar @ b, a @ bstar, astar @ bstar)
    products += (bstar @ astar, bstar @ a, b @ astar, b @ a)
    values = [abs_value(p, pol) for p in products]
    worst = 0.0
    ok = True
    for v in values[1:]:
        same, residual = equality(values[0], v, pol)
        ok = ok & same
        worst = trial_max(worst, residual)
    return ok, worst, {}


def inv_product(mats, pol):
    a, b = mats
    binv = inverse(b)
    return *equality(abs_value(a @ binv, pol), abs_value(a, pol) @ abs_value(binv, pol), pol), {}


def inverse_abs(mats, pol):
    (a,) = mats
    kappa = condition_estimate(a)
    prod = abs_value(inverse(a), pol) @ abs_value(a, pol)
    r = frobenius(prod - np.eye(a.shape[-1]))
    extras = {"identity_residual": r, "condition": kappa}
    return r <= pol.bound(kappa), r / trial_max(1.0, kappa), extras


def nfold_product(mats, pol):
    rhs = reduce(operator.matmul, [abs_value(m, pol) for m in mats])
    return *equality(abs_value(reduce(operator.matmul, mats), pol), rhs, pol), {}


def integer_powers(mats, pol):
    (a,) = mats
    eye = np.eye(a.shape[-1], dtype=complex)
    abs_a = abs_value(a, pol)
    a_inv = inverse(a)
    abs_inv = inverse(abs_a)
    ok = True
    worst = 0.0
    for exponent in (-3, -2, -1, 0, 1, 2, 3):
        base = a if exponent >= 0 else a_inv
        abs_base = abs_a if exponent >= 0 else abs_inv
        power, abs_power = eye, eye
        for _ in range(abs(exponent)):
            power = power @ base
            abs_power = abs_power @ abs_base
        same, residual = equality(abs_value(power, pol), abs_power, pol)
        ok = ok & same
        worst = trial_max(worst, residual)
    return ok, worst, {}


def integer_powers_by_reduce(mats, pol):
    """C-POWZ with each power its own product chain from the identity,
    ``reduce(matmul, [m] * |e|, eye)``, every row's call in exponent order."""
    (a,) = mats
    eye = np.eye(a.shape[-1], dtype=complex)
    abs_a = abs_value(a, pol)
    a_inv, abs_inv = inverse(a), inverse(abs_a)
    ok = True
    worst = 0.0
    for exponent in (-3, -2, -1, 0, 1, 2, 3):
        bases = (a, abs_a) if exponent >= 0 else (a_inv, abs_inv)
        power, abs_power = (reduce(operator.matmul, [m] * abs(exponent), eye) for m in bases)
        same, residual = equality(abs_value(power, pol), abs_power, pol)
        ok = ok & same
        worst = trial_max(worst, residual)
    return ok, worst, {}


def triangle_sum(mats, pol):
    a, b = mats
    return _loewner(abs_value(a + b, pol), abs_value(a, pol) + abs_value(b, pol), pol)


def re_im_split(mats, pol):
    (t,) = mats
    re = (t + adjoint(t)) / 2
    im = (t - adjoint(t)) / 2j
    return _loewner(abs_value(t, pol), abs_value(re, pol) + abs_value(im, pol), pol)


def triangle_n(mats, pol):
    total = sum(mats[1:], start=mats[0])
    bound = sum((abs_value(m, pol) for m in mats[1:]), start=abs_value(mats[0], pol))
    return _loewner(abs_value(total, pol), bound, pol)


def normdiff_plus(mats, pol):
    a, b = mats
    return _opnorm_leq(abs_value(a, pol) - abs_value(b, pol), a + b, pol, (a, b))


def sandwich_norm(mats, pol):
    t, s = mats
    return _opnorm_leq(t, s, pol, (t, s))


def absdiff_plus(mats, pol):
    a, b = mats
    gap = abs_value(a, pol) - abs_value(b, pol)
    return _loewner(abs_value(gap, pol), abs_value(a + b, pol), pol)


def minus(conclusion):
    return lambda mats, pol: conclusion((mats[0], -mats[1]), pol)


REFERENCE = {
    "T-LH": loewner_heinz,
    "C-ABSCOMM": abs_commute,
    "C-PRODSA": abs_product,
    "C-PRODSA-COR": prodsa_cor,
    "C-PRODNORM": abs_product,
    "C-EIGHT": eight_products,
    "C-INV1": inv_product,
    "C-INV2": inverse_abs,
    "C-NFOLD": nfold_product,
    "C-POWZ": integer_powers,
    "C-TRI": triangle_sum,
    "C-REIM": re_im_split,
    "C-TRIMINUS": minus(triangle_sum),
    "C-TRIN": triangle_n,
    "C-NORMDIFF+": normdiff_plus,
    "C-NORMDIFF-": minus(normdiff_plus),
    "L-SANDWICH": sandwich_norm,
    "C-ABSDIFF-": minus(absdiff_plus),
    "C-ABSDIFF+": absdiff_plus,
    "C-NEGCROSS": triangle_sum,
}


# ---------------------------------------------------------------------------
# comparison


def outcome(conclusion, mats, pol):
    """The conclusion's value, or the (type, message) of what it raises."""
    try:
        return conclusion(mats, pol)
    except Exception as exc:
        return type(exc), str(exc)


def bits(x) -> bytes:
    """The bytes of ``x``, with every NaN as one NaN: no report shows a NaN's
    sign, and ``eigvalsh`` sets it differently for one matrix and a stack."""
    x = np.asarray(x)
    if x.dtype.kind in "fc":
        x = np.ascontiguousarray(x).view(np.float64)
        x = np.where(np.isnan(x), np.nan, x)
    return x.tobytes()


def assert_same(got, want, where):
    """``got`` is ``want`` bit for bit, with the same types throughout."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    elif isinstance(want, type):
        assert got is want, where
    else:
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert bits(got) == bits(want), f"{where}: {got!r} != {want!r}"


def take(value, t, claim):
    """Trial ``t``'s part of a stacked conclusion, in the one-trial form."""
    if isinstance(value, dict):  # a per-trial extra that reads NaN is one the trial leaves out
        parts = {name: take(v, t, claim) for name, v in value.items()}
        return {k: v for k, v in parts.items() if v == v or k not in claim.per_trial_extras}
    if isinstance(value, tuple):
        return tuple(take(v, t, claim) for v in value)
    if isinstance(value, np.ndarray):
        return value[t] if value.ndim > 1 else value[t].item()
    return value


def check_trials(cid, trials, pol, where):
    """Each trial alone, then the trials as a stack, against the reference:
    on each trial alone, on the stack, and through the runner's
    ``_split_on_raise`` where the stack raises."""
    claim = catalog()[cid]
    reference = REFERENCE.get(cid, claim.conclusion)
    expected = [outcome(reference, mats, pol) for mats in trials]
    for t, (mats, want) in enumerate(zip(trials, expected)):
        assert_same(outcome(claim.conclusion, mats, pol), want, f"{where} trial {t}")
    stack = tuple(np.stack(slot) for slot in zip(*trials))
    assert_same(outcome(claim.conclusion, stack, pol), outcome(reference, stack, pol), where)

    def evaluate(mats):
        return claim.conclusion(mats, pol)

    for i, value in claims_module._split_on_raise(evaluate, stack, len(trials)):
        if i is None:  # no trial raised: every slice is its trial's value
            for t, want in enumerate(expected):
                assert_same(take(value, t, claim), want, f"{where} slice {t}")
        elif isinstance(value, Exception):
            assert (type(value), str(value)) == expected[i], f"{where} trial {i} in a stack"
        else:
            assert_same(value, expected[i], f"{where} trial {i} in a stack")
    return expected


def own_trials(cid, n, depth=DEPTH):
    """Trials from the claim's own ensemble, grouped by matrix shapes."""
    claim = catalog()[cid]
    groups = {}
    for t in range(depth):
        try:
            mats = sample(claim.ensemble, n, Seed(41, f"{cid}:{n}", t))
        except ValueError:  # a family that does not exist at this size
            return []
        groups.setdefault(tuple(m.shape for m in mats), []).append(mats)
    return [g for g in groups.values() if len(g) > 1]


def general_trials(cid, n, depth=DEPTH):
    """Off-hypothesis trials: unconstrained general matrices, as the probe draws."""
    claim = catalog()[cid]
    arity = claim.arity if claim.arity > 0 else 3
    return [
        tuple(gen_general(n, Seed(42, f"{cid}:{n}:{k}", t)) for k in range(arity))
        for t in range(depth)
    ]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("cid", THEOREM_IDS)
@pytest.mark.parametrize("pol", POLICIES, ids=("default", "rel=1e-15"))
def test_every_conclusion_matches_its_per_operand_form(cid, pol):
    for n in (1, 2, 3, 8):
        for group in [*own_trials(cid, n), general_trials(cid, n)]:
            check_trials(cid, group, pol, f"{cid} n={n}")


@pytest.mark.parametrize("pol", POLICIES, ids=("default", "rel=1e-15"))
def test_integer_powers_match_their_product_chains(pol):
    """C-POWZ's running products A^1..A^3 are the chains of each exponent,
    bit for bit: on one trial, on a 250-trial sweep stack and at the deepest
    stack of its byte cap."""
    claim = catalog()["C-POWZ"]
    for n in (1, 2, 8):
        trials = [sample(claim.ensemble, n, Seed(43, f"C-POWZ:{n}", t)) for t in range(250)]
        depth = generators.stack_depth(n)
        for t in (0, 1):
            want = integer_powers_by_reduce(trials[t], pol)
            assert_same(claim.conclusion(trials[t], pol), want, f"n={n} trial {t}")
        for size in sorted({2, min(depth, 250), 250}):
            stack = tuple(np.stack(slot) for slot in zip(*trials[:size]))
            want = integer_powers_by_reduce(stack, pol)
            assert_same(claim.conclusion(stack, pol), want, f"n={n} stack of {size}")


@pytest.mark.parametrize("depth", [1, 3])
def test_integer_powers_factor_their_rows_in_one_call(depth, monkeypatch):
    """C-POWZ's identity row takes the operand's shape, so on a stack its
    seven rows stack too: one ``eigh`` for |A| and one for the rows."""
    claim = catalog()["C-POWZ"]
    trials = [sample(claim.ensemble, 4, Seed(44, "C-POWZ:4", t)) for t in range(depth)]
    stack = tuple(np.stack(slot) for slot in zip(*trials))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    holds, _, _ = claim.conclusion(stack, TolerancePolicy())
    assert holds.all()
    assert calls == [(depth, 4, 4), (7, depth, 4, 4)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cid", sorted(REFERENCE))
def test_non_finite_operands_raise_the_sequence_error(cid):
    """A trial with a NaN entry, or with entries whose products overflow,
    raises the error of the per-operand sequence, alone and in a stack."""
    raised = 0
    for n in (1, 2, 4):
        trials = general_trials(cid, n)
        for t in (1, 4):
            bad = [m.copy() for m in trials[t]]
            if t == 1:
                bad[-1][0, 0] = np.nan
            else:
                bad[0] = bad[0] * 1e200
            trials[t] = tuple(bad)
        expected = check_trials(cid, trials, TolerancePolicy(), f"{cid} n={n}")
        raised += sum(isinstance(e, tuple) and isinstance(e[0], type) for e in expected)
    assert raised


@pytest.mark.parametrize("cid", sorted(set(REFERENCE) - {"L-SANDWICH"}))  # no gate there
def test_gate_failures_raise_in_the_per_operand_order(cid):
    """At a vanishing tolerance the PSD gate refuses the round-off negative
    eigenvalues of rank-one operands, each with its own witness, so the
    error names the operand that the per-operand order meets first."""
    pol = TolerancePolicy(rel=1e-300, abs=1e-300)
    messages = set()
    for n in (2, 3, 8):
        trials = [
            tuple(g[:, :1] @ g[1:2, :] for g in mats) for mats in general_trials(cid, n, 12)
        ]
        for value in check_trials(cid, trials, pol, f"{cid} n={n}"):
            if isinstance(value[0], type):
                messages.add(value[1])
    assert len(messages) > 1


def test_a_grouped_call_raises_what_the_sequence_raises():
    # the stacked call meets the self-adjointness gate of the second row
    # first; the sequence fails the PSD gate of the first row
    indefinite = as_matrix([[1.0, 0.0], [0.0, -1.0]])
    skew = as_matrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(Exception) as sequence:
        [psd_sqrt(m) for m in (indefinite, skew)]
    with pytest.raises(type(sequence.value), match="not positive semidefinite") as grouped:
        list(claims_module._grouped(psd_sqrt, zip([indefinite, skew])))
    assert str(grouped.value) == str(sequence.value)
    nan = as_matrix(np.eye(2)).copy()
    nan[1, 1] = np.nan
    for rows in ([nan, indefinite], [indefinite, nan]):
        with pytest.raises(Exception) as sequence:
            [abs_value(m) for m in rows]
        with pytest.raises(type(sequence.value)) as grouped:
            list(claims_module._grouped(abs_value, zip(rows)))
        assert str(grouped.value) == str(sequence.value)


def test_grouping_stays_within_its_byte_cap():
    """One trial's operands go as one call; a sweep-sized stack calls once
    per row, and each row is called before the next one is made."""
    calls, pulled = [], []

    def fn(x):
        calls.append(x.shape)
        return x

    def rows(mats):
        for i, m in enumerate(mats):
            pulled.append((i, len(calls)))
            yield (m,)

    one_trial = [gen_general(8, Seed(5, "cap", t)) for t in range(8)]
    values = list(claims_module._grouped(fn, rows(one_trial)))
    assert calls == [(8, 8, 8)]
    assert all(v.tobytes() == m.tobytes() for v, m in zip(values, one_trial))
    calls.clear()
    pulled.clear()
    sweep = [np.stack([gen_general(8, Seed(6, "cap", t))] * 32) for t in range(3)]
    values = list(claims_module._grouped(fn, rows(sweep)))
    assert all(v is m for v, m in zip(values, sweep))
    assert calls == [(32, 8, 8)] * 3
    assert pulled == [(0, 0), (1, 1), (2, 2)]
    calls.clear()
    shapes = [np.eye(2), np.ones((3, 2, 2)), np.eye(2)]  # rows that do not stack go one by one
    list(claims_module._grouped(fn, zip(shapes)))
    assert calls == [(2, 2), (3, 2, 2), (2, 2)]
