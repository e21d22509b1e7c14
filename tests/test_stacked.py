"""Stacked evaluation: each slice of a ``(B, n, n)`` call equals the plain
``(n, n)`` call bit for bit.

The suite runner evaluates trials in stacks (``generators.STACK_BYTES``) and
reads every verdict and record straight from the stacked arrays, so a
stacked value that differed from the single-matrix value in any bit would
silently change reports and seed replay.  These tests make a numpy/LAPACK build that breaks
slice identity fail loudly instead.
"""

import dataclasses
import json
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from absval import (
    EnsembleSpec,
    Seed,
    TolerancePolicy,
    abs_value,
    adjoint,
    as_matrix,
    catalog,
    commutes,
    condition_estimate,
    frobenius,
    gen_general,
    hermitian_eigen,
    inverse,
    is_anti_symmetric,
    is_hyponormal,
    is_normal,
    is_positive,
    is_self_adjoint,
    loewner_leq,
    operator_norm,
    psd_power,
    psd_sqrt,
    run_suite,
    sample,
    symmetrize,
)
from absval import claims as claims_module, generators
from absval.core import eigh_exact, equality, positivity

DIMS = (2, 3, 4, 8)
DEPTH = 12
THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]


def assert_slice(stacked, i, single, where):
    """``stacked``'s slice ``i`` equals ``single`` bit for bit, recursively
    through dataclasses, dicts and tuples.  A single matrix gives Python
    scalars, as it always has."""
    if dataclasses.is_dataclass(single):
        for f in dataclasses.fields(single):
            assert_slice(getattr(stacked, f.name), i, getattr(single, f.name), f"{where}.{f.name}")
    elif isinstance(single, dict):
        for key, value in single.items():
            assert_slice(stacked[key], i, value, f"{where}[{key!r}]")
        for key in stacked.keys() - single.keys():  # per-trial extras absent on this trial
            assert np.isnan(stacked[key][i]), f"{where}[{key!r}]"
    elif isinstance(single, (tuple, list)):
        assert len(stacked) == len(single), where
        for k, (s, v) in enumerate(zip(stacked, single)):
            assert_slice(s, i, v, f"{where}[{k}]")
    elif isinstance(single, np.ndarray):
        got = stacked[i]
        assert got.dtype == single.dtype and got.shape == single.shape, where
        assert got.tobytes() == single.tobytes(), where
    else:
        assert type(single) in (bool, float), f"{where}: {type(single).__name__}"
        got = np.asarray(stacked)
        got = got[i] if got.ndim else got
        assert got.tobytes() == np.asarray(single).tobytes(), f"{where}: {got!r} != {single!r}"


def assert_stack_matches(fn, *operand_lists, where=""):
    """Call ``fn`` once on stacked operands and once per slice; compare."""
    stacked = fn(*(np.stack(ops) for ops in operand_lists))
    for i, ops in enumerate(zip(*operand_lists)):
        assert_slice(stacked, i, fn(*ops), f"{where} slice {i}")


def _operands(n, depth=DEPTH):
    seeds = [Seed(31, f"stacked:{n}", t) for t in range(depth)]
    g = [gen_general(n, s) for s in seeds]
    h = [gen_general(n, Seed(32, s.claim_tag, s.trial)) for s in seeds]
    sa = [sample(EnsembleSpec("self_adjoint"), n, Seed(33, s.claim_tag, s.trial))[0] for s in seeds]
    psd = [symmetrize(adjoint(x) @ x) for x in g]
    ordered = EnsembleSpec("ordered_psd_pair")
    pairs = [sample(ordered, n, Seed(34, s.claim_tag, s.trial)) for s in seeds]
    normal = [sample(EnsembleSpec("commuting_normal_family", k=1), n, s)[0] for s in seeds]
    anti = [sample(EnsembleSpec("anti_symmetric"), n, s)[0] for s in seeds]
    def alternate(odd, even=g):  # both verdicts within one stack
        return [odd[t] if t % 2 else even[t] for t in range(depth)]

    mixed = alternate(sa)  # self-adjoint or not
    signed = alternate(psd, sa)  # PSD or indefinite
    near = [x + 1e-10 * y for x, y in zip(g, h)]
    nan_g = [x.copy() for x in g]
    for x in nan_g:
        x[0, 0] = np.nan
    with_nan = alternate(g, nan_g)  # a NaN scale on every even trial, trial 0 too
    # ascending eigenvalues: lambda_min = -1e-9 is within the unit-scale bound,
    # so only the NaN lambda_max on even trials can fail them
    spectra = [np.linspace(-1e-9, t + 1.0, n) for t in range(depth)]
    for t in range(0, depth, 2):
        spectra[t][-1] = np.nan
    singular = [np.zeros((n, n), dtype=complex) if t == 0 else g[t] for t in range(depth)]

    def bound(x, y):
        return TolerancePolicy().bound(frobenius(x), frobenius(y))

    return {
        "adjoint": (adjoint, g),
        "frobenius": (frobenius, g),
        "symmetrize": (symmetrize, g),
        "equality": (equality, g, near),
        "equality_far": (equality, g, h),
        "operator_norm": (operator_norm, g),
        "hermitian_eigen": (hermitian_eigen, sa),
        "eigh_exact": (lambda x: eigh_exact(symmetrize(x)), g),
        "bound": (bound, g, h),
        "bound_nan": (bound, g, with_nan),
        "positivity_nan": (positivity, spectra),
        "psd_sqrt": (psd_sqrt, psd),
        "abs_value": (abs_value, g),
        "psd_power": (lambda x: psd_power(x, 0.3), psd),
        "loewner_leq": (loewner_leq, [b for _, b in pairs], [a for a, _ in pairs]),
        "loewner_leq_mixed": (loewner_leq, sa, psd),
        "condition_estimate": (condition_estimate, singular),
        "inverse": (inverse, g),
        "is_self_adjoint": (is_self_adjoint, mixed),
        "is_normal": (is_normal, alternate(normal)),
        "is_hyponormal": (is_hyponormal, alternate(normal)),
        "is_positive": (is_positive, signed),
        "is_positive_mixed": (is_positive, mixed),
        "is_anti_symmetric": (is_anti_symmetric, alternate(anti)),
        "commutes": (commutes, g, h),
        "commutes_normal": (commutes, normal, [x @ x for x in normal]),
    }


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("depth", (1, DEPTH))
def test_every_primitive_stacks_bit_for_bit(n, depth):
    for name, (fn, *operands) in _operands(n, depth).items():
        assert_stack_matches(fn, *operands, where=f"{name} n={n}")


def _leaves(value):
    """The arrays of a primitive's result, through dataclasses, dicts and tuples."""
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    elif isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("n", DIMS)
def test_every_primitive_takes_an_empty_stack(n):
    """A stack of no trials gives every result with no trials, in the shape
    and dtype a stack of one gives."""
    for name, (fn, *operands) in _operands(n, 1).items():
        one = _leaves(fn(*(np.stack(ops) for ops in operands)))
        empty = _leaves(fn(*(np.stack(ops)[:0] for ops in operands)))
        assert len(empty) == len(one), name
        for got, want in zip(empty, one):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype, name
            assert got.shape == (0,) + want.shape[1:], name


def _groups(claim, n, depth=DEPTH):
    """Trials of one (claim, dim), grouped by matrix shapes as the runner does."""
    groups = defaultdict(list)
    for t in range(depth):
        mats = sample(claim.ensemble, n, Seed(99, f"{claim.id}:{n}", t))
        groups[tuple(m.shape for m in mats)].append(mats)
    return [g for g in groups.values() if len(g) > 1]


# where nearly every slice passes, and where many slices violate: the
# runner builds VIOLATION records from stacked slices
CLAIM_POLICIES = (TolerancePolicy(rel=1e-8, abs=1e-12), TolerancePolicy(rel=1e-15, abs=1e-300))


@pytest.mark.parametrize("cid", THEOREM_IDS)
def test_every_claim_stacks_bit_for_bit(cid):
    claim = catalog()[cid]
    for pol in CLAIM_POLICIES:
        for n in DIMS:
            for group in _groups(claim, n):
                stack = tuple(np.stack(slot) for slot in zip(*group))
                hyp, concl = claim.hypothesis(stack, pol), claim.conclusion(stack, pol)
                where = f"{cid} n={n} rel={pol.rel}"
                for i, mats in enumerate(group):
                    assert_slice(hyp, i, claim.hypothesis(mats, pol), f"{where} hypothesis")
                    assert_slice(concl, i, claim.conclusion(mats, pol), f"{where} conclusion")


@pytest.mark.parametrize("n", DIMS)
def test_frobenius_follows_memory_order(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    views = {
        "C-ordered": x,
        "transposed": x.swapaxes(-1, -2),
        "adjoint view": x.conj().swapaxes(-1, -2),
        "strided": x[::3],
        "real": x.real.copy(),
        "real transposed": x.real.copy().swapaxes(-1, -2),
    }
    for name, v in views.items():
        stacked = frobenius(v)
        for i in range(v.shape[0]):
            expected = np.linalg.norm(v[i])
            assert stacked[i] == expected, f"{name} slice {i}"
            assert frobenius(v[i]) == expected and type(frobenius(v[i])) is float, name


@pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (2, 5, 8, 8)])
def test_symmetrize_is_exactly_hermitian(shape):
    # abs_value skips the self-adjointness gate on its symmetrized Gram
    # matrix: the gate's asymmetry reads exactly 0 there, and symmetrizing
    # again changes no bit
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = symmetrize(x)
    assert np.array_equal(s, s.conj().swapaxes(-1, -2))
    assert np.all(frobenius(s - s.conj().swapaxes(-1, -2)) == 0.0)
    assert symmetrize(s).tobytes() == s.tobytes()
    for a in x.reshape((-1,) + shape[-2:]):
        gated = psd_sqrt(symmetrize(adjoint(a) @ a))  # the gated route abs_value used to take
        assert abs_value(a).tobytes() == gated.tobytes()


# ---------------------------------------------------------------------------
# the runner: fallback to single trials, records, caps

# L-ANTI's hypothesis holds (A* = -A exactly), but A @ A overflows and the
# NaN it leaves fails the self-adjointness gate of loewner_leq.
GATE_FAILING = (as_matrix([[0, 1e200], [-1e200, 0]]),)


@pytest.fixture
def stack_log(monkeypatch):
    """Record every stacked evaluation: (claim, depth, bytes of its largest
    operand stack, all passed), where a stack that raises has not passed."""
    log = []
    real = claims_module._evaluate

    def recording(claim, mats, pol):
        if mats[0].ndim == 2:  # one trial
            return real(claim, mats, pol)
        entry = (claim.id, len(mats[0]), max(m.nbytes for m in mats))
        try:
            result = real(claim, mats, pol)
        except Exception:
            log.append((*entry, False))
            raise
        hyp_ok, concl_ok, _, _ = result
        log.append((*entry, bool(np.all(hyp_ok & concl_ok))))
        return result

    monkeypatch.setattr(claims_module, "_evaluate", recording)
    return log


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_gate_failing_slice_gives_the_single_trial_error_record(monkeypatch, stack_log):
    bad_trial = 5
    real_build = claims_module.build
    spec = catalog()["L-ANTI"].ensemble
    # the bad trial's own draw, which a stack holds as one of its rows
    rngs = iter([Seed(77, "L-ANTI:2", bad_trial).generator()])
    ((_, (bad_draw,)),) = claims_module.sample_block(spec, 2, rngs, np.arange(1))
    bad_draw = bad_draw[0].tobytes()

    def build_with_bad_trial(spec, drawn):  # a stack's draws, or one trial's row of them
        (g,) = drawn
        built = real_build(spec, drawn)
        if g.ndim == 3:  # one trial's row
            return GATE_FAILING if g.tobytes() == bad_draw else built
        for i, row in enumerate(g):
            if row.tobytes() == bad_draw:
                for m, bad in zip(built, GATE_FAILING):
                    m[i] = bad
        return built

    monkeypatch.setattr(claims_module, "build", build_with_bad_trial)
    _, block = claims_module._run_block("L-ANTI", 2, 0, DEPTH, 77, TolerancePolicy())
    _, single = claims_module._run_block("L-ANTI", 2, bad_trial, 1, 77, TolerancePolicy())
    assert stack_log == [("L-ANTI", DEPTH, DEPTH * 64, False)]
    (record,) = single.errors
    assert record["trial"] == bad_trial and record["dim"] == 2
    assert record["message"] == "left operand is not self-adjoint: ||x - x*||_F = nan"
    assert block.errors == single.errors
    assert block.passes == DEPTH - 1 and block.trials == DEPTH


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pol", (TolerancePolicy(), TolerancePolicy(rel=1e-15, abs=1e-300)),
                         ids=("default", "rel=1e-15"))
def test_a_block_of_one_is_its_trial_in_a_larger_block(pol):
    # a block of one trial takes its own path (sample, then _evaluate); each
    # such block gives trial t's records of the block of 8, and together
    # they give the block's counts and its worst-trial record
    seen = set()
    for cid in THEOREM_IDS:
        for n in (1, 2, 3, 8):
            _, block = claims_module._run_block(cid, n, 0, 8, 31, pol)
            merged = claims_module.ClaimStats(cid)
            for t in range(8):
                _, single = claims_module._run_block(cid, n, t, 1, 31, pol)
                where = f"{cid} n={n} trial {t}"
                for kind in ("violations", "errors"):
                    own = [r for r in getattr(block, kind) if r["trial"] == t]
                    assert getattr(single, kind) == own, where
                    if own:
                        seen.add(kind)
                assert single.trials == 1 and single.passes + single.hypothesis_failures <= 1
                claims_module._merge_block(merged, single)
            assert dataclasses.replace(merged, violations=[], errors=[]) == dataclasses.replace(
                block, violations=[], errors=[]
            ), f"{cid} n={n}"
            if block.passes:
                seen.add("passes")
    assert seen == ({"passes", "violations", "errors"} if pol.rel == 1e-15 else {"passes", "errors"})


FORCED_CLAIMS = ["C-EIGHT", "C-NFOLD", "C-POWZ", "L-FUG", "C-PRODSA-COR", "T-LH", "C-ABSCOMM"]


def _report_json(pol):
    report = run_suite(FORCED_CLAIMS, (2, 3, 8), 40, 5, pol)
    return json.dumps([c.to_dict() for c in report.claims], sort_keys=True), report


def _theorems_at_one(pol):
    """The claim reports of a theorem suite at n = 1, at ``pol`` and the default."""
    runs = (run_suite(THEOREM_IDS, [1], 100, 5, p) for p in (pol, TolerancePolicy()))
    return [r.to_dict()["claims"] for r in runs]


@pytest.mark.parametrize("rel", (1e-14, 1e-15))
def test_forced_violations_report_the_same_through_any_stacking(monkeypatch, stack_log, rel):
    pol = TolerancePolicy(rel=rel, abs=1e-300)
    full, report = _report_json(pol)
    assert any(c.violations for c in report.claims)
    assert any(ok for *_, ok in stack_log) and not all(ok for *_, ok in stack_log)
    depths = {depth for _, depth, _, _ in stack_log}
    # n = 1 stacks like every other n: a theorem suite there, at this policy
    # and the default, reports what it reports with every trial alone (below)
    ones = _theorems_at_one(pol)
    assert 100 in {depth for _, depth, _, _ in stack_log}

    monkeypatch.setattr(generators, "STACK_BYTES", 2048)  # 32 deep at n = 2, 2 at n = 8
    stack_log.clear()
    partial, _ = _report_json(pol)
    assert stack_log and {depth for _, depth, _, _ in stack_log} != depths

    monkeypatch.setattr(generators, "STACK_BYTES", 1)  # depth 1: every trial runs alone
    stack_log.clear()
    single, _ = _report_json(pol)
    assert stack_log == []  # no stacked evaluation
    assert full == partial == single
    assert _theorems_at_one(pol) == ones
    assert stack_log == []


def test_forced_run_reads_every_verdict_from_its_stacks(monkeypatch, stack_log):
    # no stack raises here, so no trial is evaluated again on its own
    calls = []
    real = claims_module.check_claim
    monkeypatch.setattr(claims_module, "check_claim", lambda *a: calls.append(a) or real(*a))
    pol = TolerancePolicy(rel=1e-15, abs=1e-300)
    report = run_suite(["C-EIGHT", "C-TRI", "C-PRODNORM"], (2, 4, 8), 250, 5, pol)
    assert sum(len(c.violations) for c in report.claims) > 100
    assert not any(c.errors for c in report.claims)
    assert calls == []
    trials = sum(depth for _, depth, _, _ in stack_log)
    assert trials == sum(c.trials for c in report.claims) == 3 * 3 * 250


def _prodsa_cor_trials(depth):
    """Self-adjoint pairs with a normal product: A, B >= 0 on even trials,
    A <= 0 <= B on odd ones."""
    trials = []
    for t in range(depth):
        (u,) = sample(EnsembleSpec("unitary"), 2, Seed(5, "prodsa-cor", t))
        rng = np.random.default_rng(t)
        alpha, beta = rng.uniform(0.5, 3.0, 2), rng.uniform(0.5, 3.0, 2)
        a = symmetrize((u * alpha) @ adjoint(u))
        trials.append((a if t % 2 == 0 else -a, symmetrize((u * beta) @ adjoint(u))))
    return trials


def _run_as_given(monkeypatch, claim, stacks, pol):
    """``_run_block`` at n = 2 over ``stacks``, ``(trials, matrices)`` pairs
    that stand for its draws, each built as the matrices it holds."""
    monkeypatch.setattr(claims_module, "sample_block", lambda *args: iter(stacks))
    monkeypatch.setattr(claims_module, "build", lambda spec, mats: tuple(mats))
    return claims_module._run_block(claim.id, 2, 0, sum(len(t) for t, _ in stacks), 5, pol)[1]


def test_prodsa_cor_records_keep_the_keys_of_their_trial(monkeypatch, stack_log):
    # C-PRODSA-COR's product extras exist only for A, B >= 0; a stack gives
    # the other trials NaN there, and their records must leave them out
    claim, depth = catalog()["C-PRODSA-COR"], 32
    pol = TolerancePolicy(rel=1e-16, abs=1e-300)
    trials = _prodsa_cor_trials(depth)
    stack = tuple(np.stack(slot) for slot in zip(*trials))
    stacked = _run_as_given(monkeypatch, claim, [(np.arange(depth), stack)], pol)
    assert stack_log == [(claim.id, depth, depth * 64, False)]  # one stack, no split
    # each trial alone: a stack of one, evaluated on its 2-D matrices
    alone = [(np.array([t]), tuple(m[None] for m in mats)) for t, mats in enumerate(trials)]
    single = _run_as_given(monkeypatch, claim, alone, pol)
    assert len(stack_log) == 1
    assert stacked.violations == single.violations
    for got, expected in zip(stacked.violations, single.violations):
        assert list(got["residuals"]) == list(expected["residuals"])
        positive = got["trial"] % 2 == 0
        assert ("product_lambda_min" in got["residuals"]) == positive
        assert ("product_asymmetry" in got["residuals"]) == positive
    kinds = {v["trial"] % 2 for v in stacked.violations}
    assert kinds == {0, 1}, "both kinds of trial must violate"
    for count in ("passes", "hypothesis_failures"):
        assert getattr(stacked, count) == getattr(single, count)
    assert stacked.worst_residual_seed == single.worst_residual_seed


@pytest.mark.parametrize(
    "residuals",
    (
        [1.0, np.nan, 3.0, np.inf, 3.0, 2.0],
        [0.0, -0.0, -1.0],
        [-0.0, 0.0],
        [np.nan, -np.inf, np.inf],
        [2.5, 2.5],
    ),
)
@pytest.mark.parametrize("prior", (None, (2.5, 3), (3.0, 3), (0.0, 2), (9.0, 2)))
def test_all_pass_stack_keeps_the_trial_that_ranks_worst(residuals, prior):
    # one pick per stack ranks as one _keep_worst call per trial would:
    # by (residual, dim, trial) over the finite residuals
    passed = np.ones(len(residuals), dtype=bool)
    evaluated = (passed, passed, {}, {"conclusion": np.array(residuals)})
    claim, trials = catalog()["C-TRI"], np.arange(10, 10 + len(residuals))
    picked, looped = (claims_module.ClaimStats("C-TRI") for _ in range(2))
    if prior is not None:
        for stats in (picked, looped):
            stats._keep_worst(prior[0], {"dim": prior[1], "trial": 0})
    claims_module._run_group(claim, 2, trials, evaluated, picked)
    for t, residual in zip(trials.tolist(), residuals):
        looped._keep_worst(residual, claims_module._seed_record(claim, 2, t))
    assert picked.passes == len(residuals)
    assert picked.worst_residual_seed == looped.worst_residual_seed
    assert np.float64(picked.worst_residual).tobytes() == np.float64(looped.worst_residual).tobytes()
    assert type(picked.worst_residual) is float


def test_an_all_pass_block_makes_a_seed_only_for_the_records_it_keeps(monkeypatch):
    # stacks come with trial numbers, and a Seed is made for a record the
    # block keeps (here only the worst trial's), not for every trial
    made, real = [], Seed.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Seed, "__init__", counting)
    _, stats = claims_module._run_block("C-TRI", 4, 250, 250, 5, TolerancePolicy())
    assert stats.passes == 250 and not stats.violations and not stats.errors
    assert stats.worst_residual_seed is not None
    assert len(made) <= 1, len(made)


def test_stacks_stay_within_the_byte_cap(monkeypatch, stack_log):
    # every claim's stack holds as many trials as one (B, n, n) operand stack
    # fits in STACK_BYTES; C-NFOLD's groups of family sizes 3 and 4 together
    drawn, real = [], claims_module.sample_block
    claim_of = {catalog()[cid].ensemble: cid for cid in ("C-EIGHT", "C-NFOLD", "C-TRIN")}

    def recording(spec, n, rngs, trials):
        for sub, stack in real(spec, n, rngs, trials):
            drawn.append((f"{claim_of[spec]}:{n}", sub))
            yield sub, stack

    monkeypatch.setattr(claims_module, "sample_block", recording)
    run_suite(["C-EIGHT", "C-NFOLD", "C-TRIN"], (2, 8), 250, 3, TolerancePolicy(rel=1e-8))
    assert all(nbytes <= generators.STACK_BYTES for _, _, nbytes, _ in stack_log)
    deepest = defaultdict(int)  # (claim, bytes per operand) -> deepest stack
    for cid, depth, nbytes, _ in stack_log:
        deepest[cid, nbytes // depth] = max(deepest[cid, nbytes // depth], depth)
    for cid in ("C-EIGHT", "C-TRIN"):
        assert deepest[cid, 64] == 250  # a whole block at n = 2
        assert deepest[cid, 1024] == generators.STACK_BYTES // 1024 == 64
    stacks = defaultdict(int)  # (tag, stack) -> trials, a stack's groups together
    for tag, trials in drawn:
        assert not isinstance(trials, int)
        (at,) = set((trials // (250 if tag.endswith(":2") else 64)).tolist())
        stacks[tag, at] += len(trials)
    for cid in ("C-EIGHT", "C-NFOLD", "C-TRIN"):
        assert [stacks[f"{cid}:2", at] for at in range(2)] == [250, 0]
        assert [stacks[f"{cid}:8", at] for at in range(5)] == [64, 64, 64, 58, 0]


def test_a_block_adds_little_memory():
    # a stack's live intermediates are a small multiple of its operand
    # stacks, so a 250-trial block (64 trials a stack at n = 8, one stack at
    # n = 4) peaks well under what a whole 8x8 block in one stack takes
    for cid in THEOREM_IDS:
        for n in (4, 8):
            claims_module._run_block(cid, n, 0, 250, 1, TolerancePolicy())  # warm the caches
            tracemalloc.start()
            try:
                claims_module._run_block(cid, n, 0, 250, 1, TolerancePolicy())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 1024 * 1024, (cid, n, peak)


def test_one_trial_blocks_are_not_stacked(stack_log):
    report = run_suite(THEOREM_IDS, DIMS, 1, 11)
    assert report.verdict == "pass"
    assert stack_log == []
