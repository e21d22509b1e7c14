"""The batched non-vacuity probe counts exactly what a per-trial loop counts.

``probe_conclusions`` derives the seeds of every (claim, trial) pair in one
pass, draws each trial's matrices in one call, builds the trials of the
claims of one arity together and evaluates the trials of the claims that
share a conclusion as one stack.
``reference_probe`` below is the plain loop it replaced: one seed, ``arity``
general draws and one conclusion per trial.
"""

from collections import Counter

import numpy as np
import pytest

from absval import (
    DEFAULT_POLICY,
    ProbeStats,
    Seed,
    TolerancePolicy,
    catalog,
    gen_general,
    probe_conclusions,
)
from absval import calculus, generators, predicates
from absval import claims as claims_module

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
MASTERS = (20170228, 2**64, 2**70 + 3)  # one 32-bit word; two wider than 64 bits


def reference_probe(claim_ids, dim, count, master_seed, pol=DEFAULT_POLICY, draw=gen_general):
    table = catalog()
    out = []
    for cid in claim_ids:
        claim = table[cid]
        arity = claim.arity if claim.arity > 0 else 3
        failures = errors = evaluated = 0
        first = None
        for trial in range(count):
            seed = Seed(master_seed, f"probe:{cid}:{dim}", trial)
            rng = seed.generator()
            mats = tuple(draw(dim, rng) for _ in range(arity))
            try:
                ok, _, _ = claim.conclusion(mats, pol)
            except Exception:
                errors += 1
                continue
            evaluated += 1
            if not ok:
                failures += 1
                if first is None:
                    first = seed.replay_master
        out.append(ProbeStats(cid, evaluated, failures, errors, first))
    return out


@pytest.fixture
def stack_sizes(monkeypatch):
    """Record the number of trials of every evaluated probe stack."""
    sizes = []
    real = claims_module._split_on_raise

    def recording(evaluate, stack, size):
        sizes.append(size)
        return real(evaluate, stack, size)

    monkeypatch.setattr(claims_module, "_split_on_raise", recording)
    return sizes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("master", MASTERS, ids=("20170228", "2**64", "2**70+3"))
@pytest.mark.parametrize("dim", (1, 2, 3, 8))
def test_batched_probe_matches_the_per_trial_loop(monkeypatch, stack_sizes, dim, master):
    assert probe_conclusions(THEOREM_IDS, dim, 1, master) == reference_probe(
        THEOREM_IDS, dim, 1, master
    )
    expected = reference_probe(THEOREM_IDS, dim, 40, master)
    assert any(ps.conclusion_failures for ps in expected)
    assert any(ps.errors for ps in expected)
    for cap in (generators.STACK_BYTES, 2048, 1):
        monkeypatch.setattr(generators, "STACK_BYTES", cap)
        stack_sizes.clear()
        assert probe_conclusions(THEOREM_IDS, dim, 40, master) == expected, cap
        assert sum(stack_sizes) == 40 * len(THEOREM_IDS)
        if cap == 1:  # one trial at a time
            assert set(stack_sizes) == {1}
        else:
            assert max(stack_sizes) > 1



# claims that share a conclusion, apart and out of catalog order (a
# repeated claim is a usage error).  (list, conclusions among them)
SHARED = (
    (["C-TRIMINUS", "L-ANTI", "C-TRI", "C-NEGCROSS"], 2),
    (["C-NORMDIFF-", "C-PRODNORM", "C-ABSDIFF+", "C-NORMDIFF+", "C-PRODSA", "C-ABSDIFF-"], 3),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("claim_ids, kernels", SHARED, ids=("triangle", "pairs"))
@pytest.mark.parametrize("dim", (1, 2, 8))
def test_claims_sharing_a_conclusion_share_its_stacks(stack_sizes, claim_ids, kernels, dim):
    for count in (1, 40):
        stack_sizes.clear()
        expected = reference_probe(claim_ids, dim, count, 11)
        assert probe_conclusions(claim_ids, dim, count, 11) == expected
        assert sum(stack_sizes) == count * len(claim_ids)
        if count == 1:  # one stack per conclusion
            assert len(stack_sizes) == kernels


def _poisoned(m):
    """``m`` with a NaN first entry where that entry's real part exceeds 1."""
    m[..., 0, 0] = np.where(m.real[..., 0, 0] > 1.0, np.nan, m[..., 0, 0])
    return m


TRIANGLES = ["C-TRIMINUS", "C-ABSDIFF+", "C-TRI", "C-NEGCROSS", "C-ABSDIFF-"]


def _probe_poisoned(monkeypatch, claim_ids, dim, count):
    """The reference probe's stats for ``claim_ids`` with every built
    matrix poisoned, after checking the stacked probe gives the same."""
    real = claims_module.build

    def poisoned(spec, drawn):
        return tuple(map(_poisoned, real(spec, drawn)))

    monkeypatch.setattr(claims_module, "build", poisoned)
    expected = reference_probe(
        claim_ids, dim, count, 13, draw=lambda n, rng: _poisoned(gen_general(n, rng).copy())
    )
    assert probe_conclusions(claim_ids, dim, count, 13) == expected
    return expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_shared_stack_that_raises_counts_each_trial_alone(monkeypatch, stack_sizes, dim):
    expected = _probe_poisoned(monkeypatch, TRIANGLES, dim, 40)
    assert all(ps.errors and ps.evaluated for ps in expected)
    assert max(stack_sizes) == 3 * 40


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("count", (1, 40))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_shared_round_that_raises_counts_each_trial_alone(
    monkeypatch, stack_sizes, dim, count
):
    # the theorems' conclusions share their rounds, so a poisoned trial
    # raises in a round that clean runs of other conclusions share
    expected = _probe_poisoned(monkeypatch, THEOREM_IDS, dim, count)
    assert any(ps.errors and ps.evaluated for ps in expected) or count == 1
    assert any(ps.errors for ps in expected) and any(ps.evaluated for ps in expected)
    assert max(stack_sizes) == 3 * count


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", (2, 4, 8))
def test_a_one_trial_probe_calls_each_primitive_in_rounds(monkeypatch, dim):
    """A one-trial probe drives every conclusion together: the requests of
    one primitive go as one call per round (within the byte cap), and those
    calls go through the bindings a tracer patches."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("abs_value", "loewner_leq"):
        fn = getattr(calculus, name)
        for module in (claims_module, calculus, predicates):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    expected = reference_probe(THEOREM_IDS, dim, 1, 5)
    calls.clear()
    assert probe_conclusions(THEOREM_IDS, dim, 1, 5) == expected
    assert calls["abs_value"] <= 6  # 16 one conclusion at a time
    assert calls["loewner_leq"] <= 5  # 8 one conclusion at a time


FORCED = TolerancePolicy(rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("pol", (DEFAULT_POLICY, FORCED), ids=("default", "forced"))
@pytest.mark.parametrize("dim", (1, 2, 3, 4, 8))
def test_a_reused_plan_counts_what_the_loop_counts(dim, pol):
    # the second call of each count runs on the plan the first one made
    claims_module._probe_plan.cache_clear()
    for count in (1, 7, 40):
        expected = reference_probe(THEOREM_IDS, dim, count, 5, pol)
        for _ in range(2):
            assert probe_conclusions(THEOREM_IDS, dim, count, 5, pol) == expected
    info = claims_module._probe_plan.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def _same(value, own):
    """``value`` is ``own`` bit for bit: its type, dtype, shape and bytes."""
    if isinstance(own, (tuple, claims_module.PredicateResult)):
        parts = vars(own).values() if not isinstance(own, tuple) else own
        mine = vars(value).values() if not isinstance(value, tuple) else value
        return type(value) is type(own) and all(map(_same, mine, parts))
    if isinstance(own, np.ndarray):
        return (own.dtype, own.shape, own.tobytes()) == (value.dtype, value.shape, value.tobytes())
    return type(value) is type(own) and np.array(value).tobytes() == np.array(own).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_a_round_gives_each_row_its_own_calls_value(dim):
    """One round's call on the rows of runs of different depths (lone 2-D
    trials and stacks of 2 and 5) hands each row what its own call returns:
    Python scalars for a 2-D row, arrays for a stack's row; a request that
    raises gets its own error and the others their values."""
    rng = np.random.default_rng(dim)
    general = lambda *shape: rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    hermitian = lambda *shape: (lambda g: g + np.conj(np.swapaxes(g, -1, -2)))(general(*shape))
    pol = DEFAULT_POLICY
    cases = [
        (claims_module.abs_value, lambda *s: (general(*s),)),
        (claims_module.loewner_leq, lambda *s: (hermitian(*s), hermitian(*s))),
        (claims_module.equality, lambda *s: (general(*s), general(*s))),
    ]
    for fn, row in cases:
        requests = [[row(), row()], [row(2)], [row(), row(5), row()], [row(5)]]
        calls = []
        values = claims_module._round((lambda *a: calls.append(a) or fn(*a), pol), requests)
        assert len(calls) <= 2  # one stacked call per STACK_BYTES // 4 of trials
        for rows, got in zip(requests, values):
            assert len(got) == len(rows)
            for r, value in zip(rows, got):
                assert _same(value, fn(*r, pol))
    norms = [[(general(),), (general(),)], [(general(2),)]]
    for rows, got in zip(norms, claims_module._round((claims_module.operator_norm,), norms)):
        assert all(_same(value, claims_module.operator_norm(*r)) for r, value in zip(rows, got))
    bad = general(2)  # not self-adjoint: its loewner_leq request raises
    requests = [[(hermitian(), hermitian())], [(bad, hermitian(2))], [(hermitian(3), hermitian(3))]]
    first, error, last = claims_module._round((claims_module.loewner_leq, pol), requests)
    assert isinstance(error, claims_module.NumericalError)
    assert _same(first[0], claims_module.loewner_leq(*requests[0][0], pol))
    assert _same(last[0], claims_module.loewner_leq(*requests[2][0], pol))


def test_grouped_frees_a_called_row_before_it_makes_the_next():
    """The one-run executor the rounds share keeps no called row alive: a
    row too big to group with another is freed before the next is made."""
    import weakref

    made, alive = [], []

    def rows():
        for k in range(4):
            alive.append(sum(ref() is not None for ref in made))
            m = np.full((300, 8, 8), k, dtype=complex)  # over STACK_BYTES // 4 alone
            made.append(weakref.ref(m))
            yield (m,)
            del m

    assert list(claims_module._grouped(lambda m: float(m.real.sum()), rows())) == [
        300 * 64 * k for k in range(4)
    ]
    assert alive == [0, 0, 0, 0]
